"""Command-line surface: gen-data, train, sweep, eval, gradcheck.

Exit codes: 0 success, 1 failed gradient check, 2 configuration error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, suppress
from itertools import takewhile
from pathlib import Path

from .adjoint import gradcheck
from .network import check_value, load_params, parse_value, save_params
from .synth import (
    LabelBudget,
    SceneSpec,
    gen_scene,
    sample_labels,
    write_class_map,
)
from .tensor_ops import in_file
from .training import (
    Dataset,
    check_truth_classes,
    csv_text,
    init_params,
    evaluate,
    history_csv,
    load_dataset,
    load_scene,
    parse_config,
    save_dataset,
    sweep,
    sweep_csv,
    train,
)

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3

GRADCHECK_THRESHOLD = 1e-5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it in one line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stepseg",
        description="Train time-stepping residual networks with explicit "
                    "output smoothing on sparse-label segmentation scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic labeled scene")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size", default=f"{SceneSpec.height}x{SceneSpec.width}",
                     help="HxW, e.g. 64x64")
    gen.add_argument("--bands", type=int, default=SceneSpec.channels)
    gen.add_argument("--classes", type=int, default=SceneSpec.num_classes)
    gen.add_argument("--noise", type=float, default=SceneSpec.noise_sigma)
    gen.add_argument("--blobs", type=int, default=SceneSpec.blob_count)
    gen.add_argument("--signature-scale", type=float,
                     default=SceneSpec.signature_scale)
    gen.add_argument("--train-labels", type=int, default=200)
    gen.add_argument("--val-labels", type=int, default=50)
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="run SGD on a scene directory")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="train over an alpha grid and seeds")
    sw.add_argument("--config", required=True)
    sw.add_argument("--alphas", required=True, help="comma-separated floats")
    sw.add_argument("--seeds", required=True, help="comma-separated ints")
    sw.add_argument("--data", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--jobs", type=int, default=1)

    ev = sub.add_parser("eval", help="score saved params against dense truth")
    ev.add_argument("--params", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck",
                        help="compare the adjoint gradient to finite differences")
    gc.add_argument("--seed", type=int, required=True)
    gc.add_argument("--alpha", type=float, default=0.5)
    return parser


def _parse_size(text: str) -> tuple[int, int]:
    try:
        height, width = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--size must look like 64x64, got {text!r}") from None
    return height, width


def _parse_list(text: str, kind: str, flag: str) -> list:
    """A comma-separated flag value: at least one item, each parsed as kind,
    none twice."""
    items = [parse_value(x, kind, f"{flag} item")
             for x in text.split(",") if x.strip()]
    if not items:
        raise ValueError(f"{flag} must list at least one item, got {text!r}")
    if len(set(items)) < len(items):
        raise ValueError(f"{flag} items must be distinct, got {text!r}")
    return items


@contextmanager
def _out_dir(text: str):
    """Create --out and its missing parents once the inputs are read, so a
    bad path fails before the long work. If the block fails, remove those
    still empty, deepest first; no directory that existed is touched."""
    out = Path(text)
    made = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except BaseException:
        for path in made:
            with suppress(OSError):  # rmdir leaves a non-empty directory
                path.rmdir()
        raise


def _cmd_gen_data(args) -> int:
    height, width = _parse_size(args.size)
    spec = SceneSpec(seed=args.seed, height=height, width=width,
                     channels=args.bands, num_classes=args.classes,
                     blob_count=args.blobs, noise_sigma=args.noise,
                     signature_scale=args.signature_scale)
    data, truth = gen_scene(spec)
    budget = LabelBudget(n_train=args.train_labels, n_val=args.val_labels,
                         seed=args.seed)
    train_sel, val_sel = sample_labels(truth, budget)
    with _out_dir(args.out) as out:
        save_dataset(out, Dataset(data, truth, train_sel, val_sel))
    print(f"wrote scene {height}x{width} with {len(train_sel)} train / "
          f"{len(val_sel)} val labels to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    with in_file(args.config):
        config = parse_config(Path(args.config).read_text())
    dataset = load_dataset(args.data)
    with _out_dir(args.out) as out:
        result = train(config, dataset.data, dataset.train, dataset.val)
        save_params(out / "params", result.params)
        (out / "history.csv").write_text(history_csv(result.history))
        (out / "status.txt").write_text(result.status + "\n")
    if result.history:
        print(f"finished {len(result.history)} iterations, status "
              f"{result.status}, final loss {result.history[-1].loss:.6g}")
    else:
        print(f"status {result.status}")
    return EXIT_OK if result.status == "ok" else EXIT_DIVERGED


def _cmd_sweep(args) -> int:
    with in_file(args.config):
        config = parse_config(Path(args.config).read_text())
    alphas = _parse_list(args.alphas, "finite>=0", "--alphas")
    seeds = _parse_list(args.seeds, "int>=0", "--seeds")
    check_value(args.jobs, "int>=1", "--jobs")
    # alpha* is chosen by validation mIoU
    dataset = load_dataset(args.data, need_val=True)
    with in_file(Path(args.data) / "truth.lbl"):
        check_truth_classes(dataset.truth, dataset.num_classes, "the labels hold")
    with _out_dir(args.out) as out:
        result = sweep(config, alphas, seeds, dataset, jobs=args.jobs)
        (out / "sweep.csv").write_text(sweep_csv(result.records))
        (out / "summary.txt").write_text(result.summary())
    print(result.summary(), end="")
    return EXIT_OK if result.alpha_star is not None else EXIT_DIVERGED


def _cmd_eval(args) -> int:
    params = load_params(args.params)
    data, truth = load_scene(args.data)
    with in_file(Path(args.data) / "truth.lbl"):
        check_truth_classes(truth, params.num_classes, "the params predict")
    with _out_dir(args.out) as out:
        # a band count that differs from the params' is data.ftf's fault
        with in_file(Path(args.data) / "data.ftf"):
            report, pred = evaluate(params, data, truth)
        write_class_map(out / "prediction.lbl", pred)
        # one row per class with a defined IoU; alpha is empty for a single run
        (out / "iou.csv").write_text(csv_text(
            ("alpha", "class_id", "iou", "miou"),
            [(None, c.class_id, c.iou, report.miou)
             for c in report.per_class if c.iou is not None]))
    print(f"mIoU {report.miou:.6f}")
    return EXIT_OK


def gradcheck_instance(seed: int):
    """gradcheck's fixed instance: params, an 8x8 scene's data and its
    training labels, all drawn from seed."""
    spec = SceneSpec(seed=seed, height=8, width=8, channels=3, num_classes=2,
                     blob_count=3, noise_sigma=0.5, signature_scale=1.0)
    data, truth = gen_scene(spec)
    labels, _ = sample_labels(truth, LabelBudget(n_train=10, n_val=0,
                                                 seed=seed))
    params = init_params(bands=3, num_classes=2, width=4, steps=2,
                         activation="tanh", h=1.0, seed=seed)
    return params, data, labels


def _cmd_gradcheck(args) -> int:
    check_value(args.alpha, "finite>=0", "--alpha")
    err = gradcheck(*gradcheck_instance(args.seed), alpha=args.alpha,
                    num_coords=60, seed=args.seed)
    print(f"gradcheck max relative error: {err:.6e}")
    return EXIT_OK if err < GRADCHECK_THRESHOLD else EXIT_GRADCHECK_FAILED


def main(argv=None) -> int:
    handlers = {"gen-data": _cmd_gen_data, "train": _cmd_train,
                "sweep": _cmd_sweep, "eval": _cmd_eval,
                "gradcheck": _cmd_gradcheck}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FloatingPointError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry():
    sys.exit(main())
