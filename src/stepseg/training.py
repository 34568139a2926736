"""SGD training on one labeled scene, evaluation, and the alpha sweep.

One "stochastic" iteration is a full-scene gradient step on an augmented
copy of the single training example (a seeded flip/rotation per step);
the only other noise source is the seeded parameter init. The learning
rate follows step decay: lr0 * decay_factor ** (iteration // decay_every).

The sweep trains one run per (alpha, seed) pair and picks alpha* as the
argmax over alphas of the seed-median validation mIoU, breaking ties
toward the smaller alpha. Diverged runs are recorded but excluded.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .adjoint import GradientBundle, gradient
from .losses import ClassMap, IoUReport, iou, softmax_xent_matrix
from .network import (
    NetworkParams,
    SelectionSet,
    check_fields,
    field_kinds,
    forward,
    of_kind,
    parse_key_values,
    predict_classes,
    select_matrix,
)
from .synth import (
    RNG_STREAMS,
    augment,
    read_class_map,
    read_selection,
    write_class_map,
    write_selection,
)
from . import tensor_ops
from .tensor_ops import read_ftf, write_ftf

_KERNEL_SIZE = 3


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run, given the data files.

    alpha is the strength of the quadratic output smoother; 0 turns it off.
    """

    iterations: int = of_kind("int>=0", 250)
    lr0: float = of_kind("finite>=0", 0.01)
    decay_factor: float = of_kind("(0,1]", 0.5)
    decay_every: int = of_kind("int>=1", 100)
    seed: int = of_kind("int>=0", 0)
    augmentation: bool = of_kind("bool", True)
    alpha: float = of_kind("finite>=0", 0.0)
    width: int = of_kind("int>=1", 32)
    steps: int = of_kind("int>=0", 10)
    activation: str = of_kind("activation", "tanh")
    h: float = of_kind("finite", 1.0)
    eval_every: int = of_kind("int>=1", 25)

    __post_init__ = check_fields

    def lr(self, iteration: int) -> float:
        return self.lr0 * self.decay_factor ** (iteration // self.decay_every)


CONFIG_KINDS = field_kinds(TrainConfig)  # also the keys parse_config takes


def parse_config(text: str) -> TrainConfig:
    """Overrides of TrainConfig's fields as key=value lines of their kinds."""
    return TrainConfig(**parse_key_values(text, CONFIG_KINDS, "config"))


def init_params(bands: int, num_classes: int, width: int, steps: int,
                activation: str, h: float, seed: int) -> NetworkParams:
    """Seeded Gaussian kernels scaled by 1 / sqrt(in_channels * kh * kw)."""
    rng = np.random.default_rng([seed, RNG_STREAMS["init"]])

    def draw(out_c: int, in_c: int, kh: int, kw: int) -> np.ndarray:
        std = 1.0 / math.sqrt(in_c * kh * kw)
        return std * rng.standard_normal((out_c, in_c, kh, kw))

    return NetworkParams(
        lift=draw(width, bands, 1, 1),
        layers=tuple(draw(width, width, _KERNEL_SIZE, _KERNEL_SIZE)
                     for _ in range(steps)),
        project=draw(num_classes, width, 1, 1),
        h=h, activation=activation)


@dataclass(frozen=True)
class IterationLog:
    iteration: int
    lr: float
    loss: float
    reg_value: float
    objective: float
    val_loss: Optional[float] = None
    val_miou: Optional[float] = None


@dataclass(frozen=True)
class TrainResult:
    """Final params, per-iteration log, and "ok" or "diverged"."""

    params: NetworkParams
    history: tuple[IterationLog, ...]
    status: str


def _sgd_update(params: NetworkParams, grads: GradientBundle,
                lr: float) -> NetworkParams:
    return NetworkParams(
        lift=params.lift - lr * grads.lift,
        layers=tuple(k - lr * g for k, g in zip(params.layers, grads.layers)),
        project=params.project - lr * grads.project,
        h=params.h, activation=params.activation)


def _infer_num_classes(train_labels: SelectionSet,
                       val_labels: SelectionSet) -> int:
    ids = [int(s.classes.max()) for s in (train_labels, val_labels) if len(s)]
    return max(2, max(ids) + 1)


def _label_metrics(output: np.ndarray,
                   labels: SelectionSet) -> tuple[float, float]:
    """Loss and mIoU over the labeled pixels of an output field."""
    logits = select_matrix(output, labels)
    loss, _ = softmax_xent_matrix(logits, labels.classes)
    report = iou(predict_classes(logits), labels.classes,
                 num_classes=output.shape[0])
    return loss, report.miou


def train(config: TrainConfig, data: np.ndarray, train_labels: SelectionSet,
          val_labels: SelectionSet) -> TrainResult:
    """SGD on the training objective; aborts with the last finite params
    if the loss leaves the finite range."""
    if len(train_labels) == 0:
        raise ValueError("training needs at least one labeled pixel")
    num_classes = _infer_num_classes(train_labels, val_labels)
    params = init_params(bands=data.shape[0], num_classes=num_classes,
                         width=config.width, steps=config.steps,
                         activation=config.activation, h=config.h,
                         seed=config.seed)
    history: list[IterationLog] = []
    last_good = params
    status = "ok"
    for it in range(config.iterations):
        lr = config.lr(it)
        if config.augmentation:
            step_data, step_labels = augment(data, train_labels,
                                             config.seed, it)
        else:
            step_data, step_labels = data, train_labels
        is_eval = (it + 1) % config.eval_every == 0 or it == config.iterations - 1
        val_loss = val_miou = None
        try:
            # forward and the loss report their own overflow; one in the
            # smoother value shows in the objective check, and one in the
            # multiplier sweep or the SGD update makes params the next
            # forward rejects, so numpy's warning is noise
            with np.errstate(over="ignore", invalid="ignore"):
                grads = gradient(params, step_data, step_labels, config.alpha)
                if not math.isfinite(grads.objective):
                    raise FloatingPointError("nonfinite objective")
                last_good, params = params, _sgd_update(params, grads, lr)
                if is_eval and len(val_labels):
                    val_loss, val_miou = _label_metrics(
                        forward(params, data).output, val_labels)
        except FloatingPointError:
            status = "diverged"
            params = last_good
            break
        history.append(IterationLog(
            iteration=it, lr=lr, loss=grads.loss, reg_value=grads.regularizer,
            objective=grads.objective, val_loss=val_loss, val_miou=val_miou))
        # not held through the next gradient
        del grads
    return TrainResult(params=params, history=tuple(history), status=status)


def evaluate(params: NetworkParams, data: np.ndarray,
             truth: ClassMap) -> tuple[IoUReport, ClassMap]:
    """Dense-truth IoU of the argmax prediction, and the prediction."""
    pred = predict_classes(forward(params, data).output)
    report = iou(pred, truth.values, num_classes=params.num_classes)
    return report, ClassMap(values=pred)


def check_truth_classes(truth: ClassMap, num_classes: int, whose: str):
    """Raise 'holds class <c>, but <whose> only classes 0-<n-1>' for a truth
    class c >= num_classes, which a model of num_classes cannot score."""
    if (top := int(truth.values.max(initial=-1))) >= num_classes:
        raise ValueError(f"holds class {top}, but {whose} only classes "
                         f"0-{num_classes - 1}")


@dataclass(frozen=True)
class Dataset:
    """One synthetic scene with its sparse train/val label sets."""

    data: np.ndarray
    truth: ClassMap
    train: SelectionSet
    val: SelectionSet

    @property
    def num_classes(self) -> int:
        """The class count of the models trained on these labels."""
        return _infer_num_classes(self.train, self.val)


def save_dataset(directory, dataset: Dataset):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_ftf(directory / "data.ftf", dataset.data)
    write_class_map(directory / "truth.lbl", dataset.truth)
    height, width = dataset.truth.values.shape
    write_selection(directory / "train_labels.lbl", dataset.train, height, width)
    write_selection(directory / "val_labels.lbl", dataset.val, height, width)


def _check_header(path: Path, shape: tuple[int, ...], data: np.ndarray):
    if shape != data.shape[1:]:
        raise ValueError(f"{path}: header is {shape[0]}x{shape[1]}, "
                         f"data.ftf is {data.shape[1]}x{data.shape[2]}")


def load_scene(directory) -> tuple[np.ndarray, ClassMap]:
    """Read data.ftf and truth.lbl; truth.lbl must share data.ftf's H x W."""
    directory = Path(directory)
    data = read_ftf(directory / "data.ftf")
    truth = read_class_map(directory / "truth.lbl")
    _check_header(directory / "truth.lbl", truth.values.shape, data)
    return data, truth


def load_dataset(directory, need_val: bool = False) -> Dataset:
    """Read a scene directory; every label file must share data.ftf's H x W,
    and train_labels.lbl (and val_labels.lbl if need_val) must hold a label."""
    directory = Path(directory)
    data, truth = load_scene(directory)
    labels = {}
    for name, needed in (("train", True), ("val", need_val)):
        path = directory / f"{name}_labels.lbl"
        labels[name], shape = read_selection(path)
        _check_header(path, shape, data)
        if needed and not len(labels[name]):
            raise ValueError(f"{path}: holds no labels")
    return Dataset(data=data, truth=truth, **labels)


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    seed: int
    train_loss: float
    val_miou: float
    test_miou: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]

    @property
    def alpha_star(self) -> Optional[float]:
        """argmax of the median validation mIoU, ties to the smaller alpha."""
        medians = _median_val_miou(self.records)
        return min(medians, key=lambda a: (-medians[a], a), default=None)

    def summary(self) -> str:
        """The alpha* line, then per alpha the median validation mIoU over
        finished runs, the median test mIoU over all runs (diverged runs
        keep their last finite parameters), and diverged/total runs."""
        if self.alpha_star is None:
            lines = ["no run finished; alpha* undefined"]
        else:
            lines = [f"alpha*={repr(self.alpha_star)} by median validation mIoU"]
        val = _median_val_miou(self.records)
        for alpha in sorted({rec.alpha for rec in self.records}):
            rows = [rec for rec in self.records if rec.alpha == alpha]
            test = [rec.test_miou for rec in rows
                    if not math.isnan(rec.test_miou)]
            test_median = statistics.median(test) if test else math.nan
            diverged = sum(rec.status == "diverged" for rec in rows)
            lines.append(f"  alpha={repr(alpha)} "
                         f"median_val_miou={repr(val.get(alpha, math.nan))} "
                         f"median_test_miou={repr(test_median)} "
                         f"diverged={diverged}/{len(rows)}")
        return "\n".join(lines) + "\n"


def _run_one(config: TrainConfig, dataset: Dataset, alpha: float,
             seed: int) -> SweepRecord:
    run_config = replace(config, seed=seed, alpha=alpha)
    result = train(run_config, dataset.data, dataset.train, dataset.val)
    try:
        output = forward(result.params, dataset.data).output
        train_loss, _ = _label_metrics(output, dataset.train)
        _, val_miou = _label_metrics(output, dataset.val)
        test_miou = iou(predict_classes(output), dataset.truth.values,
                        num_classes=result.params.num_classes).miou
    except FloatingPointError:
        train_loss = val_miou = test_miou = math.nan
        result = replace(result, status="diverged")
    return SweepRecord(alpha=alpha, seed=seed, train_loss=train_loss,
                       val_miou=val_miou, test_miou=test_miou,
                       status=result.status)


def _median_val_miou(records: tuple[SweepRecord, ...]) -> dict[float, float]:
    by_alpha: dict[float, list[float]] = {}
    for rec in records:
        if rec.status == "ok":
            by_alpha.setdefault(rec.alpha, []).append(rec.val_miou)
    return {alpha: statistics.median(v) for alpha, v in by_alpha.items()}


def _band_threads(count: int):
    """Sweep worker initializer: deal each convolution's bands across count
    threads."""
    tensor_ops._THREADS = count


def sweep(config: TrainConfig, alphas: list[float], seeds: list[int],
          dataset: Dataset, jobs: int = 1) -> SweepResult:
    """Independent training runs over the (alpha, seed) grid, recorded in
    (alpha, seed) order: the grid is built sorted and pool.map keeps it.

    At most min(jobs, grid cells, CPU count) worker processes run at once.
    They are spawned, not forked, so that each one loads OpenBLAS afresh
    with OPENBLAS_NUM_THREADS = max(1, CPU count // workers) in its
    environment, unless the caller has set that variable, and each deals
    its convolutions' bands across max(1, CPU count // workers) threads.
    A serial sweep deals them across every CPU this process may run on.
    """
    if not alphas or not seeds:
        raise ValueError("need at least one alpha and one seed")
    if not len(dataset.val):
        raise ValueError("the sweep needs validation labels: alpha* is "
                         "chosen by validation mIoU")
    # each cell's test mIoU scores the truth with a model of the labels' classes
    check_truth_classes(dataset.truth, dataset.num_classes, "the labels hold")
    grid = [(alpha, seed) for alpha in sorted(alphas) for seed in sorted(seeds)]
    cpus = os.cpu_count() or 1
    workers = min(jobs, len(grid), cpus)
    if workers > 1:
        threads = max(1, cpus // workers)
        pinned = "OPENBLAS_NUM_THREADS" in os.environ
        if not pinned:
            os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
        try:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_band_threads, initargs=(threads,)) as pool:
                records = list(pool.map(
                    _run_one, [config] * len(grid), [dataset] * len(grid),
                    [a for a, _ in grid], [s for _, s in grid]))
        finally:
            if not pinned:
                del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        records = [_run_one(config, dataset, a, s) for a, s in grid]
    return SweepResult(records=tuple(records))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Comma-separated table: floats by repr, so they read back exactly,
    None as an empty cell, anything else by str."""
    def cell(value) -> str:
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def records_csv(kind: type, records: Iterable) -> str:
    """csv_text of dataclass records: kind's field names as the header, then
    one row of field values per record, in the order given."""
    return csv_text([f.name for f in fields(kind)], map(astuple, records))


def history_csv(history: tuple[IterationLog, ...]) -> str:
    """One row per IterationLog, its fields as columns, in iteration order."""
    return records_csv(IterationLog, history)


def sweep_csv(records: tuple[SweepRecord, ...]) -> str:
    """One row per SweepRecord, its fields as columns, sorted by (alpha, seed)."""
    return records_csv(SweepRecord,
                       sorted(records, key=lambda r: (r.alpha, r.seed)))
