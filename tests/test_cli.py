"""End-to-end command-line behavior and exit codes."""

import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stepseg.cli
import stepseg.training
from stepseg.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    EXIT_GRADCHECK_FAILED,
    EXIT_OK,
    main,
)
from stepseg.losses import ClassMap
from stepseg.network import load_params, save_params
from stepseg.synth import (
    SceneSpec,
    gen_scene,
    read_class_map,
    write_class_map,
)
from stepseg.training import evaluate, init_params, load_dataset

TINY_SCENE = ["--size", "12x12", "--bands", "3", "--train-labels", "20",
              "--val-labels", "8"]
TINY_CONFIG = "iterations=3\nwidth=4\nsteps=2\nseed=1\neval_every=2\n"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# the directory this suite imported stepseg from, e.g. the checkout's src/
IMPORT_ROOT = str(Path(stepseg.__file__).resolve().parents[1])


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert main(["gen-data", "--seed", "3", *TINY_SCENE,
                 "--out", str(out)]) == EXIT_OK
    return out


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "train.cfg"
    path.write_text(text)
    return path


# the function in stepseg.cli that does each command's long work
WORK = {"train": "train", "sweep": "sweep", "eval": "evaluate"}


def command_args(tmp_path, scene, command, out):
    """Arguments for train, sweep or eval on a scene directory that write
    to out; eval scores freshly initialised 3-band params."""
    if command == "eval":
        params = tmp_path / "params"
        save_params(params, init_params(bands=3, num_classes=2, width=4,
                                        steps=2, activation="tanh", h=1.0,
                                        seed=1))
        return ["eval", "--params", str(params), "--data", str(scene),
                "--out", str(out)]
    args = [command, "--config", str(write_config(tmp_path)),
            "--data", str(scene), "--out", str(out)]
    if command == "sweep":
        args += ["--alphas", "0", "--seeds", "1"]
    return args


class TestGenData:
    def test_writes_a_complete_scene(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code = main(["gen-data", "--seed", "7", *TINY_SCENE, "--out", str(out)])
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == \
            ["data.ftf", "train_labels.lbl", "truth.lbl", "val_labels.lbl"]
        ds = load_dataset(out)
        assert ds.data.shape == (3, 12, 12)
        assert len(ds.train) == 20
        assert len(ds.val) == 8
        assert "20 train / 8 val labels" in capsys.readouterr().out

    def test_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--seed", "5", *TINY_SCENE,
                         "--out", str(out)]) == EXIT_OK
        for name in ("data.ftf", "truth.lbl", "train_labels.lbl",
                     "val_labels.lbl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_budget_is_config_error(self, tmp_path, capsys):
        code = main(["gen-data", "--seed", "1", "--size", "8x8",
                     "--train-labels", "200", "--val-labels", "50",
                     "--out", str(tmp_path / "scene")])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_size_is_config_error(self, tmp_path, capsys):
        for size in ("64", "8xa", "x8"):
            code = main(["gen-data", "--seed", "1", "--size", size,
                         "--out", str(tmp_path / "scene")])
            assert code == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == (
                f"error: --size must look like 64x64, got {size!r}\n")

    @pytest.mark.parametrize("flag,dimension", [("--bands", "channels"),
                                                ("--classes", "num_classes")])
    def test_zero_dimension_is_named(self, tmp_path, capsys, flag, dimension):
        # zero, and a negative value that numpy's draw would reject first
        for value in ("0", "-1"):
            code = main(["gen-data", "--seed", "1", *TINY_SCENE, flag, value,
                         "--out", str(tmp_path / "scene")])
            assert code == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err == (f"error: {dimension} must be an integer >= 1, "
                           f"got {value}\n")
            assert "signature" not in err


    def test_negative_seed_is_named(self, tmp_path, capsys):
        code = main(["gen-data", "--seed", "-1", *TINY_SCENE,
                     "--out", str(tmp_path / "scene")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: seed must be an integer >= 0, got -1\n")
        assert not (tmp_path / "scene").exists()

    @pytest.mark.parametrize("scale,message", [
        ("nan", "must be a finite number, got nan"),
        ("inf", "must be a finite number, got inf"),
        # finite, but the signatures it scales overflow
        ("1e308", "must give finite, distinct class signatures, got 1e+308"),
    ], ids=["nan", "inf", "1e308"])
    def test_nonfinite_signature_scale_is_named(self, tmp_path, capsys,
                                                scale, message):
        # a non-finite scale would make every data value non-finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning too
            code = main(["gen-data", "--seed", "1", *TINY_SCENE,
                         "--signature-scale", scale,
                         "--out", str(tmp_path / "scene")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: signature_scale {message}\n")
        assert not (tmp_path / "scene").exists()

    def test_defaults_are_scene_spec_defaults(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["gen-data", "--seed", "2", "--out", str(out)]) == EXIT_OK
        data, _ = gen_scene(SceneSpec(seed=2))
        np.testing.assert_array_equal(load_dataset(out).data, data)


class TestFlags:
    @pytest.mark.parametrize("args,message", [
        (["gen-data", "--seed", "x", "--out", "scene"],
         "argument --seed: invalid int value: 'x'"),
        (["sweep", "--config", "c", "--alphas", "0", "--seeds", "1",
          "--data", "d", "--out", "o", "--jobs", "x"],
         "argument --jobs: invalid int value: 'x'"),
        (["train", "--config", "c", "--data", "d"],
         "the following arguments are required: --out")])
    def test_bad_flag_is_one_line(self, capsys, args, message):
        assert main(args) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: stepseg sweep [-h] --config CONFIG")
        assert "comma-separated floats" in out


class TestTrain:
    def test_writes_params_history_status(self, tmp_path, scene_dir, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "status.txt").read_text() == "ok\n"
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == \
            "iteration,lr,loss,reg_value,objective,val_loss,val_miou"
        assert len(history) == 1 + 3
        params = load_params(out / "params")
        assert params.width == 4
        assert "finished 3 iterations" in capsys.readouterr().out

    def test_unknown_config_key_is_config_error(self, tmp_path, scene_dir,
                                                capsys):
        cfg = write_config(tmp_path, "momentum=0.9\n")
        code = main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG_ERROR
        assert "unknown config line" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["reg_kind=quadratic", "lr0=nan",
                                      "activation=sigmoid", "decay_factor=-1",
                                      "h=nan", "seed=-1",
                                      "decay_factor=1e200\ndecay_every=1"])
    def test_bad_config_value_is_config_error(self, tmp_path, scene_dir,
                                              capsys, line):
        # a config error, never a run that is reported as diverged
        cfg = write_config(tmp_path, TINY_CONFIG + line + "\n")
        code = main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_data_dir_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG_ERROR

    def test_divergence_exits_3_and_records_status(self, tmp_path, scene_dir,
                                                    capsys):
        cfg = write_config(tmp_path, TINY_CONFIG
                           + "iterations=40\nlr0=10.0\nalpha=100.0\n")
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert (out / "status.txt").read_text() == "diverged\n"
        # the diverged loss is huge: printed to 6 significant digits
        line = capsys.readouterr().out.rstrip("\n")
        assert line.startswith("finished ") and len(line) < 100, line
        assert np.isfinite(float(line.rpartition("final loss ")[2]))
        # the checkpoint written is the last finite one
        params = load_params(out / "params")
        assert np.all(np.isfinite(params.project))


class TestSweep:
    def test_writes_csv_and_summary(self, tmp_path, scene_dir, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(cfg), "--alphas", "0,0.001",
                     "--seeds", "2,1", "--data", str(scene_dir),
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "alpha,seed,train_loss,val_miou,test_miou,status"
        assert len(rows) == 1 + 4
        starts = [row.split(",")[:2] for row in rows[1:]]
        assert starts == [["0.0", "1"], ["0.0", "2"],
                          ["0.001", "1"], ["0.001", "2"]]
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("alpha*=")
        rows = summary.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["alpha=0.0", "alpha=0.001"]
        assert all(re.fullmatch(r"diverged=[012]/2", row.split()[-1])
                   for row in rows)
        assert capsys.readouterr().out.startswith("alpha*=")

    def test_csv_is_bitwise_reproducible(self, tmp_path, scene_dir):
        cfg = write_config(tmp_path)
        runs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--alphas", "0,0.001",
                         "--seeds", "1,2", "--data", str(scene_dir),
                         "--out", str(out)]) == EXIT_OK
            runs.append((out / "sweep.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_jobs_below_one_is_config_error(self, tmp_path, scene_dir, capsys):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--alphas", "0",
                     "--seeds", "1", "--data", str(scene_dir),
                     "--out", str(tmp_path / "out"), "--jobs", "0"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "error: --jobs must be an integer >= 1, got 0\n"

    def test_malformed_alpha_list_is_config_error(self, tmp_path, scene_dir,
                                                  capsys):
        cfg = write_config(tmp_path)
        # every bad list item, a repeated one and an empty list name their flag
        for alphas, seeds, line in (
                ("0,banana", "1",
                 "--alphas item must be a finite number >= 0, got 'banana'"),
                ("0", "1.5",
                 "--seeds item must be an integer >= 0, got '1.5'"),
                ("0,inf", "1",
                 "--alphas item must be a finite number >= 0, got inf"),
                ("0,-1", "1",
                 "--alphas item must be a finite number >= 0, got -1.0"),
                ("0", "1,-1", "--seeds item must be an integer >= 0, got -1"),
                ("0,0.0", "1", "--alphas items must be distinct, got '0,0.0'"),
                ("0", "1,01", "--seeds items must be distinct, got '1,01'"),
                ("", "1", "--alphas must list at least one item, got ''"),
                (" , ", "1", "--alphas must list at least one item, got ' , '"),
                ("0", "", "--seeds must list at least one item, got ''"),
                ("0", " , ", "--seeds must list at least one item, got ' , '")):
            code = main(["sweep", "--config", str(cfg), "--alphas", alphas,
                         "--seeds", seeds, "--data", str(scene_dir),
                         "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()


class TestBadScene:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_is_config_error_before_training(self, tmp_path, bad_scene,
                                             monkeypatch, capsys, command):
        def no_training(*args):
            raise AssertionError("a training iteration ran")

        monkeypatch.setattr(stepseg.training, "gradient", no_training)
        scene, message = bad_scene
        assert main(command_args(tmp_path, scene, command,
                                 tmp_path / "out")) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scene}{os.sep}")
        assert err.count("\n") == 1
        assert re.search(message, err)
        assert "Traceback" not in err


class TestInputsBeforeWork:
    """Every input and --out are checked before the first iteration."""

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_out_under_a_file_fails_before_training(self, tmp_path, scene_dir,
                                                    monkeypatch, capsys,
                                                    command):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(stepseg.cli, WORK[command], no_work)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        assert main(command_args(tmp_path, scene_dir, command,
                                 out)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("command,empty", [("train", "train"),
                                               ("sweep", "train"),
                                               ("sweep", "val")])
    def test_empty_label_file_is_named(self, tmp_path, monkeypatch, capsys,
                                       command, empty):
        def no_training(*args):
            raise AssertionError("a training iteration ran")

        scene = tmp_path / "scene"
        counts = {"train": "20", "val": "8", empty: "0"}
        assert main(["gen-data", "--seed", "3", "--size", "12x12",
                     "--bands", "3", "--train-labels", counts["train"],
                     "--val-labels", counts["val"],
                     "--out", str(scene)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(stepseg.training, "gradient", no_training)
        assert main(command_args(tmp_path, scene, command,
                                 tmp_path / "out")) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {scene / f'{empty}_labels.lbl'}: holds no labels\n")
        assert not (tmp_path / "out").exists()

    def test_train_runs_without_val_labels(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert main(["gen-data", "--seed", "3", "--size", "12x12",
                     "--bands", "3", "--train-labels", "20",
                     "--val-labels", "0", "--out", str(scene)]) == EXIT_OK
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--data", str(scene),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 671. GiB for an array"),
         "error: Unable to allocate 671. GiB for an array\n"),
        (MemoryError(), "error: MemoryError\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_line(self, tmp_path, scene_dir, monkeypatch,
                                      capsys, exc, line):
        # a stub: a real huge allocation can succeed under overcommit
        def out_of_memory(*args):
            raise exc

        monkeypatch.setattr(stepseg.cli, "train", out_of_memory)
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--data", str(scene_dir),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    @pytest.mark.parametrize("out,existing", [
        ("out", []), ("out", ["out/"]),
        ("a/b/c", []), ("a/b/c", ["a/", "a/keep"])],
        ids=["made", "existed", "nested-made", "nested-under-kept"])
    def test_failed_run_removes_only_the_out_it_made(
            self, tmp_path, scene_dir, monkeypatch, capsys, command, out,
            existing):
        # --out and its missing parents are created before the work; a run
        # that then fails with exit 2 removes each of them that is still
        # empty, and no directory that existed before, empty or not
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 671. GiB for an array")

        monkeypatch.setattr(stepseg.cli, WORK[command], out_of_memory)
        for name in existing:
            path = tmp_path / name
            path.mkdir() if name.endswith("/") else path.write_text("")
        args = command_args(tmp_path, scene_dir, command, tmp_path / out)
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: Unable to allocate 671. GiB for an array\n")
        assert sorted(tmp_path.rglob("*")) == before


class TestEval:
    def test_files_match_evaluate(self, tmp_path, scene_dir):
        cfg = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(run)]) == EXIT_OK
        out = tmp_path / "evalout"
        assert main(["eval", "--params", str(run / "params"),
                     "--data", str(scene_dir), "--out", str(out)]) == EXIT_OK
        dataset = load_dataset(scene_dir)
        report, pred = evaluate(load_params(run / "params"), dataset.data,
                                dataset.truth)
        np.testing.assert_array_equal(
            read_class_map(out / "prediction.lbl").values, pred.values)
        # a row per class with a defined IoU, floats by repr, alpha empty
        assert (out / "iou.csv").read_text() == "".join(
            ["alpha,class_id,iou,miou\n"]
            + [f",{c.class_id},{c.iou!r},{report.miou!r}\n"
               for c in report.per_class if c.iou is not None])

    def test_scores_saved_params(self, tmp_path, scene_dir, capsys):
        cfg = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(scene_dir),
                     "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "evalout"
        code = main(["eval", "--params", str(run / "params"),
                     "--data", str(scene_dir), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "prediction.lbl").exists()
        iou_rows = (out / "iou.csv").read_text().splitlines()
        assert iou_rows[0] == "alpha,class_id,iou,miou"
        assert len(iou_rows) >= 2
        assert re.match(r"mIoU \d\.\d{6}", capsys.readouterr().out)

    def test_truth_header_mismatch_rejected_before_forward(
            self, tmp_path, monkeypatch, capsys):
        def no_forward(*args):
            raise AssertionError("a forward pass ran")

        scene = tmp_path / "scene"
        assert main(["gen-data", "--seed", "3", *TINY_SCENE, "--size", "16x16",
                     "--out", str(scene)]) == EXIT_OK
        write_class_map(scene / "truth.lbl",
                        ClassMap(values=np.zeros((8, 8), dtype=np.int64)))
        save_params(tmp_path / "params",
                    init_params(bands=3, num_classes=2, width=4, steps=2,
                                activation="tanh", h=1.0, seed=1))
        monkeypatch.setattr(stepseg.training, "forward", no_forward)
        capsys.readouterr()
        code = main(["eval", "--params", str(tmp_path / "params"),
                     "--data", str(scene), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {scene / 'truth.lbl'}: header is 8x8, data.ftf is 16x16\n")

    @pytest.mark.parametrize("line,message", [
        ("n=-1", "n must be an integer >= 0, got -1"),
        ("width=x", "width must be an integer >= 1, got 'x'"),
        ("h=x", "h must be a finite number, got 'x'"),
        ("activation=gelu",
         "activation must be one of ('relu', 'tanh'), got 'gelu'")])
    def test_bad_manifest_count_is_named(self, tmp_path, scene_dir, capsys,
                                         line, message):
        # a negative n once loaded as a zero-layer network and scored
        params = tmp_path / "params"
        save_params(params, init_params(bands=3, num_classes=2, width=4,
                                        steps=2, activation="tanh", h=1.0,
                                        seed=1))
        manifest = params / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        capsys.readouterr()
        code = main(["eval", "--params", str(params),
                     "--data", str(scene_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {manifest}: {message}\n"
        assert captured.out == ""

    def test_bad_params_name_the_file_at_fault(self, tmp_path, scene_dir,
                                               bad_params, capsys):
        directory, line = bad_params
        code = main(["eval", "--params", str(directory),
                     "--data", str(scene_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {line}\n"
        assert not (tmp_path / "o").exists()

    def test_band_mismatch_names_the_data_file(self, tmp_path, scene_dir,
                                               capsys):
        # params for 16 bands against the 3-band scene
        save_params(tmp_path / "params",
                    init_params(bands=16, num_classes=2, width=4, steps=2,
                                activation="tanh", h=1.0, seed=1))
        capsys.readouterr()
        code = main(["eval", "--params", str(tmp_path / "params"),
                     "--data", str(scene_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {scene_dir / 'data.ftf'}: data has 3 bands, "
            f"network expects 16\n")
        assert not (tmp_path / "o").exists()

    def test_truth_class_the_params_cannot_predict_names_truth(
            self, tmp_path, capsys):
        # params for 2 classes against a 3-class scene's truth
        scene = tmp_path / "scene"
        assert main(["gen-data", "--seed", "3", *TINY_SCENE, "--classes", "3",
                     "--out", str(scene)]) == EXIT_OK
        save_params(tmp_path / "params",
                    init_params(bands=3, num_classes=2, width=4, steps=2,
                                activation="tanh", h=1.0, seed=1))
        capsys.readouterr()
        code = main(["eval", "--params", str(tmp_path / "params"),
                     "--data", str(scene), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {scene / 'truth.lbl'}: holds class 2, but the params "
            f"predict only classes 0-1\n")
        assert not (tmp_path / "o").exists()

    def test_overflowing_forward_leaks_no_warning(self, tmp_path, capsys):
        # kernels scaled by 1e200 overflow the lift and layer products to
        # inf, which tanh saturates, so the scores stay finite
        scene, run = tmp_path / "scene", tmp_path / "run"
        assert main(["gen-data", "--seed", "3", *TINY_SCENE, "--size", "16x16",
                     "--out", str(scene)]) == EXIT_OK
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--data", str(scene), "--out", str(run)]) == EXIT_OK
        params = load_params(run / "params")
        save_params(tmp_path / "big", replace(
            params, lift=1e200 * params.lift,
            layers=tuple(1e200 * k for k in params.layers)))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--params", str(tmp_path / "big"),
                         "--data", str(scene), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert re.fullmatch(r"mIoU \d\.\d{6}\n", captured.out)
        assert captured.err == ""

    def test_missing_params_dir_is_config_error(self, tmp_path, scene_dir):
        code = main(["eval", "--params", str(tmp_path / "nope"),
                     "--data", str(scene_dir), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR


class TestGradcheck:
    def test_passes_and_prints_the_error(self, capsys):
        code = main(["gradcheck", "--seed", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        match = re.match(r"gradcheck max relative error: (\d\.\d{6}e[+-]\d{2})",
                         out)
        assert match
        assert float(match.group(1)) < 1e-5

    def test_alpha_zero_also_passes(self, capsys):
        assert main(["gradcheck", "--seed", "1", "--alpha", "0"]) == EXIT_OK

    def test_negative_seed_is_named(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: seed must be an integer >= 0, got -1\n")

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_bad_alpha_is_named(self, capsys, alpha):
        assert main(["gradcheck", "--seed", "1", "--alpha", alpha]) == \
            EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: --alpha must be a finite number >= 0, "
            f"got {float(alpha)!r}\n")

    def test_nonfinite_check_fails_quietly(self):
        # at this alpha J overflows, so no comparison is finite; a child
        # process shows what a numpy warning would print on stderr
        proc = run_child([sys.executable, "-m", "stepseg", "gradcheck",
                          "--seed", "0", "--alpha", "1e308"])
        assert proc.returncode == EXIT_GRADCHECK_FAILED
        assert proc.stdout == "gradcheck max relative error: nan\n"
        assert proc.stderr == ""

    def test_threshold_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(stepseg.cli, "gradcheck",
                            lambda *a, **k: 1e-3)
        assert main(["gradcheck", "--seed", "1"]) == EXIT_GRADCHECK_FAILED


def run_child(args):
    """Run args in a subprocess that imports stepseg from IMPORT_ROOT first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (IMPORT_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(args, capture_output=True, text=True, env=env)


class TestConsoleScript:
    def test_installed_entry_point_runs(self):
        # runs the declared [project.scripts] entry the way the wrapper pip
        # generates for it does, so no install is needed
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "stepseg" in scripts
        module, attr = scripts["stepseg"].split(":")
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.argv[0] = 'stepseg'\nsys.exit({attr}())\n")
        proc = run_child([sys.executable, "-c", wrapper,
                          "gradcheck", "--seed", "2"])
        assert proc.returncode == EXIT_OK
        assert "gradcheck max relative error" in proc.stdout

    @pytest.mark.skipif(shutil.which("stepseg") is None,
                        reason="no stepseg console script on PATH")
    def test_console_script_on_path_runs(self):
        proc = run_child(["stepseg", "gradcheck", "--seed", "2"])
        assert proc.returncode == EXIT_OK
        assert "gradcheck max relative error" in proc.stdout

    def test_module_invocation_runs(self):
        proc = run_child([sys.executable, "-m", "stepseg", "gradcheck",
                          "--seed", "2"])
        assert proc.returncode == EXIT_OK
        assert "gradcheck max relative error" in proc.stdout
