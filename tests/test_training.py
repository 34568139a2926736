"""Training loop, config parsing, evaluation, and the alpha sweep."""

import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepseg.training
from stepseg import tensor_ops
from stepseg.adjoint import gradient
from stepseg.cli import EXIT_OK, main
from stepseg.losses import UNLABELED, ClassMap, iou
from stepseg.network import (
    MANIFEST_KINDS,
    VALUE_KINDS,
    NetworkParams,
    SelectionSet,
    forward,
    load_params,
    save_params,
)
from stepseg.synth import (
    LabelBudget,
    SceneSpec,
    augment,
    gen_scene,
    read_class_map,
    sample_labels,
)
from stepseg.training import (
    CONFIG_KINDS,
    Dataset,
    SweepRecord,
    TrainConfig,
    TrainResult,
    csv_text,
    evaluate,
    history_csv,
    init_params,
    load_dataset,
    parse_config,
    save_dataset,
    sweep,
    sweep_csv,
    train,
)


def tiny_problem(scene_seed=3, height=12, width=12, channels=3,
                 n_train=20, n_val=8, label_seed=5):
    spec = SceneSpec(seed=scene_seed, height=height, width=width,
                     channels=channels, num_classes=2, blob_count=3,
                     noise_sigma=0.6, signature_scale=1.0)
    data, truth = gen_scene(spec)
    train_sel, val_sel = sample_labels(
        truth, LabelBudget(n_train, n_val, seed=label_seed))
    return data, truth, train_sel, val_sel


def tiny_config(**overrides):
    base = dict(iterations=4, width=4, steps=2, seed=1, eval_every=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.iterations == 250
        assert cfg.lr0 == 0.01
        assert cfg.decay_factor == 0.5
        assert cfg.decay_every == 100
        assert cfg.seed == 0
        assert cfg.augmentation is True
        assert cfg.alpha == 0.0
        assert cfg.width == 32
        assert cfg.steps == 10
        assert cfg.activation == "tanh"
        assert cfg.h == 1.0
        assert cfg.eval_every == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1)
        with pytest.raises(ValueError):
            TrainConfig(width=0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(decay_every=0)
        with pytest.raises(ValueError):
            TrainConfig(eval_every=0)
        nan, inf = float("nan"), float("inf")
        for bad in (dict(lr0=nan), dict(lr0=inf), dict(decay_factor=0.0),
                    dict(decay_factor=-1.0), dict(decay_factor=nan),
                    dict(decay_factor=1.5), dict(decay_factor=1e200),
                    dict(h=nan), dict(h=-inf), dict(activation="sigmoid"),
                    dict(seed=-1), dict(alpha=-1.0), dict(alpha=nan)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)

    def test_step_decay_schedule(self):
        cfg = TrainConfig(lr0=0.08, decay_factor=0.5, decay_every=100)
        assert cfg.lr(0) == 0.08
        assert cfg.lr(99) == 0.08
        assert cfg.lr(100) == 0.04
        assert cfg.lr(199) == 0.04
        assert cfg.lr(200) == 0.02
        rates = [cfg.lr(it) for it in range(300)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == TrainConfig()

    def test_every_key_parses(self):
        cfg = TrainConfig(iterations=7, lr0=0.125, decay_factor=0.25,
                          decay_every=3, seed=9, augmentation=False,
                          alpha=0.001, width=5, steps=3, activation="relu", h=0.5,
                          eval_every=2)
        text = ("iterations=7\nlr0=0.125\ndecay_factor=0.25\ndecay_every=3\n"
                "seed=9\naugmentation=false\nalpha=0.001\nwidth=5\nsteps=3\n"
                "activation=relu\nh=0.5\neval_every=2\n")
        assert parse_config(text) == cfg

    def test_overrides_apply_on_base(self):
        # keys the text leaves out keep their defaults
        cfg = parse_config("lr0 = 0.5\nseed=4\n")
        assert cfg == replace(TrainConfig(), lr0=0.5, seed=4)

    def test_alpha_sets_cfg_alpha(self):
        assert parse_config("alpha=0.25\n").alpha == 0.25
        assert parse_config("alpha=0\n").alpha == 0.0

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed=2  # trailing\n")
        assert cfg.seed == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config line"):
            parse_config("learning_rate=0.1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="unknown config line"):
            parse_config("iterations\n")

    def test_boolean_spellings(self):
        for text, want in [("true", True), ("1", True), ("on", True),
                           ("false", False), ("0", False), ("off", False)]:
            assert parse_config(f"augmentation={text}\n").augmentation is want
        with pytest.raises(ValueError, match="boolean"):
            parse_config("augmentation=maybe\n")

    @pytest.mark.parametrize("line,message", [
        ("iterations=x", "iterations must be an integer >= 0, got 'x'"),
        ("seed=2.0", "seed must be an integer >= 0, got '2.0'"),
        ("lr0=fast", "lr0 must be a finite number >= 0, got 'fast'"),
        ("augmentation=maybe", "augmentation must be a boolean, got 'maybe'"),
        ("iterations=-1", "iterations must be an integer >= 0, got -1"),
        ("width=0", "width must be an integer >= 1, got 0"),
        ("steps=-2", "steps must be an integer >= 0, got -2"),
        ("decay_every=0", "decay_every must be an integer >= 1, got 0"),
        ("eval_every=0", "eval_every must be an integer >= 1, got 0"),
        ("seed=-1", "seed must be an integer >= 0, got -1")])
    def test_bad_value_names_its_key(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_config(line + "\n")
        assert str(info.value) == message

    def test_reg_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown config line"):
            parse_config("reg_kind=quadratic\n")

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(f.name for f in fields(TrainConfig))),
           value=st.one_of(
               st.text(max_size=12),
               st.integers(-3, 10 ** 30).map(str),
               st.floats().map(repr),
               st.sampled_from(["tanh", "relu", "sigmoid", "true", "off",
                                "nan", "-inf", "0", "1e400", " 2 # c"])))
    def test_any_value_parses_and_trains_or_raises(self, key, value):
        try:
            cfg = parse_config(f"{key}={value}\n")
        except ValueError:
            return
        # keep every draw small: the keys that size the run are forced
        cfg = replace(cfg, width=2, steps=1, iterations=1)
        data, _, train_sel, val_sel = tiny_problem(height=8, width=8,
                                                   n_train=6, n_val=4)
        result = train(cfg, data, train_sel, val_sel)
        assert result.status in ("ok", "diverged")


# a value outside each value kind, written to a file as str(value)
OUTSIDE_KIND = {"int>=0": -1, "int>=1": 0, "int>=2": 1, "finite": math.nan,
                "finite>=0": -1.0, "(0,1]": 1.5, "bool": "maybe",
                "activation": "gelu"}


def outside_kind(kinds, key):
    """A value outside key's kind and the one error line that rejects it."""
    kind = kinds[key]
    value = OUTSIDE_KIND[kind]
    return value, f"{key} must be {VALUE_KINDS[kind][3]}, got {value!r}"


# (dataclass, field) for every field a value kind checks
CHECKED_FIELDS = [(cls, f.name) for cls in (TrainConfig, SceneSpec, LabelBudget)
                  for f in fields(cls) if f.init]
CHECKED_FIELDS += [(NetworkParams, "h"), (NetworkParams, "activation")]


class TestKindTables:
    """Every key of the config and manifest kinds, driven by the tables, so
    a key added later is covered here."""

    @pytest.mark.parametrize("cls, name", CHECKED_FIELDS, ids=[
        f"{cls.__name__}.{name}" for cls, name in CHECKED_FIELDS])
    def test_checked_field_declares_its_kind(self, cls, name):
        field, = (f for f in fields(cls) if f.name == name)
        assert field.metadata.get("kind") in VALUE_KINDS

    @pytest.mark.parametrize("key, value, kind", [
        ("h", math.nan, "finite"), ("activation", "sigmoid", "activation")])
    def test_params_reject_a_value_outside_its_kind(self, key, value, kind):
        params = init_params(3, 2, 4, 2, "tanh", 1.0, seed=1)
        with pytest.raises(ValueError) as info:
            replace(params, **{key: value})
        assert str(info.value) == (f"{key} must be {VALUE_KINDS[kind][3]}, "
                                   f"got {value!r}")

    def test_config_kinds_name_every_field(self):
        assert list(CONFIG_KINDS) == [f.name for f in fields(TrainConfig)]

    @pytest.mark.parametrize("key", list(CONFIG_KINDS))
    def test_config_value_outside_its_kind(self, key):
        value, message = outside_kind(CONFIG_KINDS, key)
        with pytest.raises(ValueError) as info:
            parse_config(f"{key}={value}\n")
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            TrainConfig(**{key: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("key", list(MANIFEST_KINDS))
    def test_manifest_value_outside_its_kind(self, tmp_path, key):
        value, message = outside_kind(MANIFEST_KINDS, key)
        save_params(tmp_path, init_params(3, 2, 4, 2, "tanh", 1.0, seed=1))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + f"{key}={value}\n")
        with pytest.raises(ValueError) as info:
            load_params(tmp_path)
        assert str(info.value) == f"{manifest}: {message}"


class TestInitParams:
    def test_deterministic(self):
        a = init_params(3, 2, 4, 2, "tanh", 1.0, seed=7)
        b = init_params(3, 2, 4, 2, "tanh", 1.0, seed=7)
        np.testing.assert_array_equal(a.lift, b.lift)
        for ka, kb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(a.project, b.project)

    def test_shapes_and_metadata(self):
        p = init_params(16, 3, 8, 4, "relu", 0.5, seed=0)
        assert p.lift.shape == (8, 16, 1, 1)
        assert len(p.layers) == 4
        assert p.layers[0].shape == (8, 8, 3, 3)
        assert p.project.shape == (3, 8, 1, 1)
        assert p.activation == "relu"
        assert p.h == 0.5

    def test_fan_in_scaling(self):
        p = init_params(16, 2, 32, 2, "tanh", 1.0, seed=1)
        lift_std = float(p.lift.std())
        layer_std = float(p.layers[0].std())
        assert abs(lift_std - 1 / np.sqrt(16)) < 0.2 / np.sqrt(16)
        assert abs(layer_std - 1 / np.sqrt(32 * 9)) < 0.1 / np.sqrt(32 * 9)

    def test_seed_changes_draw(self):
        a = init_params(3, 2, 4, 1, "tanh", 1.0, seed=0)
        b = init_params(3, 2, 4, 1, "tanh", 1.0, seed=1)
        assert not np.array_equal(a.lift, b.lift)


class TestBandThreads:
    # 3x3 bands of a (6, 20, 20) field: one; or seven of 3 rows, the last 2
    @pytest.mark.parametrize("band_bytes", [2**62, 3 * 6 * 9 * 20 * 8])
    def test_gradient_and_train_keep_their_bits_at_every_thread_count(
            self, monkeypatch, band_bytes):
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        data, _, train_sel, val_sel = tiny_problem(height=20, width=20)
        config = tiny_config(iterations=5, width=6, steps=3, alpha=1e-3)
        params = init_params(bands=3, num_classes=2, width=6, steps=3,
                             activation="tanh", h=1.0, seed=2)
        bands = len(list(tensor_ops._patch_bands(
            np.empty((6, 20, 20)), 3, 3)))
        assert bands == (1 if band_bytes == 2**62 else 7)
        runs = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(tensor_ops, "_THREADS", threads)
            bundle = gradient(params, data, train_sel, 1e-3)
            result = train(config, data, train_sel, val_sel)
            assert result.status == "ok" and len(result.history) == 5
            runs[threads] = (
                [bundle.lift, *bundle.layers, bundle.project,
                 result.params.lift, *result.params.layers,
                 result.params.project],
                (bundle.loss, bundle.regularizer, history_csv(result.history)))
        for threads in (2, 3):
            for got, want in zip(runs[threads][0], runs[1][0], strict=True):
                np.testing.assert_array_equal(got, want)
            assert runs[threads][1] == runs[1][1]


class TestTrain:
    def test_empty_train_labels_rejected(self):
        data, _, _, val_sel = tiny_problem()
        empty = SelectionSet(rows=[], cols=[], classes=[])
        with pytest.raises(ValueError, match="labeled pixel"):
            train(tiny_config(), data, empty, val_sel)

    def test_zero_learning_rate_freezes_params(self):
        data, _, train_sel, val_sel = tiny_problem()
        cfg = tiny_config(lr0=0.0, augmentation=False, iterations=5)
        result = train(cfg, data, train_sel, val_sel)
        init = init_params(bands=3, num_classes=2, width=cfg.width,
                           steps=cfg.steps, activation=cfg.activation,
                           h=cfg.h, seed=cfg.seed)
        np.testing.assert_array_equal(result.params.lift, init.lift)
        for ka, kb in zip(result.params.layers, init.layers):
            np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(result.params.project, init.project)
        losses = [log.loss for log in result.history]
        assert len(set(losses)) == 1
        assert result.status == "ok"

    def test_single_iteration_equals_hand_composed_step(self):
        data, _, train_sel, val_sel = tiny_problem()
        cfg = tiny_config(iterations=1, lr0=0.05)
        result = train(cfg, data, train_sel, val_sel)

        init = init_params(bands=3, num_classes=2, width=cfg.width,
                           steps=cfg.steps, activation=cfg.activation,
                           h=cfg.h, seed=cfg.seed)
        step_data, step_labels = augment(data, train_sel, cfg.seed, 0)
        grads = gradient(init, step_data, step_labels, cfg.alpha)
        np.testing.assert_array_equal(result.params.lift,
                                      init.lift - 0.05 * grads.lift)
        for got, k, g in zip(result.params.layers, init.layers, grads.layers):
            np.testing.assert_array_equal(got, k - 0.05 * g)
        np.testing.assert_array_equal(result.params.project,
                                      init.project - 0.05 * grads.project)
        assert result.history[0].loss == grads.loss

    def test_history_is_bitwise_deterministic(self):
        data, _, train_sel, val_sel = tiny_problem()
        cfg = tiny_config(iterations=6)
        a = train(cfg, data, train_sel, val_sel)
        b = train(cfg, data, train_sel, val_sel)
        assert a.history == b.history
        np.testing.assert_array_equal(a.params.project, b.params.project)

    def test_objective_decomposition_in_history(self):
        data, _, train_sel, val_sel = tiny_problem()
        alpha = 0.003
        cfg = tiny_config(alpha=alpha)
        result = train(cfg, data, train_sel, val_sel)
        for log in result.history:
            assert log.objective == log.loss + alpha * log.reg_value

    def test_eval_cadence(self):
        data, _, train_sel, val_sel = tiny_problem()
        cfg = tiny_config(iterations=12, eval_every=5)
        result = train(cfg, data, train_sel, val_sel)
        evaluated = [log.iteration for log in result.history
                     if log.val_miou is not None]
        assert evaluated == [4, 9, 11]
        for log in result.history:
            assert (log.val_loss is None) == (log.val_miou is None)

    def test_no_val_labels_skips_val_metrics(self):
        data, _, train_sel, _ = tiny_problem()
        empty = SelectionSet(rows=[], cols=[], classes=[])
        result = train(tiny_config(), data, train_sel, empty)
        assert all(log.val_miou is None for log in result.history)
        assert result.status == "ok"

    def test_augmentation_changes_the_trajectory(self):
        data, _, train_sel, val_sel = tiny_problem()
        on = train(tiny_config(iterations=3), data, train_sel, val_sel)
        off = train(tiny_config(iterations=3, augmentation=False),
                    data, train_sel, val_sel)
        assert [log.loss for log in on.history] != \
            [log.loss for log in off.history]

    def test_class_count_inferred_from_labels(self):
        data, _, train_sel, val_sel = tiny_problem()
        three = SelectionSet(rows=train_sel.rows, cols=train_sel.cols,
                             classes=np.where(train_sel.classes > 0, 2, 0))
        result = train(tiny_config(iterations=1), data, three, val_sel)
        assert result.params.num_classes == 3

    def test_val_miou_scores_the_labeled_pixels(self):
        # reference: the argmax map against a map holding the validation
        # labels and UNLABELED elsewhere
        data, _, _, val_sel = tiny_problem()
        params = init_params(3, 2, 4, 2, "tanh", 1.0, seed=0)
        output = forward(params, data).output
        sparse = np.full(output.shape[1:], UNLABELED)
        sparse[val_sel.rows, val_sel.cols] = val_sel.classes
        want = iou(np.argmax(output, axis=0), sparse, num_classes=2).miou
        assert stepseg.training._label_metrics(output, val_sel)[1] == want

    def test_divergence_aborts_with_last_finite_params(self):
        data, _, train_sel, val_sel = tiny_problem()
        cfg = tiny_config(iterations=40, lr0=10.0, alpha=100.0)
        result = train(cfg, data, train_sel, val_sel)
        assert result.status == "diverged"
        assert len(result.history) < 40
        for stack in (result.params.lift, *result.params.layers,
                      result.params.project):
            assert np.all(np.isfinite(stack))
        assert np.all(np.isfinite(forward(result.params, data).output))


class TestEvaluate:
    def test_identity_network_scores_perfectly(self):
        # Two one-hot bands, an identity lift/project and no steps make the
        # output equal the data, so argmax reproduces the truth exactly.
        truth_values = np.zeros((6, 6), dtype=np.int64)
        truth_values[2:5, 1:4] = 1
        truth = ClassMap(values=truth_values)
        data = np.stack([(truth_values == 0) * 1.0, (truth_values == 1) * 1.0])
        eye = np.eye(2).reshape(2, 2, 1, 1)
        params = NetworkParams(lift=eye, layers=(), project=eye)
        report, pred = evaluate(params, data, truth)
        assert report.miou == 1.0
        np.testing.assert_array_equal(pred.values, truth_values)

    def test_zero_network_predicts_class_zero_everywhere(self):
        data, truth, _, _ = tiny_problem()
        params = NetworkParams(lift=np.zeros((4, 3, 1, 1)),
                               layers=(np.zeros((4, 4, 3, 3)),) * 2,
                               project=np.zeros((2, 4, 1, 1)))
        report, pred = evaluate(params, data, truth)
        assert np.all(pred.values == 0)
        n0 = int(np.sum(truth.values == 0))
        n1 = int(np.sum(truth.values == 1))
        assert report.per_class[0].intersection == n0
        assert report.per_class[0].union == truth.values.size
        assert report.per_class[1].intersection == 0
        assert report.per_class[1].union == n1

    def test_prediction_file_written(self, tmp_path):
        # stepseg eval writes evaluate()'s prediction to prediction.lbl
        data, truth, train_sel, val_sel = tiny_problem()
        save_dataset(tmp_path / "scene",
                     Dataset(data=data, truth=truth, train=train_sel,
                             val=val_sel))
        params = init_params(3, 2, 4, 2, "tanh", 1.0, seed=0)
        save_params(tmp_path / "params", params)
        out = tmp_path / "evalout"
        assert main(["eval", "--params", str(tmp_path / "params"),
                     "--data", str(tmp_path / "scene"),
                     "--out", str(out)]) == EXIT_OK
        _, pred = evaluate(params, data, truth)
        np.testing.assert_array_equal(
            read_class_map(out / "prediction.lbl").values, pred.values)

    def test_ignores_unlabeled_truth(self):
        data, truth, _, _ = tiny_problem()
        masked = truth.values.copy()
        masked[0:6, :] = UNLABELED
        params = init_params(3, 2, 4, 2, "tanh", 1.0, seed=0)
        report, pred = evaluate(params, data, ClassMap(values=masked))
        inter = sum(c.intersection for c in report.per_class)
        labeled = int(np.sum(masked != UNLABELED))
        assert inter == int(np.sum((pred.values == masked) & (masked >= 0)))
        assert inter <= labeled


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        data, truth, train_sel, val_sel = tiny_problem()
        ds = Dataset(data=data, truth=truth, train=train_sel, val=val_sel)
        save_dataset(tmp_path / "scene", ds)
        loaded = load_dataset(tmp_path / "scene")
        np.testing.assert_array_equal(loaded.data, data)
        np.testing.assert_array_equal(loaded.truth.values, truth.values)
        assert loaded.train.entries == train_sel.entries
        assert loaded.val.entries == val_sel.entries

    def test_expected_files(self, tmp_path):
        data, truth, train_sel, val_sel = tiny_problem()
        save_dataset(tmp_path / "scene",
                     Dataset(data=data, truth=truth,
                             train=train_sel, val=val_sel))
        names = sorted(p.name for p in (tmp_path / "scene").iterdir())
        assert names == ["data.ftf", "train_labels.lbl", "truth.lbl",
                         "val_labels.lbl"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "missing")

    def test_bad_scene_rejected(self, bad_scene):
        scene, message = bad_scene
        with pytest.raises(ValueError, match=message):
            load_dataset(scene)


def make_dataset():
    data, truth, train_sel, val_sel = tiny_problem()
    return Dataset(data=data, truth=truth, train=train_sel, val=val_sel)


class TestSweep:
    def test_single_alpha_names_it_best(self):
        result = sweep(tiny_config(iterations=2), [0.0], [1], make_dataset())
        assert result.alpha_star == 0.0
        assert len(result.records) == 1
        assert result.records[0].status == "ok"

    def test_duplicate_alphas_give_identical_rows(self):
        result = sweep(tiny_config(iterations=2), [0.001, 0.001], [2],
                       make_dataset())
        a, b = result.records
        assert (a.train_loss, a.val_miou, a.test_miou, a.status) == \
            (b.train_loss, b.val_miou, b.test_miou, b.status)

    def test_rows_sorted_by_alpha_then_seed(self):
        result = sweep(tiny_config(iterations=1), [0.001, 0.0], [2, 1],
                       make_dataset())
        keys = [(r.alpha, r.seed) for r in result.records]
        assert keys == [(0.0, 1), (0.0, 2), (0.001, 1), (0.001, 2)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            sweep(tiny_config(), [], [1], make_dataset())
        with pytest.raises(ValueError, match="alpha"):
            sweep(tiny_config(), [0.0], [], make_dataset())

    def test_cell_whose_params_overflow_the_loss_is_diverged(self, monkeypatch):
        # forward's output is a finite +-1e308 at every pixel, but a class 1
        # pixel's loss is not finite, so scoring the cell raises
        dataset = replace(make_dataset(), data=np.ones((3, 12, 12)))
        params = NetworkParams(
            lift=np.full((1, 3, 1, 1), 1 / 3), layers=(),
            project=np.array([1e308, -1e308]).reshape(2, 1, 1, 1))

        def untrained(config, data, train_labels, val_labels):
            return TrainResult(params=params, history=(), status="ok")

        monkeypatch.setattr(stepseg.training, "train", untrained)
        (record,) = sweep(tiny_config(), [0.0], [1], dataset).records
        assert record.status == "diverged"
        assert all(map(math.isnan, (record.train_loss, record.val_miou,
                                    record.test_miou)))

    def test_empty_val_rejected_before_any_cell(self, monkeypatch):
        # alpha* is chosen by validation mIoU, so no cell may run without it
        def no_cell(*args):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr(stepseg.training, "_run_one", no_cell)
        dataset = replace(make_dataset(),
                          val=SelectionSet(rows=[], cols=[], classes=[]))
        with pytest.raises(ValueError, match="validation labels"):
            sweep(tiny_config(), [0.0], [1], dataset)

    def test_truth_class_the_labels_miss_rejected_before_any_cell(
            self, monkeypatch):
        # each cell's test mIoU scores the truth with a model of the labels'
        # classes 0-1, which cannot place a truth class 2
        def no_cell(*args):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr(stepseg.training, "_run_one", no_cell)
        dataset = make_dataset()
        values = dataset.truth.values.copy()
        values[0, 0] = 2
        with pytest.raises(ValueError) as info:
            sweep(tiny_config(), [0.0], [1],
                  replace(dataset, truth=ClassMap(values=values)))
        assert str(info.value) == ("holds class 2, but the labels hold only "
                                   "classes 0-1")

    def test_argmax_skips_diverged_and_breaks_ties_low(self, monkeypatch):
        table = {
            (0.05, 1): ("diverged", 0.99), (0.05, 2): ("diverged", 0.99),
            (0.1, 1): ("ok", 0.5), (0.1, 2): ("ok", 0.5),
            (0.2, 1): ("ok", 0.8), (0.2, 2): ("ok", 0.8),
            (0.3, 1): ("ok", 0.8), (0.3, 2): ("diverged", 0.9),
        }

        def fake_run(config, dataset, alpha, seed):
            status, val = table[(alpha, seed)]
            return SweepRecord(alpha=alpha, seed=seed, train_loss=0.1,
                               val_miou=val, test_miou=0.5, status=status)

        monkeypatch.setattr(stepseg.training, "_run_one", fake_run)
        result = sweep(tiny_config(), [0.05, 0.1, 0.2, 0.3], [1, 2],
                       make_dataset())
        assert result.alpha_star == 0.2
        assert result.summary() == (
            "alpha*=0.2 by median validation mIoU\n"
            "  alpha=0.05 median_val_miou=nan median_test_miou=0.5 diverged=2/2\n"
            "  alpha=0.1 median_val_miou=0.5 median_test_miou=0.5 diverged=0/2\n"
            "  alpha=0.2 median_val_miou=0.8 median_test_miou=0.5 diverged=0/2\n"
            "  alpha=0.3 median_val_miou=0.8 median_test_miou=0.5 diverged=1/2\n")

    def test_all_diverged_leaves_alpha_star_undefined(self, monkeypatch):
        # seed 2's last finite parameters still score; seed 1's do not
        def fake_run(config, dataset, alpha, seed):
            test = float("nan") if seed == 1 else 0.25
            return SweepRecord(alpha=alpha, seed=seed, train_loss=float("nan"),
                               val_miou=float("nan"), test_miou=test,
                               status="diverged")

        monkeypatch.setattr(stepseg.training, "_run_one", fake_run)
        result = sweep(tiny_config(), [1.0], [1, 2], make_dataset())
        assert result.alpha_star is None
        assert result.summary() == (
            "no run finished; alpha* undefined\n"
            "  alpha=1.0 median_val_miou=nan median_test_miou=0.25 "
            "diverged=2/2\n")

    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch):
        # a stand-in executor records max_workers, the start method, the
        # BLAS thread count its workers would inherit and the band thread
        # count its initializer gives them, and runs the cells inline, so
        # no worker process is ever started
        started = []

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer,
                         initargs):
                assert initializer is stepseg.tensor_ops._band_threads
                started.append((max_workers, mp_context.get_start_method(),
                                os.environ.get("OPENBLAS_NUM_THREADS"),
                                *initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def fake_run(config, dataset, alpha, seed):
            return SweepRecord(alpha=alpha, seed=seed, train_loss=0.1,
                               val_miou=0.5, test_miou=0.5, status="ok")

        monkeypatch.setattr(stepseg.training, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(stepseg.training, "_run_one", fake_run)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        # the host's CPU count, which the sweep must not read: only the
        # affinity set, tensor_ops._THREADS, bounds and splits the workers
        host = [4]
        dataset = make_dataset()
        monkeypatch.setattr(os, "cpu_count", lambda: host[0])
        cases = [  # (jobs, alphas, seeds, affinity, host) -> (workers, threads)
            ((1000, [0.0, 0.1, 0.2], [1], 4, 4), (3, "1")),
            ((1000, [0.0, 0.1, 0.2], [1, 2], 4, 4), (4, "1")),
            ((2, [0.0, 0.1, 0.2], [1, 2], 4, 4), (2, "2")),
            ((3, [0.0, 0.1, 0.2], [1, 2], 8, 8), (3, "2")),
            ((1000, [0.0, 0.1], [1, 2], 2, None), (2, "1")),
            ((1, [0.0, 0.1], [1, 2], 4, 4), None),
            ((1000, [0.0], [1], 4, 4), None),
            # an affinity set smaller than the host
            ((1000, [0.0, 0.1], [1, 2], 1, 4), None),
            ((3, [0.0, 0.1, 0.2], [1, 2], 2, 8), (2, "1")),
        ]
        for (jobs, alphas, seeds, affinity, host_cpus), want in cases:
            started.clear()
            monkeypatch.setattr(stepseg.tensor_ops, "_THREADS", affinity)
            host[0] = host_cpus
            result = sweep(tiny_config(), alphas, seeds, dataset, jobs=jobs)
            assert started == ([] if want is None else
                               [(want[0], "spawn", want[1], int(want[1]))])
            assert len(result.records) == len(alphas) * len(seeds)
            assert "OPENBLAS_NUM_THREADS" not in os.environ
        # a thread count the caller set is passed on as it is, and kept
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setattr(stepseg.tensor_ops, "_THREADS", 4)
        started.clear()
        sweep(tiny_config(), [0.0, 0.1], [1], dataset, jobs=2)
        assert started == [(2, "spawn", "3", 2)]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        # the initializer sets the worker's band thread count
        monkeypatch.setattr(stepseg.tensor_ops, "_THREADS", 1)
        stepseg.tensor_ops._band_threads(3)
        assert stepseg.tensor_ops._THREADS == 3

    def test_parallel_equals_sequential(self):
        cfg = tiny_config(iterations=2)
        dataset = make_dataset()
        seq = sweep(cfg, [0.0, 0.001], [1, 2], dataset, jobs=1)
        par = sweep(cfg, [0.0, 0.001], [1, 2], dataset, jobs=2)
        for a, b in zip(seq.records, par.records):
            assert (a.alpha, a.seed, a.train_loss, a.val_miou,
                    a.test_miou, a.status) == \
                (b.alpha, b.seed, b.train_loss, b.val_miou,
                 b.test_miou, b.status)
        assert seq.alpha_star == par.alpha_star


class TestSweepCsv:
    def test_exact_layout(self):
        records = (
            SweepRecord(alpha=0.001, seed=2, train_loss=0.25, val_miou=0.75,
                        test_miou=0.5, status="ok"),
            SweepRecord(alpha=0.0, seed=1, train_loss=0.5, val_miou=0.875,
                        test_miou=0.625, status="ok"),
        )
        assert sweep_csv(records) == (
            "alpha,seed,train_loss,val_miou,test_miou,status\n"
            "0.0,1,0.5,0.875,0.625,ok\n"
            "0.001,2,0.25,0.75,0.5,ok\n"
        )

    def test_floats_survive_repr_roundtrip(self):
        records = (SweepRecord(alpha=1e-3, seed=1, train_loss=1 / 3,
                               val_miou=2 / 3, test_miou=0.1, status="ok"),)
        line = sweep_csv(records).splitlines()[1]
        alpha, _, train_loss, val_miou, test_miou, _ = line.split(",")
        assert float(alpha) == 1e-3
        assert float(train_loss) == 1 / 3
        assert float(val_miou) == 2 / 3
        assert float(test_miou) == 0.1

    def test_csv_text_cell_rule(self):
        assert csv_text(("a", "b", "c", "d"), [(0.1, None, 3, "ok"),
                                               (1 / 3, 2.0, None, None)]) == (
            "a,b,c,d\n0.1,,3,ok\n0.3333333333333333,2.0,,\n")
