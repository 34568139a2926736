"""Forward recursion, pixel selection, class prediction, parameter files."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepseg.network import (
    ForwardTrace,
    NetworkParams,
    SelectionSet,
    forward,
    load_params,
    predict_classes,
    save_params,
    scatter_into,
    select_matrix,
)
from stepseg import tensor_ops
from stepseg.tensor_ops import activate, conv2d

from oracles import argmax_direct, forward_steps_direct, inner


def replayed_states(trace):
    """y_0..y_n: y_{j-1} for j = n..1 from reverse_steps, then the last
    checkpoint y_n, read before the replay spends the trace."""
    n, last = len(trace.activations), trace.states[-1]
    steps = list(trace.reverse_steps())
    assert [j for j, _, _ in steps] == list(range(n, 0, -1))
    return [y for _, y, _ in reversed(steps)] + [last]


def random_params(rng, bands=3, width=4, num_classes=2, steps=2, ksize=3,
                  scale=0.3, h=1.0, activation="tanh"):
    return NetworkParams(
        lift=scale * rng.standard_normal((width, bands, 1, 1)),
        layers=tuple(scale * rng.standard_normal((width, width, ksize, ksize))
                     for _ in range(steps)),
        project=scale * rng.standard_normal((num_classes, width, 1, 1)),
        h=h,
        activation=activation,
    )


class TestNetworkParams:
    def test_shape_properties(self):
        p = random_params(np.random.default_rng(0), bands=5, width=7,
                          num_classes=3, steps=4)
        assert (p.bands, p.width, p.num_classes) == (5, 7, 3)
        assert len(p.layers) == 4

    def test_lift_must_be_1x1(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="lift"):
            NetworkParams(lift=rng.standard_normal((4, 3, 3, 3)),
                          layers=(rng.standard_normal((4, 4, 3, 3)),),
                          project=rng.standard_normal((2, 4, 1, 1)))

    def test_project_must_be_1x1(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="project"):
            NetworkParams(lift=rng.standard_normal((4, 3, 1, 1)),
                          layers=(rng.standard_normal((4, 4, 3, 3)),),
                          project=rng.standard_normal((2, 4, 3, 3)))

    def test_layer_width_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError) as info:
            NetworkParams(lift=rng.standard_normal((4, 3, 1, 1)),
                          layers=(rng.standard_normal((4, 4, 3, 3)),
                                  rng.standard_normal((5, 4, 3, 3))),
                          project=rng.standard_normal((2, 4, 1, 1)))
        # named as its file is, layer_001.ftf
        assert str(info.value) == ("layer_001 must have shape (4, 4, *, *), "
                                   "got (5, 4, 3, 3)")

    def test_single_class_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="classes"):
            NetworkParams(lift=rng.standard_normal((4, 3, 1, 1)),
                          layers=(),
                          project=rng.standard_normal((1, 4, 1, 1)))


class TestForward:
    def test_trace_contents(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, steps=3)
        data = rng.standard_normal((3, 6, 5))
        trace = forward(params, data)
        assert isinstance(trace, ForwardTrace)
        # k = 2 keeps y_2 and y_3, and the replay recomputes y_0 from
        # data; the accessor gives all four
        assert len(trace.states) == 2
        assert len(trace.activations) == 3
        assert trace.params is params
        assert trace.output.shape == (2, 6, 5)
        states = replayed_states(trace)
        assert len(states) == 4
        for y in states:
            assert y.shape == (4, 6, 5)

    def test_zero_layers_gives_identity_dynamics(self):
        # relu(0) = 0 and tanh(0) = 0, so zero kernels keep y fixed.
        rng = np.random.default_rng(2)
        for act in ("tanh", "relu"):
            params = random_params(rng, steps=3, activation=act)
            params = NetworkParams(lift=params.lift,
                                   layers=tuple(np.zeros_like(k)
                                                for k in params.layers),
                                   project=params.project,
                                   h=params.h, activation=act)
            data = rng.standard_normal((3, 5, 5))
            states = replayed_states(forward(params, data))
            for y in states[1:]:
                np.testing.assert_array_equal(y, states[0])

    def test_zero_step_size_gives_identity_dynamics(self):
        rng = np.random.default_rng(3)
        base = random_params(rng, steps=3)
        params = NetworkParams(lift=base.lift, layers=base.layers,
                               project=base.project, h=0.0,
                               activation=base.activation)
        data = rng.standard_normal((3, 5, 5))
        states = replayed_states(forward(params, data))
        for y in states[1:]:
            np.testing.assert_array_equal(y, states[0])

    def test_matches_stepwise_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            act = "tanh" if seed % 2 == 0 else "relu"
            params = random_params(rng, bands=2, width=3, num_classes=2,
                                   steps=2, h=0.7, activation=act)
            data = rng.standard_normal((2, 5, 4))
            trace = forward(params, data)
            states, out = forward_steps_direct(params.lift, params.layers,
                                               params.project, params.h,
                                               data, act)
            got_states = replayed_states(trace)
            assert len(got_states) == len(states)
            for got, want in zip(got_states, states):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.output, out, rtol=0, atol=1e-12)

    def test_states_satisfy_recursion_bitwise(self):
        # Each state from the accessor is exactly y_{j-1} - h * f(K_j y_{j-1})
        # recomputed with the same operations: the replayed trace is the
        # recursion, not an approximation of it.
        rng = np.random.default_rng(4)
        params = random_params(rng, steps=4)
        trace = forward(params, rng.standard_normal((3, 7, 6)))
        states = replayed_states(trace)
        for j, k in enumerate(params.layers):
            step = params.h * activate(conv2d(states[j], k),
                                       params.activation)
            np.testing.assert_array_equal(states[j + 1], states[j] - step)

    def test_activations_match_recomputation(self):
        # the trace keeps a_j = f(K_j y_{j-1}), bitwise the activation of
        # the preactivation recomputed from the replayed state
        rng = np.random.default_rng(5)
        for act in ("tanh", "relu"):
            params = random_params(rng, steps=3, activation=act)
            trace = forward(params, rng.standard_normal((3, 6, 6)))
            activations = trace.activations
            for j, y_prev, a in trace.reverse_steps():
                assert a is activations[j - 1]
                np.testing.assert_array_equal(
                    a, activate(conv2d(y_prev, params.layers[j - 1]), act))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        data = rng.standard_normal((3, 8, 8))
        a = forward(params, data)
        b = forward(params, data)
        np.testing.assert_array_equal(a.output, b.output)

    def test_band_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, bands=3)
        with pytest.raises(ValueError, match="bands"):
            forward(params, rng.standard_normal((4, 5, 5)))

    # Under the suite's warnings-as-errors, a numpy overflow warning would
    # fail these before forward's own report: forward must not warn.
    def test_overflow_at_lift_is_reported(self):
        params = NetworkParams(lift=np.full((2, 1, 1, 1), 1e200),
                               layers=(),
                               project=np.ones((2, 2, 1, 1)))
        with pytest.raises(FloatingPointError, match="lift"):
            forward(params, np.full((1, 2, 2), 1e200))

    def test_overflow_inside_step_names_the_layer(self):
        # y_0 ~ 1e200 stays finite, then relu(K y_0) overflows in step 0.
        params = NetworkParams(lift=np.full((2, 1, 1, 1), 1e200),
                               layers=(np.full((2, 2, 1, 1), 1e200),),
                               project=np.ones((2, 2, 1, 1)),
                               activation="relu")
        with pytest.raises(FloatingPointError, match="layer 0"):
            forward(params, np.ones((1, 2, 2)))

    def test_overflow_in_a_dealt_band_is_reported(self, monkeypatch):
        # at 64x64 and width 32 each 3x3 layer is ten bands, dealt across
        # two threads; the pool's share runs in a copy of the caller's
        # context, so forward's errstate covers its GEMMs too. A share run
        # outside it would raise numpy's RuntimeWarning, under the suite's
        # warnings-as-errors, in place of forward's report
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        rng = np.random.default_rng(12)
        params = random_params(rng, width=32, steps=2, scale=1e200,
                               activation="relu")
        data = rng.standard_normal((3, 64, 64))
        assert tensor_ops._shares(np.empty((32, 64, 64)), 3, 3) == 2
        with pytest.raises(FloatingPointError,
                           match="nonfinite values after layer 0"):
            forward(params, data)

    @pytest.mark.parametrize("caller", ["default", "raise"])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_leaves_the_numpy_error_state_as_it_was(self, caller, scale):
        # forward silences numpy only for its own stages: the caller's
        # error state is back in force whether it returns or raises
        params = NetworkParams(lift=np.full((2, 1, 1, 1), scale),
                               layers=(np.full((2, 2, 1, 1), scale),),
                               project=np.ones((2, 2, 1, 1)),
                               activation="relu")
        saved = np.seterr(all="raise") if caller == "raise" else np.geterr()
        try:
            before = np.geterr()
            if scale == 1.0:
                forward(params, np.ones((1, 2, 2)))
            else:
                with pytest.raises(FloatingPointError, match="layer 0"):
                    forward(params, np.ones((1, 2, 2)))
            assert np.geterr() == before
        finally:
            np.seterr(**saved)

    def test_perturbation_growth_bounded(self):
        # Smoke test: tanh has slope at most 1, so an input perturbation
        # cannot grow past the product of per-stage l1 operator bounds.
        rng = np.random.default_rng(8)
        params = random_params(rng, steps=3, scale=0.2)
        data = rng.standard_normal((3, 8, 8))
        delta = 1e-3 * rng.standard_normal((3, 8, 8))
        out_a = forward(params, data).output
        out_b = forward(params, data + delta).output
        bound = np.abs(params.lift).sum(axis=(1, 2, 3)).max()
        for k in params.layers:
            bound *= 1.0 + params.h * np.abs(k).sum(axis=(1, 2, 3)).max()
        bound *= np.abs(params.project).sum(axis=(1, 2, 3)).max()
        assert np.max(np.abs(out_b - out_a)) <= bound * np.max(np.abs(delta))


class TestPredictClasses:
    def test_matches_argmax_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            out = rng.standard_normal((4, 6, 5))
            np.testing.assert_array_equal(predict_classes(out),
                                          argmax_direct(out))

    def test_tie_goes_to_lowest_class(self):
        out = np.zeros((3, 2, 2))
        np.testing.assert_array_equal(predict_classes(out),
                                      np.zeros((2, 2), dtype=np.int64))
        out[2] = 1.0
        np.testing.assert_array_equal(predict_classes(out),
                                      np.full((2, 2), 2, dtype=np.int64))

    def test_invariant_to_per_pixel_shifts(self):
        rng = np.random.default_rng(11)
        out = rng.standard_normal((3, 5, 5))
        shifted = out + rng.standard_normal((5, 5))
        np.testing.assert_array_equal(predict_classes(out),
                                      predict_classes(shifted))

    def test_returns_int_grid(self):
        pred = predict_classes(np.random.default_rng(0).standard_normal((2, 3, 3)))
        assert pred.dtype == np.int64
        assert pred.shape == (3, 3)


class TestSelectionSet:
    def test_entries_and_len(self):
        sel = SelectionSet(rows=[0, 2], cols=[1, 3], classes=[1, 0])
        assert len(sel) == 2
        assert sel.entries == [(0, 1, 1), (2, 3, 0)]

    def test_empty_selection_allowed(self):
        sel = SelectionSet(rows=[], cols=[], classes=[])
        assert len(sel) == 0
        assert sel.entries == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            SelectionSet(rows=[0, 1], cols=[0], classes=[0, 1])

    def test_duplicate_pixel_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SelectionSet(rows=[1, 1], cols=[2, 2], classes=[0, 1])

    def test_same_row_different_col_ok(self):
        sel = SelectionSet(rows=[1, 1], cols=[2, 3], classes=[0, 1])
        assert len(sel) == 2

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError, match="class"):
            SelectionSet(rows=[0], cols=[0], classes=[-1])


class TestSelectScatter:
    def test_select_reads_named_pixels(self):
        field = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        sel = SelectionSet(rows=[0, 2], cols=[1, 3], classes=[1, 0])
        mat = select_matrix(field, sel)
        assert mat.shape == (2, 2)
        np.testing.assert_array_equal(mat[:, 0], field[:, 0, 1])
        np.testing.assert_array_equal(mat[:, 1], field[:, 2, 3])

    def test_select_empty(self):
        field = np.zeros((2, 3, 3))
        mat = select_matrix(field, SelectionSet(rows=[], cols=[], classes=[]))
        assert mat.shape == (2, 0)

    def test_select_matrix_columns_match_pairs(self):
        # column i is the channel vector at the i-th (row, col) entry
        rng = np.random.default_rng(12)
        field = rng.standard_normal((3, 5, 5))
        sel = SelectionSet(rows=[4, 0, 2], cols=[4, 0, 1], classes=[0, 1, 2])
        mat = select_matrix(field, sel)
        assert mat.shape == (3, 3)
        for i, (r, c, _) in enumerate(sel.entries):
            np.testing.assert_array_equal(mat[:, i], field[:, r, c])

    def test_out_of_bounds_selection(self):
        field = np.zeros((2, 3, 3))
        for rows, cols in (([3], [0]), ([0], [3]), ([-1], [0])):
            sel = SelectionSet(rows=rows, cols=cols, classes=[0])
            with pytest.raises(IndexError):
                select_matrix(field, sel)

    def test_scatter_is_adjoint_of_select(self):
        # <select_matrix(y), u> == <y, scatter(u)> for every seed.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            field = rng.standard_normal((3, 6, 6))
            sel = SelectionSet(rows=[0, 5, 2, 3], cols=[5, 0, 2, 3],
                               classes=[0, 1, 2, 0])
            u = rng.standard_normal((3, 4))
            target = np.zeros_like(field)
            scatter_into(target, sel, u)
            assert abs(inner(select_matrix(field, sel), u)
                       - inner(field, target)) < 1e-12

    def test_scatter_accumulates_in_place(self):
        field = np.zeros((2, 3, 3))
        sel = SelectionSet(rows=[1], cols=[1], classes=[0])
        scatter_into(field, sel, np.array([[1.0], [2.0]]))
        scatter_into(field, sel, np.array([[0.5], [0.25]]))
        np.testing.assert_array_equal(field[:, 1, 1], [1.5, 2.25])
        assert np.sum(field != 0.0) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_select_scatter_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        field = rng.standard_normal((2, h, w))
        n = int(rng.integers(1, h * w + 1))
        flat = rng.permutation(h * w)[:n]
        sel = SelectionSet(rows=flat // w, cols=flat % w,
                           classes=rng.integers(0, 2, size=n))
        target = np.zeros_like(field)
        scatter_into(target, sel, select_matrix(field, sel))
        # Scattering what select read reproduces the field on the selected
        # pixels and leaves everything else zero.
        np.testing.assert_array_equal(select_matrix(target, sel),
                                      select_matrix(field, sel))
        assert np.sum(target != 0.0) <= 2 * n


class TestSaveLoad:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(13)
        params = random_params(rng, bands=5, width=6, num_classes=3, steps=4,
                               h=0.125, activation="relu")
        save_params(tmp_path / "net", params)
        loaded = load_params(tmp_path / "net")
        np.testing.assert_array_equal(loaded.lift, params.lift)
        assert len(loaded.layers) == 4
        for a, b in zip(loaded.layers, params.layers):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.project, params.project)
        assert loaded.h == params.h
        assert loaded.activation == params.activation

    def test_noninteger_step_size_survives(self, tmp_path):
        rng = np.random.default_rng(14)
        params = random_params(rng, h=0.1)
        save_params(tmp_path / "net", params)
        assert load_params(tmp_path / "net").h == 0.1

    def test_manifest_is_plain_text(self, tmp_path):
        params = random_params(np.random.default_rng(15), bands=3, width=4,
                               num_classes=2, steps=2)
        save_params(tmp_path / "net", params)
        text = (tmp_path / "net" / "manifest.txt").read_text()
        pairs = dict(line.split("=", 1) for line in text.splitlines() if line)
        assert pairs["width"] == "4"
        assert pairs["num_classes"] == "2"
        assert pairs["bands"] == "3"
        assert pairs["n"] == "2"
        assert pairs["activation"] == "tanh"
        assert float(pairs["h"]) == 1.0

    def test_expected_files_exist(self, tmp_path):
        params = random_params(np.random.default_rng(16), steps=2)
        save_params(tmp_path / "net", params)
        names = sorted(p.name for p in (tmp_path / "net").iterdir())
        assert names == ["layer_000.ftf", "layer_001.ftf", "lift.ftf",
                         "manifest.txt", "project.ftf"]

    def test_missing_manifest_key_rejected(self, tmp_path):
        params = random_params(np.random.default_rng(17))
        save_params(tmp_path / "net", params)
        manifest = tmp_path / "net" / "manifest.txt"
        lines = [ln for ln in manifest.read_text().splitlines()
                 if not ln.startswith("activation=")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="activation"):
            load_params(tmp_path / "net")

    def test_unknown_manifest_line_rejected(self, tmp_path):
        save_params(tmp_path / "net", random_params(np.random.default_rng(17)))
        manifest = tmp_path / "net" / "manifest.txt"
        text = manifest.read_text()
        manifest.write_text("# comments and blank lines are fine\n\n" + text)
        assert load_params(tmp_path / "net").width == 4
        for extra in ("depth=3", "width"):
            manifest.write_text(text + extra + "\n")
            with pytest.raises(ValueError) as info:
                load_params(tmp_path / "net")
            assert str(info.value) == (
                f"{manifest}: unknown manifest line {extra!r}")

    @pytest.mark.parametrize("line,message", [
        ("n=-1", "n must be an integer >= 0, got -1"),
        ("bands=0", "bands must be an integer >= 1, got 0"),
        ("width=0", "width must be an integer >= 1, got 0"),
        ("num_classes=-2", "num_classes must be an integer >= 2, got -2"),
        ("n=2.0", "n must be an integer >= 0, got '2.0'"),
        ("width=x", "width must be an integer >= 1, got 'x'"),
        ("h=x", "h must be a finite number, got 'x'"),
        ("h=nan", "h must be a finite number, got nan"),
        ("h=inf", "h must be a finite number, got inf"),
        ("activation=gelu",
         "activation must be one of ('relu', 'tanh'), got 'gelu'"),
        # the last width wins, so the kernel stack is the file at fault
        ("width=5", "lift.ftf: expected 15 kernels, got 12")])
    def test_bad_manifest_count_rejected(self, tmp_path, line, message):
        save_params(tmp_path / "net", random_params(np.random.default_rng(17)))
        manifest = tmp_path / "net" / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(ValueError) as info:
            load_params(tmp_path / "net")
        # the full path of the file at fault, the manifest unless named
        assert str(info.value) in (f"{manifest}: {message}",
                                   f"{manifest.parent}{os.sep}{message}")

    def test_bad_params_name_the_file_at_fault(self, bad_params):
        directory, line = bad_params
        with pytest.raises(ValueError) as info:
            load_params(directory)
        assert str(info.value) == line

    def test_wrong_kernel_count_rejected(self, tmp_path):
        params = random_params(np.random.default_rng(18), width=4)
        save_params(tmp_path / "net", params)
        manifest = tmp_path / "net" / "manifest.txt"
        text = manifest.read_text().replace("width=4", "width=5")
        manifest.write_text(text)
        with pytest.raises(ValueError, match="kernels"):
            load_params(tmp_path / "net")

    def test_loaded_params_run_identically(self, tmp_path):
        rng = np.random.default_rng(19)
        params = random_params(rng)
        data = rng.standard_normal((3, 6, 6))
        save_params(tmp_path / "net", params)
        loaded = load_params(tmp_path / "net")
        np.testing.assert_array_equal(forward(loaded, data).output,
                                      forward(params, data).output)
