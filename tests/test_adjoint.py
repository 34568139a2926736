"""Multiplier recursion, parameter gradients, and the finite-difference check."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepseg.adjoint
import stepseg.network
import stepseg.regularizer
import stepseg.tensor_ops
from stepseg.adjoint import (
    AdjointState,
    GradientBundle,
    backward,
    gradcheck,
    gradient,
    objective_value,
    terminal_multiplier,
)
from stepseg.losses import softmax_xent_matrix
from stepseg.network import (
    NetworkParams,
    SelectionSet,
    forward,
    scatter_into,
    select_matrix,
)
from stepseg.synth import LabelBudget, SceneSpec, gen_scene, sample_labels
from stepseg.tensor_ops import (
    activate,
    activate_deriv,
    conv2d,
    conv2d_adjoint_input,
    conv2d_adjoint_weights,
)
from stepseg.training import init_params

from oracles import central_fd, inner


def small_instance(seed, bands=2, width=3, num_classes=2, steps=2, ksize=3,
                   height=6, width_px=5, n_labels=6, scale=0.4,
                   activation="tanh", h=1.0):
    rng = np.random.default_rng(seed)
    params = NetworkParams(
        lift=scale * rng.standard_normal((width, bands, 1, 1)),
        layers=tuple(scale * rng.standard_normal((width, width, ksize, ksize))
                     for _ in range(steps)),
        project=scale * rng.standard_normal((num_classes, width, 1, 1)),
        h=h,
        activation=activation,
    )
    data = rng.standard_normal((bands, height, width_px))
    flat = rng.permutation(height * width_px)[:n_labels]
    q = SelectionSet(rows=flat // width_px, cols=flat % width_px,
                     classes=rng.integers(0, num_classes, size=n_labels))
    return params, data, q


def bundle_stacks(bundle):
    return [bundle.lift, *bundle.layers, bundle.project]


class TestTerminalMultiplier:
    def test_empty_selection_zero_alpha(self):
        params, data, _ = small_instance(0)
        trace = forward(params, data)
        empty = SelectionSet(rows=[], cols=[], classes=[])
        terminal = terminal_multiplier(trace, empty, alpha=0.0)
        assert terminal.loss == 0.0
        np.testing.assert_array_equal(terminal.output_cotangent,
                                      np.zeros_like(trace.output))
        np.testing.assert_array_equal(terminal.multiplier,
                                      np.zeros_like(trace.states[-1]))

    def test_loss_cotangent_lives_on_labeled_pixels_only(self):
        params, data, _ = small_instance(1)
        trace = forward(params, data)
        q = SelectionSet(rows=[2], cols=[3], classes=[1])
        terminal = terminal_multiplier(trace, q, alpha=0.0)
        support = np.any(terminal.output_cotangent != 0.0, axis=0)
        assert support[2, 3]
        assert support.sum() == 1
        _, grad = softmax_xent_matrix(trace.output[:, 2:3, 3], np.array([1]))
        np.testing.assert_allclose(terminal.output_cotangent[:, 2, 3],
                                   grad[:, 0], rtol=0, atol=1e-15)

    def test_multiplier_is_project_transpose_of_cotangent(self):
        params, data, q = small_instance(2)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.7)
        # project is 1x1, so p_n is a plain channel mix by project^T.
        want = np.einsum("kc,khw->chw", params.project[:, :, 0, 0],
                         terminal.output_cotangent)
        np.testing.assert_allclose(terminal.multiplier, want,
                                   rtol=0, atol=1e-12)

    def test_alpha_zero_matches_reg_free_cotangent(self):
        params, data, q = small_instance(3)
        trace = forward(params, data)
        a = terminal_multiplier(trace, q, alpha=0.0)
        _, loss_grad = softmax_xent_matrix(select_matrix(trace.output, q),
                                           q.classes)
        loss_only = np.zeros_like(trace.output)
        scatter_into(loss_only, q, loss_grad)
        np.testing.assert_array_equal(a.output_cotangent, loss_only)

    def test_reg_value_reported_even_when_alpha_zero(self):
        params, data, q = small_instance(4)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.0)
        assert terminal.reg_value == stepseg.regularizer.smoother_value(
            trace.output)


class TestBackward:
    def test_zero_terminal_gives_zero_gradients(self):
        params, data, _ = small_instance(6)
        trace = forward(params, data)
        terminal = AdjointState(
            multiplier=np.zeros_like(trace.states[-1]),
            output_cotangent=np.zeros_like(trace.output),
            loss=0.0, reg_value=0.0, alpha=0.0)
        bundle = backward(trace, terminal)
        for stack in bundle_stacks(bundle):
            np.testing.assert_array_equal(stack, np.zeros_like(stack))

    def test_multipliers_constant_when_layers_are_zero(self):
        # With K_j = 0 and tanh, f'(0) = 1 but K^T annihilates the update,
        # so every multiplier equals p_n.
        params, data, q = small_instance(7)
        params = NetworkParams(lift=params.lift,
                               layers=tuple(np.zeros_like(k)
                                            for k in params.layers),
                               project=params.project)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.2)
        seen = {}
        backward(trace, terminal,
                 multiplier_hook=lambda j, p: seen.__setitem__(j, p.copy()))
        for j in range(len(params.layers) + 1):
            np.testing.assert_array_equal(seen[j], terminal.multiplier)

    def test_hook_sees_descending_steps_once_each(self):
        params, data, q = small_instance(8, steps=3)
        trace = forward(params, data)
        calls = []
        backward(trace, terminal_multiplier(trace, q, alpha=0.1),
                 multiplier_hook=lambda j, p: calls.append(j))
        assert calls == [3, 2, 1, 0]

    def test_recursion_is_reproducible_from_hooked_multipliers(self):
        # p_{j-1} must equal p_j - h * K_j^T(f'(z_j) * p_j) bitwise, and
        # p_n must equal project^T applied to the output cotangent. This is
        # the stationarity of the underlying Lagrangian in each state.
        params, data, q = small_instance(9, steps=4)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.5)
        # the sweep overwrites each a_j with its weighted cotangent
        activations = [a.copy() for a in trace.activations]
        seen = {}
        backward(trace, terminal,
                 multiplier_hook=lambda j, p: seen.__setitem__(j, p.copy()))
        np.testing.assert_array_equal(
            seen[4], conv2d_adjoint_input(terminal.output_cotangent,
                                          params.project))
        for j in range(4, 0, -1):
            weighted = activate_deriv(activations[j - 1],
                                      params.activation) * seen[j]
            stepped = seen[j] - params.h * conv2d_adjoint_input(
                weighted, params.layers[j - 1])
            np.testing.assert_array_equal(seen[j - 1], stepped)

    def test_backward_keeps_constant_multiplier_storage(self):
        # Only the working multiplier pair may stay alive; earlier ones,
        # p_n included, must be freed as soon as the sweep moves past them.
        params, data, q = small_instance(10, steps=6)
        trace = forward(params, data)
        refs, earlier_alive = [], []

        def hook(j, p):
            earlier_alive.append(sum(1 for r in refs if r() is not None))
            refs.append(weakref.ref(p))

        backward(trace, terminal_multiplier(trace, q, alpha=0.3),
                 multiplier_hook=hook)
        assert earlier_alive == [0] * 7
        gc.collect()
        alive = sum(1 for r in refs if r() is not None)
        assert alive <= 2

    def test_sweep_frees_each_activation_and_checkpoint_after_its_use(self):
        # by hook(j - 1, p) the sweep has spent a_j, whose buffer held the
        # weighted cotangent, and every checkpoint past y_{j-1}; once it
        # returns, nothing the trace held is left
        steps = 10
        params, data, q = small_instance(11, steps=steps, h=0.4)
        trace = forward(params, data)
        refs = {("a", j): weakref.ref(a)
                for j, a in enumerate(trace.activations, start=1)}
        refs.update({("y", j): weakref.ref(y) for j, y in
                     zip(checkpoint_indices(steps), trace.states, strict=True)})
        alive = {}

        def hook(j, p):
            alive[j] = sorted(key for key, ref in refs.items()
                              if ref() is not None)

        backward(trace, terminal_multiplier(trace, q, alpha=0.3),
                 multiplier_hook=hook)
        assert sorted(alive) == list(range(steps + 1))
        assert len(alive[steps]) == len(refs)
        for j in range(steps):
            assert [key for key in alive[j] if key[1] > j] == [], j
        assert [key for key, ref in refs.items() if ref() is not None] == []
        assert trace.activations == () and trace.states == ()

    def test_second_sweep_raises(self):
        # a spent trace must not yield nothing, which would leave every
        # layer gradient None
        params, data, q = small_instance(5, steps=3)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.3)
        backward(trace, terminal)
        with pytest.raises(ValueError, match="trace already swept; run "
                                             "forward again"):
            backward(trace, terminal)
        trace = forward(params, data)
        list(trace.reverse_steps())
        with pytest.raises(ValueError, match="trace already swept"):
            trace.reverse_steps()
        # one step taken spends the trace too
        trace = forward(params, data)
        next(trace.reverse_steps())
        with pytest.raises(ValueError, match="trace already swept"):
            backward(trace, terminal)

    def test_alpha_enters_through_terminal_arrays_only(self):
        # Feeding backward the same terminal arrays with a different alpha
        # scalar must give bitwise-identical parameter gradients: the
        # regularizer touches the recursion through the last state alone.
        params, data, q = small_instance(12)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.25)
        relabeled = AdjointState(multiplier=terminal.multiplier,
                                 output_cotangent=terminal.output_cotangent,
                                 loss=terminal.loss,
                                 reg_value=terminal.reg_value,
                                 alpha=123.0)
        a = backward(trace, terminal)
        # the sweep spent the trace; forward is deterministic
        b = backward(forward(params, data), relabeled)
        for ga, gb in zip(bundle_stacks(a), bundle_stacks(b)):
            np.testing.assert_array_equal(ga, gb)


def checkpoint_indices(n):
    """The states forward keeps: nonzero multiples of k = ceil(sqrt(n)),
    and n; the sweep recomputes y_0 from the input."""
    k = max(1, math.ceil(math.sqrt(n)))
    return sorted(set(range(k, n + 1, k)) | {n})


def full_trace_gradient(params, data, terminal):
    """Every state by the plain recursion, then the multiplier sweep over
    them: the full-trace forward and backward, kept here as the reference.
    Returns the states, the gradient stacks and the hooked (j, p_j)."""
    h, act = params.h, params.activation
    states = [conv2d(data, params.lift)]
    activations = []
    for k in params.layers:
        activations.append(activate(conv2d(states[-1], k), act))
        states.append(states[-1] - h * activations[-1])
    n = len(params.layers)
    p = terminal.multiplier
    hooked = [(n, p)]
    layer_grads = [None] * n
    for j in range(n, 0, -1):
        k = params.layers[j - 1]
        weighted = activate_deriv(activations[j - 1], act) * p
        layer_grads[j - 1] = -h * conv2d_adjoint_weights(
            weighted, states[j - 1], k.shape[2], k.shape[3])
        p = p - h * conv2d_adjoint_input(weighted, k)
        hooked.append((j - 1, p))
    grads = [conv2d_adjoint_weights(p, data, 1, 1), *layer_grads,
             conv2d_adjoint_weights(terminal.output_cotangent, states[n],
                                    1, 1)]
    return states, grads, hooked


class TestCheckpointReplay:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5, 9, 10, 17])
    def test_replay_matches_full_trace_bitwise(self, steps, activation):
        params, data, q = small_instance(30 + steps, steps=steps, h=0.4,
                                         activation=activation)
        trace = forward(params, data)
        terminal = terminal_multiplier(trace, q, alpha=0.3)
        states, grads, hooked = full_trace_gradient(params, data, terminal)

        kept = checkpoint_indices(steps)
        assert len(trace.states) == len(kept)
        for got, j in zip(trace.states, kept):
            np.testing.assert_array_equal(got, states[j])
        activations = trace.activations
        replayed = list(trace.reverse_steps())
        assert [j for j, _, _ in replayed] == list(range(steps, 0, -1))
        for j, y_prev, a in replayed:
            np.testing.assert_array_equal(y_prev, states[j - 1])
            assert a is activations[j - 1]

        # the replay spent the trace; forward is deterministic
        seen = []
        bundle = backward(forward(params, data), terminal,
                          multiplier_hook=lambda j, p: seen.append(
                              (j, p.copy())))
        for got, want in zip(bundle_stacks(bundle), grads, strict=True):
            np.testing.assert_array_equal(got, want)
        assert [j for j, _ in seen] == [j for j, _ in hooked]
        for (_, got), (_, want) in zip(seen, hooked):
            np.testing.assert_array_equal(got, want)

    def test_multi_band_backward_keeps_multiplier_bits(self, monkeypatch):
        # each step gathers the weighted cotangent once for both adjoints;
        # its input half is conv2d_adjoint_input's GEMM on the same bands,
        # so p_n ... p_0 are bitwise the two-call recursion's
        monkeypatch.setattr(stepseg.tensor_ops, "_BAND_BYTES", 4000)
        params, data, q = small_instance(60, steps=5, height=12, width_px=7,
                                         h=0.4)
        trace = forward(params, data)
        assert len(list(stepseg.tensor_ops._patch_bands(
            trace.states[0], 3, 3))) == 6
        terminal = terminal_multiplier(trace, q, alpha=0.3)
        _, grads, hooked = full_trace_gradient(params, data, terminal)
        seen = []
        bundle = backward(trace, terminal,
                          multiplier_hook=lambda j, p: seen.append(
                              (j, p.copy())))
        assert [j for j, _ in seen] == [j for j, _ in hooked]
        for (_, got), (_, want) in zip(seen, hooked):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(bundle_stacks(bundle), grads, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_activate_runs_only_in_forward(self, monkeypatch, activation):
        # forward evaluates f once per step; the replay reads y_j from a_j
        # and f' is read from a_j, so backward evaluates no activation
        params, data, q = small_instance(50, steps=10, activation=activation)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return activate(*args, **kwargs)

        monkeypatch.setattr(stepseg.network, "activate", counted)
        monkeypatch.setattr(stepseg.tensor_ops, "activate", counted)
        trace = forward(params, data)
        assert calls == [activation] * 10
        terminal = terminal_multiplier(trace, q, alpha=0.3)
        calls.clear()
        bundle = backward(trace, terminal)
        assert calls == []
        assert len(bundle.layers) == 10

    def test_gradient_peak_memory_follows_checkpoint_rule(self):
        # One gradient may hold, in whole (width, H, W) fields: the n
        # activations, the checkpointed states, one replayed segment of
        # k - 1 states, a working set of 4 (p_j, the adjoint convolution's
        # output that becomes p_{j-1}, the zero-bordered slab a convolution
        # gathers its band from, and the small output-sized arrays), and a
        # convolution's band of kh * kw fields (a 32x32 field at width 8 is
        # one band). The weighted cotangent f'(z_j) * p_j is formed in a_j's
        # own buffer, so it is counted among the activations. p_n is not
        # counted: backward frees it after the first step. y_n is counted,
        # though the sweep drops it when its first segment starts; y_0 is
        # not kept, and its recomputation in the last segment comes after
        # the segments above it are freed. Here that is 36 fields; the
        # measured peak is about 34.9. A full trace of n + 1 states exceeds
        # this by about 11 fields.
        steps, width, bands = 16, 8, 3
        params, data, q = small_instance(41, bands=bands, width=width,
                                         steps=steps, height=32,
                                         width_px=32, scale=0.2, h=0.5)
        k = max(1, math.ceil(math.sqrt(steps)))
        fields = (steps + len(checkpoint_indices(steps)) + (k - 1) + 4
                  + 3 * 3)
        bound = fields * width * 32 * 32 * 8
        tracemalloc.start()
        try:
            gradient(params, data, q, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak / (width * 32 * 32 * 8), fields)

    def test_sweep_peak_stays_near_the_forward_peak(self, monkeypatch):
        # at n = 10, with the ten bands of each 3x3 convolution dealt across
        # two threads, each with its own band buffer and slab, the forward
        # pass peaks at 15.27 fields of (width, H, W) and a gradient at
        # 17.62 (14.14 and 16.42 at one thread). A sweep that held the whole
        # trace to its end, and a new field per weighted cotangent, peaked
        # at about 22 here; a trace that kept y_0 added one field to both.
        monkeypatch.setattr(stepseg.tensor_ops, "_THREADS", 2)
        size, width = 64, 32
        params = init_params(bands=3, num_classes=2, width=width, steps=10,
                             activation="tanh", h=1.0, seed=0)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, size, size))
        flat = rng.permutation(size * size)[:100]
        q = SelectionSet(rows=flat // size, cols=flat % size,
                         classes=rng.integers(0, 2, size=100))
        field = width * size * size * 8
        peaks = {}
        for name, run in (("forward", lambda: forward(params, data)),
                          ("gradient", lambda: gradient(params, data, q, 1e-3))):
            tracemalloc.start()
            try:
                run()
                _, peaks[name] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks["forward"] <= 16 * field, peaks["forward"] / field
        assert peaks["gradient"] <= 18 * field, peaks["gradient"] / field


class TestGradientAgainstFiniteDifferences:
    def objective_fn(self, params, data, q, alpha):
        def with_lift(lift):
            p = NetworkParams(lift=lift, layers=params.layers,
                              project=params.project, h=params.h,
                              activation=params.activation)
            return objective_value(p, data, q, alpha)

        def with_layer(j):
            def fn(k):
                layers = list(params.layers)
                layers[j] = k
                p = NetworkParams(lift=params.lift, layers=tuple(layers),
                                  project=params.project, h=params.h,
                                  activation=params.activation)
                return objective_value(p, data, q, alpha)
            return fn

        def with_project(project):
            p = NetworkParams(lift=params.lift, layers=params.layers,
                              project=project, h=params.h,
                              activation=params.activation)
            return objective_value(p, data, q, alpha)

        return with_lift, with_layer, with_project

    def assert_full_fd_match(self, params, data, q, alpha, step, tol):
        bundle = gradient(params, data, q, alpha)
        with_lift, with_layer, with_project = self.objective_fn(
            params, data, q, alpha)
        checks = [(bundle.lift, central_fd(with_lift, params.lift, step))]
        for j, k in enumerate(params.layers):
            checks.append((bundle.layers[j], central_fd(with_layer(j), k, step)))
        checks.append((bundle.project,
                       central_fd(with_project, params.project, step)))
        for analytic, fd in checks:
            err = np.abs(analytic - fd) / (np.abs(fd) + 1e-12)
            assert np.max(err) < tol

    def test_full_fd_tanh_with_regularizer(self):
        params, data, q = small_instance(13, width=2, steps=2, height=5,
                                         width_px=4)
        self.assert_full_fd_match(params, data, q, alpha=0.37,
                                  step=1e-6, tol=1e-6)

    def test_full_fd_tanh_loss_only(self):
        params, data, q = small_instance(14, width=2, steps=2, height=5,
                                         width_px=4)
        self.assert_full_fd_match(params, data, q, alpha=0.0,
                                  step=1e-6, tol=1e-6)

    def test_full_fd_regularizer_only(self):
        params, data, _ = small_instance(15, width=2, steps=2, height=5,
                                         width_px=4)
        empty = SelectionSet(rows=[], cols=[], classes=[])
        self.assert_full_fd_match(params, data, empty, alpha=1.0,
                                  step=1e-6, tol=1e-6)

    def test_full_fd_relu_away_from_kink(self):
        params, data, q = small_instance(16, width=2, steps=2, height=5,
                                         width_px=4, activation="relu")
        trace = forward(params, data)
        # the activations hide negative z_j, so recompute z_j = K_j y_{j-1}
        margin = min(
            float(np.min(np.abs(conv2d(y_prev, params.layers[j - 1]))))
            for j, y_prev, _ in trace.reverse_steps())
        assert margin > 1e-4, "fixture drifted onto the relu kink"
        self.assert_full_fd_match(params, data, q, alpha=0.2,
                                  step=1e-7, tol=1e-5)

    def test_objective_matches_bundle_decomposition(self):
        params, data, q = small_instance(17)
        for alpha in (0.0, 0.6, 4.0):
            bundle = gradient(params, data, q, alpha)
            direct = objective_value(params, data, q, alpha)
            assert abs(bundle.objective - direct) < 1e-12
            assert abs(bundle.objective
                       - (bundle.loss + alpha * bundle.regularizer)) < 1e-12


class TestAlphaAffinity:
    def test_gradient_is_affine_in_alpha(self):
        params, data, q = small_instance(18)
        g0 = gradient(params, data, q, 0.0)
        g1 = gradient(params, data, q, 1.0)
        for alpha in (0.25, 3.7, 10.0):
            ga = gradient(params, data, q, alpha)
            for got, base, unit in zip(bundle_stacks(ga), bundle_stacks(g0),
                                       bundle_stacks(g1)):
                want = base + alpha * (unit - base)
                scale = np.max(np.abs(want)) + 1e-12
                assert np.max(np.abs(got - want)) / scale < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_affinity_property(self, alpha):
        params, data, q = small_instance(19, width=2, steps=1,
                                         height=4, width_px=4)
        g0 = gradient(params, data, q, 0.0)
        g1 = gradient(params, data, q, 1.0)
        ga = gradient(params, data, q, alpha)
        for got, base, unit in zip(bundle_stacks(ga), bundle_stacks(g0),
                                   bundle_stacks(g1)):
            want = base + alpha * (unit - base)
            scale = np.max(np.abs(want)) + 1e-12
            assert np.max(np.abs(got - want)) / scale < 1e-9


class TestGradcheck:
    def test_passes_on_correct_gradients(self):
        params, data, q = small_instance(20)
        for alpha in (0.0, 0.5):
            assert gradcheck(params, data, q, alpha, seed=3) < 1e-6

    def test_full_coordinate_sweep(self):
        params, data, q = small_instance(21, width=2, steps=1,
                                         height=4, width_px=4)
        assert gradcheck(params, data, q, 0.5, num_coords=None) < 1e-6

    def test_does_not_mutate_params(self):
        params, data, q = small_instance(22)
        lift_before = params.lift.copy()
        layer_before = params.layers[0].copy()
        gradcheck(params, data, q, 0.5, seed=1)
        np.testing.assert_array_equal(params.lift, lift_before)
        np.testing.assert_array_equal(params.layers[0], layer_before)

    def test_is_deterministic_for_fixed_seed(self):
        params, data, q = small_instance(23)
        assert gradcheck(params, data, q, 0.5, seed=9) == \
            gradcheck(params, data, q, 0.5, seed=9)

    def test_detects_a_wrong_regularizer_gradient(self, monkeypatch):
        # Sanity check on the checker itself: corrupt one ingredient and
        # the reported error must blow past the acceptance threshold.
        params, data, q = small_instance(24)
        true_grad = stepseg.regularizer.smoother_grad
        monkeypatch.setattr(stepseg.regularizer, "smoother_grad",
                            lambda y: 2.0 * true_grad(y))
        assert gradcheck(params, data, q, alpha=0.5, seed=5) > 1e-2

    @pytest.mark.parametrize("stack", ["lift", "layer", "project"])
    def test_checks_every_stack_against_its_own_gradient(self, monkeypatch,
                                                          stack):
        # a check that skipped a stack, or read another stack's gradient,
        # would miss the shifted one
        params, data, q = small_instance(26, width=2, steps=2,
                                         height=4, width_px=4)
        true_gradient = stepseg.adjoint.gradient

        def shifted(*args):
            bundle = true_gradient(*args)
            if stack == "layer":
                return replace(bundle, layers=(bundle.layers[0],
                                               bundle.layers[1] + 1.0))
            return replace(bundle, **{stack: getattr(bundle, stack) + 1.0})

        monkeypatch.setattr(stepseg.adjoint, "gradient", shifted)
        assert gradcheck(params, data, q, 0.5, num_coords=None) > 1e-2

    def test_nonfinite_comparison_fails(self):
        # the CLI's instance: at this alpha J is inf and some gradient
        # entries are not finite; max() would have dropped their NaN errors
        spec = SceneSpec(seed=0, height=8, width=8, channels=3, num_classes=2,
                         blob_count=3, noise_sigma=0.5, signature_scale=1.0)
        data, truth = gen_scene(spec)
        q, _ = sample_labels(truth, LabelBudget(n_train=10, n_val=0, seed=0))
        params = init_params(bands=3, num_classes=2, width=4, steps=2,
                             activation="tanh", h=1.0, seed=0)
        assert math.isnan(gradcheck(params, data, q, 1e306))

    def test_overflowing_loss_fails(self):
        # each labeled pixel's logits are +-1e308, so the loss of a class 1
        # label raises FloatingPointError, which gradcheck counts as NaN
        params = NetworkParams(
            lift=np.full((1, 2, 1, 1), 0.5), layers=(),
            project=np.array([1e308, -1e308]).reshape(2, 1, 1, 1))
        q = SelectionSet(rows=[0, 1], cols=[0, 1], classes=[0, 1])
        assert math.isnan(gradcheck(params, np.ones((2, 3, 3)), q, 0.5))

    def test_threshold_separation(self):
        # The criterion threshold sits well above what correct code
        # produces; assert an order-of-magnitude cushion.
        params, data, q = small_instance(25)
        assert gradcheck(params, data, q, 0.5, seed=7) < 1e-7
