"""Acceptance gate: the seven headline checks, one verdict line each.

Each test computes its verdict, appends a PASS/FAIL line to the summary
section printed at the end of the run, and then asserts. Session fixtures
share the expensive pieces (the default experiment scene and the two
alpha sweeps, one serial and one on two worker processes).
"""

import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
import stepseg
from stepseg.adjoint import gradcheck, gradient, terminal_multiplier, backward
from stepseg.cli import gradcheck_instance
from stepseg.losses import iou
from stepseg.network import (
    NetworkParams,
    SelectionSet,
    forward,
    select_matrix,
)
from stepseg.regularizer import smoother_grad, smoother_value
from stepseg.synth import LabelBudget, SceneSpec, gen_scene, sample_labels
from stepseg.tensor_ops import activate_deriv, conv2d, conv2d_adjoint_input
from stepseg.training import (
    Dataset,
    TrainConfig,
    init_params,
    save_dataset,
    sweep,
    sweep_csv,
)

from oracles import central_fd, conv2d_direct, iou_direct

# `pytest -m "not acceptance"` skips this module and its two sweeps
pytestmark = pytest.mark.acceptance

SWEEP_ALPHAS = [0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
SWEEP_SEEDS = [1, 2, 3]
# the directory this suite imported stepseg from, e.g. the checkout's src/
IMPORT_ROOT = str(Path(stepseg.__file__).resolve().parents[1])


def record(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {number}: {verdict} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="session")
def experiment_dataset():
    """The default 64x64 scene: 16 bands, 2 classes, 200/50 point labels."""
    data, truth = gen_scene(SceneSpec(seed=1))
    train_sel, val_sel = sample_labels(truth, LabelBudget(200, 50, seed=1))
    return Dataset(data=data, truth=truth, train=train_sel, val=val_sel)


@pytest.fixture(scope="session")
def first_sweep(experiment_dataset):
    started = time.perf_counter()
    result = sweep(TrainConfig(), SWEEP_ALPHAS, SWEEP_SEEDS, experiment_dataset)
    return result, time.perf_counter() - started


@pytest.fixture(scope="session")
def second_sweep(experiment_dataset, tmp_path_factory):
    """sweep.csv and summary.txt of `stepseg sweep --jobs 2` on the same
    scene: a cell's result must not depend on the process that ran it. The
    child inherits this process's affinity set of CPUs = tensor_ops._THREADS
    and starts min(2, CPUs) workers; with one CPU it runs serially, and two
    serial sweeps are compared. It pins one BLAS thread, which its spawned
    workers inherit, and each worker deals its convolutions' bands across
    CPUs // 2 threads (one on a 2-CPU host), while the serial sweep deals
    them across all CPUs, so the thread count must move no bit."""
    root = tmp_path_factory.mktemp("second_sweep")
    save_dataset(root / "scene", experiment_dataset)
    (root / "empty.cfg").write_text("")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (IMPORT_ROOT, env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-m", "stepseg", "sweep", "--jobs", "2",
         "--config", str(root / "empty.cfg"), "--data", str(root / "scene"),
         "--alphas", ",".join(map(repr, SWEEP_ALPHAS)),
         "--seeds", ",".join(map(str, SWEEP_SEEDS)), "--out", str(root / "out")],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return ((root / "out" / "sweep.csv").read_bytes(),
            (root / "out" / "summary.txt").read_bytes())


def test_criterion_1_adjoint_matches_finite_differences():
    # Tanh, 2 layers, width 4, 8x8 scene, >= 50 coordinates, alpha 0 and 0.5.
    started = time.perf_counter()
    params, data, labels = gradcheck_instance(seed=0)
    errs = {alpha: gradcheck(params, data, labels, alpha=alpha,
                             num_coords=60, seed=0)
            for alpha in (0.0, 0.5)}
    elapsed = time.perf_counter() - started
    worst = max(errs.values())
    ok = worst < 1e-6 and elapsed < 30.0
    record(1, ok, f"gradcheck max rel err {worst:.2e} < 1e-6 over 60 coords, "
                  f"alpha 0/0.5, {elapsed:.1f} s < 30 s")


def test_criterion_2_assembled_state_gradient_is_zero(experiment_dataset):
    # With the computed multipliers, the assembled gradient of the training
    # Lagrangian with respect to every interior state must vanish exactly:
    # p_{j-1} - (p_j - h K_j^T(f'(z_j) * p_j)) == 0 bitwise, and at the top
    # p_n == project^T(output cotangent).
    params = init_params(bands=16, num_classes=2, width=32, steps=10,
                         activation="tanh", h=1.0, seed=0)
    data = experiment_dataset.data
    trace = forward(params, data)
    terminal = terminal_multiplier(trace, experiment_dataset.train,
                                   alpha=1e-3)
    # the sweep overwrites each a_j with its weighted cotangent
    activations = [a.copy() for a in trace.activations]
    seen = {}
    backward(trace, terminal,
             multiplier_hook=lambda j, p: seen.__setitem__(j, p.copy()))
    top = conv2d_adjoint_input(terminal.output_cotangent, params.project)
    residual = 0.0 if np.array_equal(seen[10], top) else float(
        np.max(np.abs(seen[10] - top)))
    for j in range(10, 0, -1):
        weighted = activate_deriv(activations[j - 1],
                                  params.activation) * seen[j]
        stepped = seen[j] - params.h * conv2d_adjoint_input(
            weighted, params.layers[j - 1])
        if not np.array_equal(seen[j - 1], stepped):
            residual = max(residual, float(np.max(np.abs(seen[j - 1]
                                                         - stepped))))
    ok = residual == 0.0
    record(2, ok, f"state-gradient residual {residual!r} over 10 steps at "
                  f"width 32 on the 64x64 scene (exactly zero required)")


def test_criterion_3_smoother_gradient_and_ramp():
    # Central FD at step 1e-6; the value is quadratic so the only FD error
    # is roundoff, measured relative to the gradient's magnitude.
    worst = 0.0
    for seed in range(100):
        y = np.random.default_rng(seed).standard_normal((1, 5, 5))
        analytic = smoother_grad(y)
        fd = central_fd(lambda f: smoother_value(f), y, 1e-6)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    ramp_ok = True
    for height, width in ((4, 4), (64, 64)):
        ramp = np.broadcast_to(np.arange(height, dtype=np.float64)[:, None],
                               (height, width))[None].copy()
        ramp_ok &= smoother_value(ramp) == 0.5 * (height - 1) * width
    ok = worst < 1e-8 and ramp_ok
    record(3, ok, f"smoother grad vs FD max rel err {worst:.2e} < 1e-8 on "
                  f"100 seeded 5x5 fields; ramp value equals (H-1)W/2 "
                  f"exactly: {ramp_ok}")


def test_criterion_4_gradient_affine_in_alpha(experiment_dataset):
    params = init_params(bands=16, num_classes=2, width=32, steps=10,
                         activation="tanh", h=1.0, seed=3)
    data = experiment_dataset.data
    q = experiment_dataset.train
    g0 = gradient(params, data, q, 0.0)
    g1 = gradient(params, data, q, 1.0)
    worst = 0.0
    for alpha in SWEEP_ALPHAS[1:]:
        ga = gradient(params, data, q, alpha)
        for got, base, unit in zip(
                (ga.lift, *ga.layers, ga.project),
                (g0.lift, *g0.layers, g0.project),
                (g1.lift, *g1.layers, g1.project)):
            want = base + alpha * (unit - base)
            scale = float(np.max(np.abs(want))) + 1e-12
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    ok = worst < 1e-10
    record(4, ok, f"g(alpha) vs g(0) + alpha*(g(1)-g(0)) max rel dev "
                  f"{worst:.2e} < 1e-10 over the sweep grid")


def _median_test_miou(records, alpha):
    return statistics.median([r.test_miou for r in records
                              if r.alpha == alpha])


def test_criterion_5_regularized_sweep_rises_then_falls(first_sweep):
    result, elapsed = first_sweep
    alpha_star = result.alpha_star
    ok = alpha_star is not None
    detail = "no run finished"
    if ok:
        at_star = _median_test_miou(result.records, alpha_star)
        at_zero = _median_test_miou(result.records, 0.0)
        at_largest = _median_test_miou(result.records, max(SWEEP_ALPHAS))
        ok = (alpha_star != 0.0
              and at_star > at_zero + 0.03
              and at_star > at_largest
              and elapsed < 900.0)
        n_div = sum(1 for r in result.records if r.status != "ok")
        detail = (f"alpha*={alpha_star!r}; median test mIoU {at_star:.4f} "
                  f"vs {at_zero:.4f} at alpha=0 (margin "
                  f"{at_star - at_zero:+.4f} >= 0.03) and {at_largest:.4f} "
                  f"at alpha=10; {n_div}/18 runs diverged (recorded); "
                  f"{elapsed:.0f} s < 900 s")
    record(5, ok, detail)


def test_criterion_6_sweep_is_bitwise_deterministic(first_sweep, second_sweep):
    result, _ = first_sweep
    serial = (sweep_csv(result.records).encode(), result.summary().encode())
    ok = second_sweep == serial
    # two logs from one machine show whether a change kept these bytes
    sha = [hashlib.sha256(text).hexdigest()[:16] for text in serial]
    # the workers `--jobs 2` could start: one means it ran serially too
    workers = min(2, stepseg.tensor_ops._THREADS)
    record(6, ok, ("a serial sweep and `stepseg sweep --jobs 2` wrote "
                   "byte-identical sweep.csv and summary.txt" if ok
                   else "sweep.csv or summary.txt differ between runs")
           + f"; --jobs 2 worker processes {workers}"
           + f"; serial sha256 sweep.csv {sha[0]} summary.txt {sha[1]}")


def test_criterion_7_oracle_equivalence():
    # Convolution: integer fixture exactly, seeded float cases to 1e-12.
    conv_exact = True
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    k = np.ones((1, 1, 3, 3))
    conv_exact &= np.array_equal(conv2d(x, k), conv2d_direct(x, k))
    conv_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        xf = rng.standard_normal((3, 6, 5))
        kf = rng.standard_normal((2, 3, 3, 3))
        conv_worst = max(conv_worst, float(np.max(np.abs(
            conv2d(xf, kf) - conv2d_direct(xf, kf)))))

    # Selection: pure indexing, exact in both integer and float cases.
    sel_exact = True
    field = np.arange(2 * 4 * 5, dtype=np.float64).reshape(2, 4, 5)
    sel = SelectionSet(rows=[0, 3, 2], cols=[4, 0, 2], classes=[1, 0, 1])
    direct = np.stack([field[:, r, c] for r, c, _ in sel.entries], axis=1)
    sel_exact &= np.array_equal(select_matrix(field, sel), direct)
    rng = np.random.default_rng(42)
    ff = rng.standard_normal((3, 7, 7))
    directf = np.stack([ff[:, r, c] for r, c, _ in sel.entries], axis=1)
    sel_exact &= np.array_equal(select_matrix(ff, sel), directf)

    # mIoU: exhaustive counting oracle, counts exact, means to 1e-12.
    iou_ok = True
    iou_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, size=(8, 8))
        truth = rng.integers(-1, 3, size=(8, 8))
        report = iou(pred, truth, num_classes=3)
        want_counts, want_miou = iou_direct(pred, truth, 3)
        for cls in report.per_class:
            iou_ok &= (cls.intersection, cls.union) == want_counts[cls.class_id]
        iou_worst = max(iou_worst, abs(report.miou - want_miou))

    ok = (conv_exact and conv_worst < 1e-12 and sel_exact
          and iou_ok and iou_worst < 1e-12)
    record(7, ok, f"conv exact on integer fixture and within {conv_worst:.1e} "
                  f"on seeded floats; selection exact; IoU counts exact with "
                  f"mIoU within {iou_worst:.1e}")
