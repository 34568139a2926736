"""Gradient of the training objective by a backward multiplier recursion.

For one labeled scene the objective is

    J = loss(selected output, classes) + alpha * R(output),  output = P y_n

with states y_j defined by the forward recursion y_j = y_{j-1} - h f(K_j y_{j-1}).
The multiplier p_j is dJ/dy_j. It starts from the output cotangent

    g_out = scatter(per-pixel loss gradients) + alpha * grad R(output)
    p_n   = P^T g_out

and runs backward; each step's one gather of the weighted cotangent's
patches yields p_{j-1} and, read at flipped offsets, grad K_j on the fly:

    grad K_j = -h * adjoint_weights(f'(K_j y_{j-1}) * p_j, y_{j-1})
    p_{j-1}  = p_j - h * K_j^T (f'(K_j y_{j-1}) * p_j)
    grad P   = adjoint_weights(g_out, y_n)
    grad L   = adjoint_weights(p_0, data)

Only the current multiplier pair is alive at any point in the sweep;
alpha enters the recursion solely through the terminal cotangent. The
sweep reads y_{j-1} and a_j = f(K_j y_{j-1}) from ForwardTrace.reverse_steps,
which replays the states between the trace's checkpoints, and f' from a_j, so
it recomputes no convolution and no activation. The sweep spends the trace as
reverse_steps says, so it holds less than the trace it started from: at
n = 10, width 32, on a 3-band 64x64 scene, tracemalloc measures a gradient's
peak at 17.49 fields of (width, H, W) and a forward pass's at 15.14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import regularizer
from .losses import softmax_xent_matrix
from .network import (
    ForwardTrace,
    NetworkParams,
    SelectionSet,
    forward,
    scatter_into,
    select_matrix,
)
from .tensor_ops import (activate_deriv, conv2d_adjoint_input,
                         conv2d_adjoint_weights, conv2d_adjoints)


@dataclass(frozen=True)
class AdjointState:
    """Terminal multiplier plus what backward needs to finish the job.

    multiplier is p_n (width channels); output_cotangent is dJ/d(output)
    (num_classes channels), kept for the project-kernel gradient. The
    scalars loss, reg_value (unscaled R), and alpha ride along so the
    gradient bundle can report objective components.
    """

    multiplier: np.ndarray
    output_cotangent: np.ndarray
    loss: float
    reg_value: float
    alpha: float


@dataclass(frozen=True)
class GradientBundle:
    """Parameter gradients mirroring NetworkParams, plus objective parts."""

    lift: np.ndarray
    layers: tuple[np.ndarray, ...]
    project: np.ndarray
    loss: float
    regularizer: float
    alpha: float

    @property
    def objective(self) -> float:
        return self.loss + self.alpha * self.regularizer


def _objective_terms(output: np.ndarray, q: SelectionSet,
                     ) -> tuple[float, Optional[np.ndarray], float]:
    """Loss, its (C, n) gradient (None without labels), and unscaled R."""
    if len(q):
        loss, loss_grad = softmax_xent_matrix(select_matrix(output, q),
                                              q.classes)
    else:
        loss, loss_grad = 0.0, None
    return loss, loss_grad, regularizer.smoother_value(output)


def terminal_multiplier(trace: ForwardTrace, q: SelectionSet,
                        alpha: float) -> AdjointState:
    """Build p_n from the loss gradients at labeled pixels plus alpha * grad R;
    alpha, finite and >= 0, is checked where it is read."""
    g_out = np.zeros_like(trace.output)
    loss, loss_grad, reg_value = _objective_terms(trace.output, q)
    if loss_grad is not None:
        scatter_into(g_out, q, loss_grad)
    if alpha != 0.0:
        g_out += alpha * regularizer.smoother_grad(trace.output)
    p_n = conv2d_adjoint_input(g_out, trace.params.project)
    return AdjointState(multiplier=p_n, output_cotangent=g_out,
                        loss=loss, reg_value=reg_value, alpha=alpha)


def backward(trace: ForwardTrace, terminal: AdjointState,
             multiplier_hook: Optional[Callable[[int, np.ndarray], None]] = None,
             ) -> GradientBundle:
    """Run the multiplier recursion, collecting all parameter gradients.

    The kernels are the ones that produced the trace, and the states come
    from trace.reverse_steps, which spends the trace (see its spend rule):
    a second backward on it raises ValueError. multiplier_hook, if given,
    is called as hook(j, p_j) for j = n down to 0; backward itself keeps
    only the working pair and drops each step's a_j and y_{j-1} before the
    next, so by hook(j - 1, p) a_j and every state past y_{j-1} are gone.
    """
    params = trace.params
    n = len(params.layers)
    h, act = params.h, params.activation
    steps = trace.reverse_steps()
    project_grad = conv2d_adjoint_weights(terminal.output_cotangent,
                                          trace.states[-1], 1, 1)
    p = terminal.multiplier
    loss, reg_value, alpha = terminal.loss, terminal.reg_value, terminal.alpha
    # p_n and the output cotangent are freed once used, unless the caller
    # keeps the terminal state
    del terminal
    if multiplier_hook is not None:
        multiplier_hook(n, p)
    layer_grads: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for j, y_prev, a in steps:
        weighted = activate_deriv(a, act, out=a)
        weighted *= p
        step, grad = conv2d_adjoints(weighted, y_prev, params.layers[j - 1])
        layer_grads[j - 1] = -h * grad
        del weighted, y_prev, a
        step *= h
        p = np.subtract(p, step, out=step)
        if multiplier_hook is not None:
            multiplier_hook(j - 1, p)
    lift_grad = conv2d_adjoint_weights(p, trace.data, 1, 1)
    return GradientBundle(lift=lift_grad, layers=tuple(layer_grads),
                          project=project_grad, loss=loss,
                          regularizer=reg_value, alpha=alpha)


def gradient(params: NetworkParams, data: np.ndarray, q: SelectionSet,
             alpha: float) -> GradientBundle:
    """forward, terminal_multiplier, backward in one call; backward spends
    the trace (see ForwardTrace.reverse_steps)."""
    trace = forward(params, data)
    return backward(trace, terminal_multiplier(trace, q, alpha))


def objective_value(params: NetworkParams, data: np.ndarray, q: SelectionSet,
                    alpha: float) -> float:
    """The scalar J = loss + alpha * R, with no gradient work."""
    loss, _, reg_value = _objective_terms(forward(params, data).output, q)
    return loss + alpha * reg_value


FD_STEP = 1e-5


def gradcheck(params: NetworkParams, data: np.ndarray, q: SelectionSet,
              alpha: float, num_coords: Optional[int] = 60,
              seed: int = 0) -> float:
    """Max relative error of the adjoint gradient against central differences.

    Compares |adjoint - fd| / (|fd| + 1e-12), fd with step FD_STEP, over a
    seeded sample of num_coords parameter coordinates (all if None),
    numbered through lift, layers and project in turn. A non-finite
    comparison makes the result NaN, so the check fails; so does an
    evaluation that raises FloatingPointError, such as a loss that
    overflows.
    """
    work = NetworkParams(lift=params.lift.copy(),
                         layers=tuple(k.copy() for k in params.layers),
                         project=params.project.copy(),
                         h=params.h, activation=params.activation)
    # an overflow shows as a NaN result, so numpy's warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            bundle = gradient(params, data, q, alpha)
            stacks = zip((work.lift, *work.layers, work.project),
                         (bundle.lift, *bundle.layers, bundle.project))
            sites = [(k.reshape(-1), g.reshape(-1), i)
                     for k, g in stacks for i in range(k.size)]
            if num_coords is not None and num_coords < len(sites):
                picks = np.random.default_rng(seed).choice(
                    len(sites), size=num_coords, replace=False)
                sites = [sites[p] for p in picks]
            errors = []
            for flat, grad, i in sites:
                orig = flat[i]
                flat[i] = orig + FD_STEP
                f_plus = objective_value(work, data, q, alpha)
                flat[i] = orig - FD_STEP
                f_minus = objective_value(work, data, q, alpha)
                flat[i] = orig
                fd = (f_plus - f_minus) / (2.0 * FD_STEP)
                errors.append(abs(float(grad[i]) - fd) / (abs(fd) + 1e-12))
        except FloatingPointError:
            return math.nan
    # np.max, unlike max(), carries a NaN through
    return float(np.max(errors, initial=0.0))
