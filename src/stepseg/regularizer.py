"""The explicit output regularizer, built from discrete image-gradient operators.

The quadratic smoother penalizes oscillations in a field:

    R(y) = 0.5 * |grad1 y|^2 + 0.5 * |grad2 y|^2     (summed over channels)

where grad1/grad2 are forward differences along rows/columns with the last
difference dropped (so grad of a constant is zero and gradT.grad is the
5-point Neumann Laplacian). Its exact gradient is

    grad R(y) = grad1T(grad1 y) + grad2T(grad2 y).

Its strength alpha is a plain number; alpha = 0 means no regularization.
"""

from __future__ import annotations

import numpy as np


def grad_rows(y: np.ndarray) -> np.ndarray:
    """Vertical forward difference, (C, H, W) -> (C, H-1, W)."""
    return y[:, 1:, :] - y[:, :-1, :]


def grad_cols(y: np.ndarray) -> np.ndarray:
    """Horizontal forward difference, (C, H, W) -> (C, H, W-1)."""
    return y[:, :, 1:] - y[:, :, :-1]


def grad_rows_t(d: np.ndarray, height: int) -> np.ndarray:
    """Transpose of grad_rows, (C, H-1, W) -> (C, H, W)."""
    out = np.zeros((d.shape[0], height, d.shape[2]))
    out[:, 1:, :] += d
    out[:, :-1, :] -= d
    return out


def grad_cols_t(d: np.ndarray, width: int) -> np.ndarray:
    """Transpose of grad_cols, (C, H, W-1) -> (C, H, W)."""
    out = np.zeros((d.shape[0], d.shape[1], width))
    out[:, :, 1:] += d
    out[:, :, :-1] -= d
    return out


def smoother_value(y: np.ndarray) -> float:
    d1 = grad_rows(y)
    d2 = grad_cols(y)
    return 0.5 * float(np.sum(d1 * d1)) + 0.5 * float(np.sum(d2 * d2))


def smoother_grad(y: np.ndarray) -> np.ndarray:
    return (grad_rows_t(grad_rows(y), y.shape[1])
            + grad_cols_t(grad_cols(y), y.shape[2]))
