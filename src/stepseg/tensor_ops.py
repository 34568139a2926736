"""Dense tensor primitives: same-size 2-D convolution, its adjoints, activations.

Layout conventions used across the package:

* feature fields are float64 arrays of shape (channels, height, width);
* kernel stacks are float64 arrays of shape (out_channels, in_channels,
  kernel_height, kernel_width) with odd spatial dims;
* convolution is zero-padded cross-correlation, so spatial size is preserved.

All operations are pure functions of their arguments and bitwise
deterministic: the im2col gather has a fixed layout and the contraction is
a single BLAS matmul per call.
"""

from __future__ import annotations

import struct

import numpy as np

FTF_MAGIC = b"FTF1"
_FTF_HEADER = 28  # magic, then three u64 dims


class ShapeMismatchError(ValueError):
    """Operands have incompatible channel counts or kernel shapes."""


def as_field(values) -> np.ndarray:
    """Validate and return a (C, H, W) float64 feature field."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ShapeMismatchError(f"feature field must be (C, H, W), got {arr.shape}")
    return arr


def as_kernel_stack(weights) -> np.ndarray:
    """Validate and return an (O, I, kh, kw) float64 kernel stack."""
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 4 or min(arr.shape) < 1:
        raise ShapeMismatchError(f"kernel stack must be (O, I, kh, kw), got {arr.shape}")
    if arr.shape[2] % 2 == 0 or arr.shape[3] % 2 == 0:
        raise ShapeMismatchError(f"kernel spatial dims must be odd, got {arr.shape[2:]}")
    return arr


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-padded patch matrix of shape (C*kh*kw, H*W), rows ordered (c, a, b)."""
    channels, height, width = x.shape
    if kh == 1 and kw == 1:
        return x.reshape(channels, height * width)
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((channels, height + 2 * ph, width + 2 * pw))
    padded[:, ph:ph + height, pw:pw + width] = x
    cols = np.empty((channels, kh * kw, height, width))
    for a in range(kh):
        for b in range(kw):
            cols[:, a * kw + b] = padded[:, a:a + height, b:b + width]
    return cols.reshape(channels * kh * kw, height * width)


def conv2d(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Same-size zero-padded cross-correlation of a field with a kernel stack."""
    c_out, c_in, kh, kw = k.shape
    if x.shape[0] != c_in:
        raise ShapeMismatchError(
            f"conv2d: input has {x.shape[0]} channels, kernel expects {c_in}")
    height, width = x.shape[1], x.shape[2]
    out = k.reshape(c_out, c_in * kh * kw) @ _im2col(x, kh, kw)
    return out.reshape(c_out, height, width)


def conv2d_adjoint_input(cotangent: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Apply the transpose of conv2d(., k) to a cotangent field.

    Satisfies <conv2d(v, k), u> == <v, conv2d_adjoint_input(u, k)> exactly in
    exact arithmetic; with zero padding and odd kernels this is convolution
    with the channel-swapped, spatially flipped stack.
    """
    if cotangent.shape[0] != k.shape[0]:
        raise ShapeMismatchError(
            f"adjoint input: cotangent has {cotangent.shape[0]} channels, "
            f"kernel produces {k.shape[0]}")
    flipped = np.ascontiguousarray(k[:, :, ::-1, ::-1].swapaxes(0, 1))
    return conv2d(cotangent, flipped)


def conv2d_adjoint_weights(cotangent: np.ndarray, x: np.ndarray,
                           kh: int, kw: int) -> np.ndarray:
    """Gradient of <conv2d(x, k), cotangent> with respect to the kernel stack k."""
    c_out = cotangent.shape[0]
    c_in, height, width = x.shape
    if cotangent.shape[1:] != (height, width):
        raise ShapeMismatchError(
            f"adjoint weights: cotangent spatial {cotangent.shape[1:]} "
            f"!= input spatial {(height, width)}")
    grad = cotangent.reshape(c_out, height * width) @ _im2col(x, kh, kw).T
    return grad.reshape(c_out, c_in, kh, kw)


# Activation registry: kind -> (value, derivative). ReLU' at 0 is defined as 0.
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: (z > 0.0).astype(np.float64)),
    "tanh": (np.tanh,
             lambda z: 1.0 - np.tanh(z) ** 2),
}

ACTIVATION_KINDS = tuple(sorted(_ACTIVATIONS))


def _lookup(kind: str):
    try:
        return _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")


def activate(x: np.ndarray, kind: str) -> np.ndarray:
    return _lookup(kind)[0](x)


def activate_deriv(x: np.ndarray, kind: str) -> np.ndarray:
    return _lookup(kind)[1](x)


def write_ftf(path, field: np.ndarray) -> None:
    """Write a field in the FTF1 format: magic, three u64 LE dims, f64 LE data."""
    field = as_field(field)
    with open(path, "wb") as fh:
        fh.write(FTF_MAGIC)
        fh.write(struct.pack("<QQQ", *field.shape))
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_ftf(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FTF_MAGIC:
        raise ValueError(f"{path}: not an FTF1 file")
    if len(blob) < _FTF_HEADER:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than the "
                         f"{_FTF_HEADER}-byte header")
    channels, height, width = struct.unpack("<QQQ", blob[4:_FTF_HEADER])
    expected = _FTF_HEADER + channels * height * width * 8
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype="<f8", offset=_FTF_HEADER)
    return as_field(data.reshape(channels, height, width).astype(np.float64))
