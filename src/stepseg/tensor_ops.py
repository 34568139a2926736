"""Dense tensor primitives: same-size 2-D convolution, its adjoints, activations.

Layout conventions used across the package:

* feature fields are float64 arrays of shape (channels, height, width);
* kernel stacks are float64 arrays of shape (out_channels, in_channels,
  kernel_height, kernel_width) with odd spatial dims;
* convolution is zero-padded cross-correlation, so spatial size is preserved.

All operations are pure functions of their arguments and bitwise
deterministic. A convolution gathers its patch matrix in bands of whole
output rows, at most _BAND_BYTES each, with one BLAS matmul per band. A
patch matrix that fits one band (64x64 at width 32) gets a single matmul;
with several bands, results may move in the last bits (BLAS column
blocking, and the weight gradient's per-band partial sums). Each call
owns a zero-bordered slab that holds a band's rows of the field plus
their halo and is copied into the band through a sliding-window view;
the band buffer is the one the last gather to finish left in _spare.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# patch-matrix bytes per band, so a band's gather is re-read from cache
_BAND_BYTES = 10 * 2**20
# the band of the last gather to finish, for the next to take: bands made
# and freed per call left heap holes that longer-lived arrays split, so in
# some runs a later band grew the heap, and peak memory, by its whole size
_spare = {}


def _patch_bands(x: np.ndarray, kh: int, kw: int):
    """Yield (start, stop, cols) per band of whole output rows: pixels start:stop
    and their zero-padded (C*kh*kw, stop - start) patch matrix, rows ordered
    (c, a, b). Every band is gathered into one buffer that this gather
    holds until it ends, so cols is valid only until its next band."""
    channels, height, width = x.shape
    if kh == 1 and kw == 1:
        yield 0, height * width, x.reshape(channels, height * width)
        return
    ph, pw = kh // 2, kw // 2
    rows = max(1, min(height, _BAND_BYTES // (channels * kh * kw * width * 8)))
    band = _spare.pop("band", np.empty(0))  # taken, so no two gathers share it
    if band.size < (size := channels * kh * kw * rows * width):
        band = np.empty(size)
    # slab row i holds field row r0 - ph + i; its border columns stay zero
    slab = np.zeros((channels, rows + 2 * ph, width + 2 * pw))
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        top, bottom = max(0, ph - r0), min(r1 + ph, height) - r0 + ph
        slab[:, :top] = 0.0
        slab[:, top:bottom, pw:pw + width] = x[:, r0 - ph + top:r0 - ph + bottom]
        slab[:, bottom:] = 0.0
        windows = sliding_window_view(slab[:, :r1 - r0 + 2 * ph], (kh, kw),
                                      axis=(1, 2))
        cols = band[:channels * kh * kw * (r1 - r0) * width].reshape(
            channels, kh, kw, r1 - r0, width)
        np.copyto(cols, windows.transpose(0, 3, 4, 1, 2))
        yield r0 * width, r1 * width, cols.reshape(channels * kh * kw, -1)
    _spare["band"] = band


def conv2d(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Same-size zero-padded cross-correlation of a field with a kernel stack."""
    c_out, c_in, kh, kw = k.shape
    if x.shape[0] != c_in:
        raise ShapeMismatchError(
            f"conv2d: input has {x.shape[0]} channels, kernel expects {c_in}")
    height, width = x.shape[1], x.shape[2]
    weights = k.reshape(c_out, c_in * kh * kw)
    out = np.empty((c_out, height * width))
    for start, stop, cols in _patch_bands(x, kh, kw):
        np.matmul(weights, cols, out=out[:, start:stop])
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
    flat = cotangent.reshape(c_out, height * width)
    grad = None
    for start, stop, cols in _patch_bands(x, kh, kw):
        part = flat[:, start:stop] @ cols.T
        # the first band is assigned, not added to zeros, so one band keeps its bits
        grad = part if grad is None else grad + part
    return grad.reshape(c_out, c_in, kh, kw)


# Activation registry: kind -> (f(z), f'(z) from a = f(z)); relu'(0) is 0.
_ACTIVATIONS = {
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda a: (a > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda a: np.subtract(1.0, d := np.square(a), out=d)),
}

ACTIVATION_KINDS = tuple(sorted(_ACTIVATIONS))


def activate(z: np.ndarray, kind: str, out=None) -> np.ndarray:
    return _ACTIVATIONS[kind][0](z, out=out)


def activate_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """f'(z) from a = f(z): 1 - a**2 or [a > 0], with no transcendental call."""
    return _ACTIVATIONS[kind][1](a)


def write_ftf(path, field: np.ndarray) -> None:
    """Write a field in the FTF1 format: magic, three u64 LE dims, f64 LE data."""
    field = as_field(field)
    with open(path, "wb") as fh:
        fh.write(FTF_MAGIC)
        fh.write(struct.pack("<QQQ", *field.shape))
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


@contextmanager
def in_file(path):
    """Yield path; re-raise a ValueError from the block prefixed with it."""
    try:
        yield path
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_ftf(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    with in_file(path):
        if blob[:4] != FTF_MAGIC:
            raise ValueError("not an FTF1 file")
        if len(blob) < _FTF_HEADER:
            raise ValueError(f"{len(blob)} bytes, shorter than the "
                             f"{_FTF_HEADER}-byte header")
        channels, height, width = struct.unpack("<QQQ", blob[4:_FTF_HEADER])
        if 0 in (channels, height, width):
            raise ValueError(f"shape ({channels}, {height}, {width}) "
                             f"has a zero dimension")
        expected = _FTF_HEADER + channels * height * width * 8
        if len(blob) != expected:
            raise ValueError(f"expected {expected} bytes, found {len(blob)}")
        data = np.frombuffer(blob, dtype="<f8", offset=_FTF_HEADER)
        if not (finite := np.isfinite(data)).all():
            raise ValueError(f"values must be finite, got {data[np.argmin(finite)]}")
        return as_field(data.reshape(channels, height, width).astype(np.float64))
