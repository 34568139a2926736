"""Dense tensor primitives: same-size 2-D convolution, its adjoints, activations.

Layout conventions used across the package:

* feature fields are float64 arrays of shape (channels, height, width);
* kernel stacks are float64 arrays of shape (out_channels, in_channels,
  kernel_height, kernel_width) with odd spatial dims;
* convolution is zero-padded cross-correlation, so spatial size is preserved.

All operations are pure functions of their arguments and bitwise
deterministic. A convolution gathers its patch matrix in bands of whole
output rows, at most _BAND_BYTES each (so a band stays in L2; a 64x64 field
at width 32 is ten 3x3 bands), with one BLAS matmul per band. Band splits
leave conv2d's columns as they are, but move the last bits of the weight
gradient's per-band partial sums. conv2d_adjoints feeds both adjoints from
one gather of the cotangent. Each gather fills a zero-bordered slab with a
band's rows plus halo and copies it through one sliding-window view into a
band buffer of its own.

Band threads: a call whose kernel is wider than 1x1 and whose field has two
bands or more deals them across _THREADS threads, the run's one CPU count
(its affinity set's size, which training.sweep splits among its workers
through _band_threads): thread t takes bands t, t + T, t + 2T, ... The
calling thread runs share 0 and a pool, made at the first such call, runs
the rest, each in a copy of the caller's context (numpy's error state lives
there). Band boundaries depend only on shapes, and each band's columns are
written where a serial call writes them. The weight gradient's per-band
parts are added in band order through a hand-off (_BandSum), so every
result is the serial one bit for bit, at any thread count. Memory: the
caller makes each share's band buffer, slab and part buffer, so a call
holds one of each per thread beside its output, and the pool threads
allocate no array. OpenBLAS is pinned to one thread before the first
dealt call, since its own threads gain little at these GEMM sizes and
compete with the band threads; without its thread setter every call stays
serial.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

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


# patch-matrix bytes per band, sized so that a band stays in L2 between its
# gather and the GEMMs that read it
_BAND_BYTES = 2**20

# threads that deal a convolution's bands, read once: the CPUs this process
# may run on, which training.sweep splits among its workers
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_DEALING = threading.Lock()  # held by the one call whose bands are dealt


def _band_threads(count: int):
    """Sweep worker initializer: the worker's share of _THREADS."""
    global _THREADS
    _THREADS = count


def _band_rows(x: np.ndarray, kh: int, kw: int) -> int:
    """Output rows per band: as many as _BAND_BYTES of patches hold, >= 1."""
    channels, height, width = x.shape
    return max(1, min(height, _BAND_BYTES // (channels * kh * kw * width * 8)))


def _patch_bands(x: np.ndarray, kh: int, kw: int, share: int = 0,
                 shares: int = 1):
    """(start, stop, cols) for bands share, share + shares, ... of whole
    output rows (all bands by default): pixels start:stop and their
    zero-padded (C*kh*kw, stop - start) patch matrix, rows ordered (c, a, b).

    This call makes the band buffer and the slab, and the returned iterator
    gathers every band into that one buffer, so cols is valid only until
    the next band, and a thread that iterates allocates no array.
    """
    channels, height, width = x.shape
    if kh == 1 and kw == 1:
        return iter([(0, height * width, x.reshape(channels, height * width))])
    ph, pw = kh // 2, kw // 2
    rows = _band_rows(x, kh, kw)
    band = np.empty(channels * kh * kw * rows * width)
    # slab row i holds field row r0 - ph + i; its border columns stay zero
    slab = np.zeros((channels, rows + 2 * ph, width + 2 * pw))
    windows = sliding_window_view(slab, (kh, kw), axis=(1, 2))

    def gather():
        for r0 in range(share * rows, height, shares * rows):
            r1 = min(r0 + rows, height)
            top, bottom = max(0, ph - r0), min(r1 + ph, height) - r0 + ph
            slab[:, :top] = 0.0
            slab[:, top:bottom, pw:pw + width] = x[:, r0 - ph + top:r0 - ph + bottom]
            slab[:, bottom:] = 0.0
            cols = band[:channels * kh * kw * (r1 - r0) * width].reshape(
                channels, kh, kw, r1 - r0, width)
            np.copyto(cols, windows[:, :r1 - r0].transpose(0, 3, 4, 1, 2))
            yield r0 * width, r1 * width, cols.reshape(channels * kh * kw, -1)
    return gather()


@functools.cache
def _blas_pinned() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False if its thread
    setter is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        try:
            setter = getattr(ctypes.CDLL(str(lib)),
                             "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    return False


def _shares(x: np.ndarray, kh: int, kw: int) -> int:
    """Threads that deal x's bands: _THREADS, at most one per band; 1 for a
    1x1 kernel, one band, or an OpenBLAS that cannot be pinned."""
    if kh * kw == 1 or _THREADS < 2:
        return 1
    bands = -(-x.shape[1] // _band_rows(x, kh, kw))
    return min(_THREADS, bands) if bands > 1 and _blas_pinned() else 1


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """threads - 1 threads, one per share but the caller's, so no _BandSum
    share waits for a thread; made once per count, as _DEALING is held."""
    return ThreadPoolExecutor(threads - 1, thread_name_prefix="stepseg-bands")


def _start_afresh():
    """A forked child has none of its parent's pool threads, and a lock
    another thread held stays held, so it starts without both."""
    global _DEALING
    _pool.cache_clear()
    _DEALING = threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_start_afresh)


def _deal(share, x: np.ndarray, kh: int, kw: int, *scratch: tuple):
    """Call share(bands, *buffers) once per thread (_shares) and return once
    every call has ended, raising the first failure.

    Share t gets _patch_bands(x, kh, kw, t, shares) and one new array of each
    shape in scratch, all made here, on the calling thread. Share 0 runs here;
    the others run on the pool, each in a copy of this thread's context. A
    call that finds another call's bands being dealt runs all its bands here.
    """
    shares = _shares(x, kh, kw)
    if shares == 1 or not _DEALING.acquire(blocking=False):
        share(_patch_bands(x, kh, kw), *map(np.empty, scratch))
        return
    try:
        work = [(_patch_bands(x, kh, kw, t, shares), *map(np.empty, scratch))
                for t in range(shares)]
        pool = _pool(_THREADS)
        futures = [pool.submit(contextvars.copy_context().run, share, *args)
                   for args in work[1:]]
        try:
            share(*work[0])
        finally:
            # every share ends before the call does: each writes the output
            errors = [future.exception() for future in futures]
    finally:
        _DEALING.release()
    for error in errors:
        if error is not None:
            raise error


class _BandSum:
    """The sum of per-band parts taken in band order, whichever thread holds
    each band: add waits until every earlier band's part is in."""

    def __init__(self, shape: tuple):
        self.total = np.empty(shape)
        self._summed = 0  # pixels whose bands' parts are in total
        self._failed = False
        self._turn = threading.Condition()

    def add(self, part: np.ndarray, start: int, stop: int) -> bool:
        """Add band start:stop's part after the bands before it; False, with
        nothing added, once a share has failed."""
        with self._turn:
            self._turn.wait_for(lambda: self._summed == start or self._failed)
            if self._failed:
                return False
            # the first part is assigned, not added to zeros, so one band
            # keeps its bits
            if start:
                self.total += part
            else:
                np.copyto(self.total, part)
            self._summed = stop
            self._turn.notify_all()
        return True

    def fail(self):
        """Release every share waiting in add."""
        with self._turn:
            self._failed = True
            self._turn.notify_all()


def conv2d(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Same-size zero-padded cross-correlation of a field with a kernel stack."""
    c_out, c_in, kh, kw = k.shape
    if x.shape[0] != c_in:
        raise ShapeMismatchError(
            f"conv2d: input has {x.shape[0]} channels, kernel expects {c_in}")
    height, width = x.shape[1], x.shape[2]
    weights = k.reshape(c_out, c_in * kh * kw)
    out = np.empty((c_out, height * width))

    def share(bands):
        for start, stop, cols in bands:
            np.matmul(weights, cols, out=out[:, start:stop])

    _deal(share, x, kh, kw)
    return out.reshape(c_out, height, width)


def conv2d_adjoint_input(cotangent: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Apply the transpose of conv2d(., k) to a cotangent field.

    Satisfies <conv2d(v, k), u> == <v, conv2d_adjoint_input(u, k)> exactly in
    exact arithmetic; with zero padding and odd kernels this is convolution
    with the channel-swapped, spatially flipped stack.
    """
    return conv2d(cotangent, _transposed(cotangent, k))


def conv2d_adjoint_weights(cotangent: np.ndarray, x: np.ndarray,
                           kh: int, kw: int) -> np.ndarray:
    """Gradient of <conv2d(x, k), cotangent> with respect to the kernel stack k."""
    # a stack with no input channels leaves conv2d_adjoints' input half empty
    return conv2d_adjoints(cotangent, x, np.empty((len(cotangent), 0, kh, kw)))[1]


def conv2d_adjoints(cotangent: np.ndarray, x: np.ndarray, k: np.ndarray):
    """conv2d_adjoint_input(cotangent, k) and the gradient in k, from one
    gather of the cotangent's patches: per band cols, conv2d_adjoint_input's
    GEMM and cols @ x_band.T, summed in band order into the gradient at
    flipped offsets."""
    c_out, c_k, kh, kw = k.shape
    c_in, height, width = x.shape
    if cotangent.shape[1:] != (height, width):
        raise ShapeMismatchError(
            f"adjoint weights: cotangent spatial {cotangent.shape[1:]} "
            f"!= input spatial {(height, width)}")
    weights = _transposed(cotangent, k).reshape(c_k, c_out * kh * kw)
    flat = x.reshape(c_in, height * width)
    adjoint = np.empty((c_k, height * width))
    grad = _BandSum((c_out * kh * kw, c_in))

    def share(bands, part):
        try:
            for start, stop, cols in bands:
                np.matmul(weights, cols, out=adjoint[:, start:stop])
                np.matmul(cols, flat[:, start:stop].T, out=part)
                if not grad.add(part, start, stop):
                    return
        except BaseException:
            grad.fail()
            raise

    _deal(share, cotangent, kh, kw, grad.total.shape)
    # row (o, a', b') pairs x with the cotangent's offset (kh-1-a', kw-1-b')
    total = grad.total.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1]
    return adjoint.reshape(c_k, height, width), total.transpose(0, 3, 1, 2)


def _transposed(cotangent: np.ndarray, k: np.ndarray) -> np.ndarray:
    if cotangent.shape[0] != k.shape[0]:
        raise ShapeMismatchError(
            f"adjoint input: cotangent has {cotangent.shape[0]} channels, "
            f"kernel produces {k.shape[0]}")
    return np.ascontiguousarray(k[:, :, ::-1, ::-1].swapaxes(0, 1))


# Activation registry: kind -> (f(z), f'(z) from a = f(z) into out);
# relu'(0) is 0.
_ACTIVATIONS = {
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda a, out: np.greater(a, 0.0, out=out)),
    "tanh": (np.tanh,
             lambda a, out: np.subtract(1.0, np.square(a, out=out), out=out)),
}

ACTIVATION_KINDS = tuple(sorted(_ACTIVATIONS))


def activate(z: np.ndarray, kind: str, out=None) -> np.ndarray:
    return _ACTIVATIONS[kind][0](z, out=out)


def activate_deriv(a: np.ndarray, kind: str, out=None) -> np.ndarray:
    """f'(z) from a = f(z): 1 - a**2 or [a > 0], with no transcendental call,
    written into out (a itself may be out) or a new field."""
    return _ACTIVATIONS[kind][1](a, np.empty_like(a) if out is None else out)


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
