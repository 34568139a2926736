"""A fixed numpy kernel that measures how fast the machine runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and slows most programs on them alike. ``Reference`` is the
forward pass and weight gradient of one 3x3 convolution layer of the
default model on a 64x64 field, written with numpy alone: a zero-padded
im2col gather, a GEMM, tanh and the transposed GEMM, each into fresh arrays
as stepseg makes them. Its inputs come from a fixed seed, so it does the
same work in every run and on every commit; it never calls stepseg.

``run.py`` runs a block of reference calls before the first timed operation
and after each one, and multiplies the run's timings by ``NOMINAL_S`` over
the median reference call, so that they read as times on a machine where
the reference call takes exactly ``NOMINAL_S``. The host's drift between
runs cancels out; what it does within a run shows as spread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a reference call on the nominal machine; on the 2-vCPU Xeon VM the
# bounds were set on (one OpenBLAS thread) it took 5.5 to 8 ms per run
NOMINAL_S = 5.0e-3
BLOCK_CALLS = 25

_SIZE, _CHANNELS, _K = 64, 32, 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        fan_in = _CHANNELS * _K * _K
        self.x = rng.standard_normal((_CHANNELS, _SIZE, _SIZE))
        self.kernel = rng.standard_normal((_CHANNELS, fan_in)) / fan_in
        self.samples = []

    def __call__(self):
        c, s, k, p = _CHANNELS, _SIZE, _K, _K // 2
        padded = np.zeros((c, s + 2 * p, s + 2 * p))
        padded[:, p:p + s, p:p + s] = self.x
        cols = np.empty((c, k * k, s, s))
        for a in range(k):
            for b in range(k):
                cols[:, a * k + b] = padded[:, a:a + s, b:b + s]
        cols = cols.reshape(c * k * k, s * s)
        out = np.tanh(self.kernel @ cols)
        return out @ cols.T

    def block(self):
        """Time ``BLOCK_CALLS`` more reference calls."""
        for _ in range(BLOCK_CALLS):
            began = time.perf_counter()
            self()
            self.samples.append(time.perf_counter() - began)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return NOMINAL_S / statistics.median(self.samples)
