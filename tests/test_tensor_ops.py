"""Convolution core, adjoints, activations, and FTF1 file round trips."""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from stepseg import tensor_ops
from stepseg.tensor_ops import (
    ACTIVATION_KINDS,
    ShapeMismatchError,
    activate,
    activate_deriv,
    as_field,
    as_kernel_stack,
    conv2d,
    conv2d_adjoint_input,
    conv2d_adjoint_weights,
    conv2d_adjoints,
    read_ftf,
    write_ftf,
)

from oracles import central_fd, conv2d_adjoint_weights_direct, conv2d_direct, inner


class TestConv2d:
    def test_all_ones_kernel_small_field(self):
        # 3x3 ones kernel over [[1,2],[3,4]]: every output pixel sums the
        # whole field because zero padding covers the rest.
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        k = np.ones((1, 1, 3, 3))
        expected = conv2d_direct(x, k)
        np.testing.assert_array_equal(expected, [[[10.0, 10.0], [10.0, 10.0]]])
        np.testing.assert_allclose(conv2d(x, k), expected, rtol=0, atol=0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5, 4))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        np.testing.assert_array_equal(conv2d(x, k), x)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_convolution(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        height, width = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        kh, kw = rng.choice([1, 3]), rng.choice([1, 3, 5])
        x = rng.standard_normal((c_in, height, width))
        k = rng.standard_normal((c_out, c_in, kh, kw))
        got = conv2d(x, k)
        want = conv2d_direct(x, k)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_linear_in_input(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((2, 6, 6))
        x2 = rng.standard_normal((2, 6, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        lhs = conv2d(2.5 * x1 - 0.5 * x2, k)
        rhs = 2.5 * conv2d(x1, k) - 0.5 * conv2d(x2, k)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_linear_in_kernel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 6, 6))
        k1 = rng.standard_normal((3, 2, 3, 3))
        k2 = rng.standard_normal((3, 2, 3, 3))
        lhs = conv2d(x, k1 + k2)
        rhs = conv2d(x, k1) + conv2d(x, k2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 16, 16))
        k = rng.standard_normal((4, 4, 3, 3))
        a = conv2d(x, k)
        b = conv2d(x.copy(), k.copy())
        assert a.tobytes() == b.tobytes()

    def test_channel_mismatch_rejected(self):
        x = np.zeros((2, 4, 4))
        k = np.zeros((1, 3, 3, 3))
        with pytest.raises(ShapeMismatchError):
            conv2d(x, k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            as_kernel_stack(np.zeros((1, 1, 2, 2)))

    def test_bad_field_rank_rejected(self):
        with pytest.raises(ValueError):
            as_field(np.zeros((4, 4)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_single_pixel_kernel_is_channel_mix(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4, 5))
        k = rng.standard_normal((2, 3, 1, 1))
        got = conv2d(x, k)
        want = np.einsum("oi,ihw->ohw", k[:, :, 0, 0], x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestAdjoints:
    @pytest.mark.parametrize("seed", range(100))
    def test_adjoint_input_inner_product_identity(self, seed):
        # <conv(v, k), u> == <v, conv_adjoint_input(u, k)> defines the adjoint
        rng = np.random.default_rng(seed)
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        height, width = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        kh, kw = rng.choice([1, 3]), rng.choice([1, 3])
        v = rng.standard_normal((c_in, height, width))
        u = rng.standard_normal((c_out, height, width))
        k = rng.standard_normal((c_out, c_in, kh, kw))
        lhs = inner(conv2d(v, k), u)
        rhs = inner(v, conv2d_adjoint_input(u, k))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_adjoint_weights_inner_product_identity(self, seed):
        # <conv(x, dK), u> == <dK, conv_adjoint_weights(u, x)>
        rng = np.random.default_rng(1000 + seed)
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        height, width = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        kh, kw = rng.choice([1, 3]), rng.choice([1, 3])
        x = rng.standard_normal((c_in, height, width))
        u = rng.standard_normal((c_out, height, width))
        dk = rng.standard_normal((c_out, c_in, kh, kw))
        lhs = inner(conv2d(x, dk), u)
        rhs = inner(dk, conv2d_adjoint_weights(u, x, kh, kw))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_adjoint_weights_matches_finite_differences(self):
        # d/dK <conv(x, K), u> at K=0 equals the weight adjoint exactly
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 5))
        u = rng.standard_normal((2, 5, 5))

        def f(k):
            return inner(conv2d(x, k), u)

        fd = central_fd(f, np.zeros((2, 2, 3, 3)), 1e-6)
        got = conv2d_adjoint_weights(u, x, 3, 3)
        np.testing.assert_allclose(got, fd, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("cotangent_shape,match", [
        ((3, 5, 5), "cotangent has 3 channels, kernel produces 2"),
        ((2, 5, 4), r"cotangent spatial \(5, 4\) != input spatial \(5, 5\)"),
    ], ids=["channels", "spatial"])
    def test_fused_adjoints_reject_mismatches(self, cotangent_shape, match):
        x = np.zeros((4, 5, 5))
        k = np.zeros((2, 4, 3, 3))
        with pytest.raises(ShapeMismatchError, match=match):
            conv2d_adjoints(np.zeros(cotangent_shape), x, k)

    def test_adjoint_input_flips_kernel(self):
        # single channel: adjoint of correlation is correlation with the
        # spatially flipped kernel
        rng = np.random.default_rng(6)
        u = rng.standard_normal((1, 6, 6))
        k = rng.standard_normal((1, 1, 3, 3))
        got = conv2d_adjoint_input(u, k)
        want = conv2d(u, k[:, :, ::-1, ::-1])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# _BAND_BYTES values: one output row per band; 2500 bytes, which on a 7x5
# field with 3 channels leaves a short last band (3x3: rows 2, 2, 2, 1;
# 3x1: 6, 1); and the default, one band for these fields. The adjoints
# gather the 2-channel cotangent, in rows 3, 3, 1 (3x3) at 2500 bytes.
BAND_BYTES = {"one_row": 1, "short_last": 2500,
              "default": tensor_ops._BAND_BYTES}
BAND_KERNELS = [(3, 3), (5, 5), (3, 1)]


@pytest.fixture(params=sorted(BAND_BYTES))
def band_bytes(request, monkeypatch):
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", BAND_BYTES[request.param])
    return request.param


def band_operands(kh, kw, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 7, 5))
    u = rng.standard_normal((2, 7, 5))
    k = rng.standard_normal((2, 3, kh, kw))
    return x, u, k


def conv_results(x, u, k):
    """conv2d, both adjoints, and both again from the fused adjoints."""
    return (conv2d(x, k), conv2d_adjoint_input(u, k),
            conv2d_adjoint_weights(u, x, k.shape[2], k.shape[3]),
            *conv2d_adjoints(u, x, k))


@pytest.mark.parametrize("kh,kw", BAND_KERNELS)
class TestPatchBands:
    def test_bands_tile_the_patch_matrix(self, band_bytes, monkeypatch,
                                         kh, kw):
        x, _, _ = band_operands(kh, kw)
        bands = [(start, stop, cols.copy())
                 for start, stop, cols in tensor_ops._patch_bands(x, kh, kw)]
        with monkeypatch.context() as m:
            m.setattr(tensor_ops, "_BAND_BYTES", 2**62)
            [(_, _, whole)] = tensor_ops._patch_bands(x, kh, kw)
        assert [b[0] for b in bands] == [0] + [b[1] for b in bands[:-1]]
        assert bands[-1][1] == 35
        assert all((stop - start) % 5 == 0 for start, stop, _ in bands)
        np.testing.assert_array_equal(
            np.concatenate([cols for _, _, cols in bands], axis=1), whole)
        rows = [(stop - start) // 5 for start, stop, _ in bands]
        if band_bytes == "one_row":
            assert rows == [1] * 7
        elif band_bytes == "short_last" and kw == 3:
            assert rows == {3: [2, 2, 2, 1], 1: [6, 1]}[kh]
        elif band_bytes == "default":
            assert rows == [7]

    def test_match_direct_convolution(self, band_bytes, kh, kw):
        x, u, k = band_operands(kh, kw)
        out, adj_in, adj_w, fused_in, fused_w = conv_results(x, u, k)
        flipped = k[:, :, ::-1, ::-1].swapaxes(0, 1)
        np.testing.assert_allclose(out, conv2d_direct(x, k),
                                   rtol=1e-12, atol=1e-12)
        for got in (adj_in, fused_in):
            np.testing.assert_allclose(got, conv2d_direct(u, flipped),
                                       rtol=1e-12, atol=1e-12)
        for got in (adj_w, fused_w):
            np.testing.assert_allclose(
                got, conv2d_adjoint_weights_direct(u, x, kh, kw),
                rtol=1e-12, atol=1e-12)

    def test_fused_input_adjoint_is_bitwise(self, band_bytes, kh, kw):
        # the fused input half runs conv2d_adjoint_input's GEMM on the same
        # operands, band for band
        x, u, k = band_operands(kh, kw, seed=5)
        np.testing.assert_array_equal(conv2d_adjoints(u, x, k)[0],
                                      conv2d_adjoint_input(u, k))

    def test_adjoint_identities(self, band_bytes, kh, kw):
        x, u, k = band_operands(kh, kw, seed=1)
        _, adj_in, adj_w, _, _ = conv_results(x, u, k)
        assert inner(conv2d(x, k), u) == pytest.approx(
            inner(x, adj_in), rel=1e-12, abs=1e-12)
        assert inner(conv2d(x, k), u) == pytest.approx(
            inner(k, adj_w), rel=1e-12, abs=1e-12)

    def test_multi_band_matches_one_band(self, band_bytes, monkeypatch,
                                         kh, kw):
        x, u, k = band_operands(kh, kw, seed=2)
        banded = conv_results(x, u, k)
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", 2**62)
        for got, want in zip(banded, conv_results(x, u, k)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_results_survive_workspace_reuse(self, band_bytes, monkeypatch,
                                             kh, kw):
        # a result is its own array: later convolutions of other shapes
        # leave it as it was
        x, u, k = band_operands(kh, kw, seed=3)
        results = conv_results(x, u, k)
        kept = [r.copy() for r in results]
        conv2d(np.random.default_rng(4).standard_normal((3, 9, 6)), k)
        conv_results(u[:, :4], x[:, :4], np.ascontiguousarray(
            k.swapaxes(0, 1)))
        for got, want in zip(results, kept):
            np.testing.assert_array_equal(got, want)


def test_live_band_generators_share_no_memory(monkeypatch):
    # each call gathers into its own buffers, so two gathers in flight at
    # once (two threads, or an interleaving caller) cannot overwrite each
    # other's bands
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", 2500)
    x, u, _ = band_operands(3, 3, seed=6)
    first = tensor_ops._patch_bands(x, 3, 3)
    second = tensor_ops._patch_bands(u[:, ::-1], 3, 3)
    _, _, cols = next(first)
    kept = cols.copy()
    for _, _, other in second:
        assert not np.shares_memory(cols, other)
        np.testing.assert_array_equal(cols, kept)


def test_convolution_allocates_only_its_output(monkeypatch):
    # beyond its output, a 3x3 conv2d over ten bands allocates, per thread
    # that deals them, at most one band, one slab of a band's rows plus
    # halo, and small objects (about 4 KiB of views and pool items measured
    # per thread); a padded copy of the field or the whole patch matrix is
    # more than the slab plus that slack. Once a gather or a convolution
    # returns, only the output is left: no band is kept
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 40, 40))
    k = rng.standard_normal((4, 4, 3, 3))
    band, slab, slack = 4 * 9 * 4 * 40 * 8, 4 * 6 * 42 * 8, 16 * 2**10
    assert 4 * 42 * 42 * 8 > slab + slack and band > slack
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band)
    for threads in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_THREADS", threads)
        conv2d(x, k)  # the pool and its threads are made once, not per call
        tracemalloc.start()
        try:
            assert len(list(tensor_ops._patch_bands(x, 3, 3))) == 10
            tracemalloc.reset_peak()
            out = conv2d(x, k)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + threads * (band + slab + slack), threads
        assert kept <= out.nbytes + slack, threads


def test_bands_stay_in_l2_from_one_window_view(monkeypatch, band_bytes):
    # a band's patch matrix is at most _BAND_BYTES unless one output row
    # exceeds it (then a band is one row), however many bands a field needs
    # (a 64x64 field at width 32 is ten bands at the default); each call
    # builds one window view, and a 1x1 kernel contracts the field itself
    views = []

    def counted(*args, **kwargs):
        views.append(args[1])
        return sliding_window_view(*args, **kwargs)

    monkeypatch.setattr(tensor_ops, "sliding_window_view", counted)
    limit = tensor_ops._BAND_BYTES
    for x, (kh, kw) in [(np.zeros((32, 64, 64)), (3, 3)),
                        *((band_operands(*ks)[0], ks) for ks in BAND_KERNELS)]:
        views.clear()
        sizes = [cols.nbytes for _, _, cols in tensor_ops._patch_bands(x, kh, kw)]
        row = x.shape[0] * kh * kw * x.shape[2] * 8
        assert views == [(kh, kw)]
        assert all(size <= max(limit, row) for size in sizes)
        if row > limit:
            assert sizes == [row] * x.shape[1]
        if x.shape[1] == 64 and band_bytes == "default":
            assert len(sizes) == 10
        [(_, _, cols)] = tensor_ops._patch_bands(x, 1, 1)
        assert np.shares_memory(cols, x)


# field shape and _BAND_BYTES -> band rows of a 3x3 gather of it: one band;
# four bands of 3 rows; and bands of 3 rows with a short last one of 2
DEALT = {"one_band": ((4, 11, 7), 2**62, [11]),
         "four_bands": ((4, 12, 7), 3 * 4 * 9 * 7 * 8, [3] * 4),
         "short_last": ((4, 11, 7), 3 * 4 * 9 * 7 * 8, [3, 3, 3, 2])}


class TestBandThreads:
    @pytest.mark.parametrize("case", sorted(DEALT))
    @pytest.mark.parametrize("kh,kw", [(3, 3), (5, 5), (3, 1), (1, 1)])
    def test_kernels_keep_their_bits_at_every_thread_count(
            self, monkeypatch, case, kh, kw):
        shape, band_bytes, rows = DEALT[case]
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(9)
        x, u = rng.standard_normal(shape), rng.standard_normal(shape)
        k = rng.standard_normal((4, 4, kh, kw))
        if (kh, kw) == (3, 3):
            assert [(stop - start) // 7 for start, stop, _ in
                    tensor_ops._patch_bands(x, kh, kw)] == rows
        bands = len(list(tensor_ops._patch_bands(x, kh, kw)))
        results = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(tensor_ops, "_THREADS", threads)
            # a 1x1 kernel or a single band stays on the calling thread
            assert tensor_ops._shares(x, kh, kw) == (
                1 if kh * kw == 1 else min(threads, bands))
            results[threads] = (conv2d(x, k), *conv2d_adjoints(u, x, k))
        for threads in (2, 3):
            for got, want in zip(results[threads], results[1], strict=True):
                np.testing.assert_array_equal(got, want)

    def test_dealt_bands_tile_the_patch_matrix(self, monkeypatch):
        # share t gathers bands t, t + T, ...: together, every band once
        shape, band_bytes, _ = DEALT["short_last"]
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        x = np.random.default_rng(2).standard_normal(shape)
        whole = [(start, stop, cols.copy())
                 for start, stop, cols in tensor_ops._patch_bands(x, 3, 3)]
        for shares in (2, 3):
            dealt = {}
            for t in range(shares):
                for start, stop, cols in tensor_ops._patch_bands(
                        x, 3, 3, t, shares):
                    dealt[start] = (start, stop, cols.copy())
            assert sorted(dealt) == [start for start, _, _ in whole]
            for start, stop, cols in whole:
                assert dealt[start][1] == stop
                np.testing.assert_array_equal(dealt[start][2], cols)

    def test_a_failing_share_ends_the_call_and_blocks_no_thread(
            self, monkeypatch):
        # bands of rows 0-3, 4-7 and 8-11: share 1 takes band 1, whose
        # interior rows 5 and 6 overflow its GEMM; share 0's bands 0 and 2
        # reach rows 4 and 7 only. Under the caller's errstate, which the
        # share runs in, share 1 raises; share 0, waiting at the band-order
        # hand-off to add band 2, must be released
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", 4 * 2 * 9 * 5 * 8)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 12, 5))
        u = rng.standard_normal((2, 12, 5))
        k = 10.0 * rng.standard_normal((2, 2, 3, 3))
        assert tensor_ops._shares(u, 3, 3) == 2
        u[:, 5:7] = 1e308
        outcome = []

        def call():
            try:
                with np.errstate(over="raise"):
                    conv2d_adjoints(u, x, k)
            except FloatingPointError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(outcome) == 1 and "overflow" in str(outcome[0])
        assert not tensor_ops._DEALING.locked()
        # the pool is free again: the next call is dealt and keeps its bits
        u[:, 5:7] = 0.0
        got = conv2d_adjoints(u, x, k)
        monkeypatch.setattr(tensor_ops, "_THREADS", 1)
        for a, b in zip(got, conv2d_adjoints(u, x, k), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_concurrent_callers_keep_their_bits(self, monkeypatch):
        # more calling threads than cores, switching often: one call deals
        # its bands at a time, the others run theirs on their own thread,
        # and every result is the serial one
        shape, band_bytes, _ = DEALT["short_last"]
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        monkeypatch.setattr(tensor_ops, "_THREADS", 1)
        rng = np.random.default_rng(4)
        operands = [(rng.standard_normal(shape), rng.standard_normal(shape),
                     rng.standard_normal((4, 4, 3, 3))) for _ in range(6)]
        want = [(conv2d(x, k), *conv2d_adjoints(u, x, k))
                for x, u, k in operands]
        monkeypatch.setattr(tensor_ops, "_THREADS", 3)
        wrong = []

        def worker(i):
            x, u, k = operands[i]
            for _ in range(20):
                got = (conv2d(x, k), *conv2d_adjoints(u, x, k))
                if not all(np.array_equal(a, b) for a, b in zip(got, want[i])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(operands))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_forked_child_deals_its_own_bands(self, monkeypatch):
        # the parent's pool threads do not exist in a forked child; a child
        # that submitted to that pool would wait for them forever
        shape, band_bytes, _ = DEALT["short_last"]
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        rng = np.random.default_rng(7)
        x, u = rng.standard_normal(shape), rng.standard_normal(shape)
        k = rng.standard_normal((4, 4, 3, 3))
        want = conv2d_adjoints(u, x, k)
        assert tensor_ops._pool.cache_info().currsize
        with warnings.catch_warnings():
            # Python 3.12 warns on fork in a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the fork hook dropped the parent's pools
                fresh = tensor_ops._pool.cache_info().currsize == 0
                got = conv2d_adjoints(u, x, k)
                code = 0 if fresh and all(np.array_equal(a, b)
                                          for a, b in zip(got, want)) else 1
            finally:
                os._exit(code)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0

    def test_import_starts_no_thread(self):
        root = str(Path(tensor_ops.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {root!r}); "
                "import threading, stepseg.cli, stepseg.tensor_ops as t; "
                "print(threading.active_count(), "
                "t._pool.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["1", "0"]


class TestActivations:
    def test_tanh_values(self):
        x = np.array([[[1.0]]])
        assert activate(x, "tanh")[0, 0, 0] == pytest.approx(
            0.7615941559557649, abs=1e-16)
        assert activate_deriv(activate(x, "tanh"), "tanh")[0, 0, 0] == \
            pytest.approx(0.41997434161402614, abs=1e-16)

    def test_relu_values(self):
        x = np.array([[[-2.0, 0.0, 3.0]]])
        np.testing.assert_array_equal(activate(x, "relu"),
                                      [[[0.0, 0.0, 3.0]]])
        # subgradient convention: relu'(0) == 0
        np.testing.assert_array_equal(
            activate_deriv(activate(x, "relu"), "relu"), [[[0.0, 0.0, 1.0]]])

    def test_unknown_kind_rejected(self):
        # configs and manifests check the name; here it is only looked up
        with pytest.raises(KeyError):
            activate(np.zeros((1, 1, 1)), "gelu")

    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(-20, 20, allow_nan=False))
    def test_tanh_deriv_consistent_with_value(self, v):
        # sech^2 is tanh' by another route; 1 - t*t loses digits as |v| grows
        x = np.array([[[v]]])
        d = activate_deriv(activate(x, "tanh"), "tanh")[0, 0, 0]
        assert d == pytest.approx(1.0 / np.cosh(v) ** 2, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-20, 20), max_size=12))
    def test_deriv_from_activation_is_bitwise_deriv_from_z(self, values):
        # f' read from a = f(z) is the same operations on the same values
        # as f' from z: bitwise 1 - tanh(z)**2, and [a > 0] == [z > 0] at
        # 0, -0.0 and NaN too
        z = np.array([[values + [0.0, -0.0, 20.0, -20.0, np.nan]]])
        tanh_d = activate_deriv(activate(z, "tanh"), "tanh")
        assert tanh_d.tobytes() == (1 - np.tanh(z) ** 2).tobytes()
        relu_d = activate_deriv(activate(z, "relu"), "relu")
        assert relu_d.tobytes() == (z > 0).astype(np.float64).tobytes()

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_deriv_into_its_own_input_keeps_bits(self, kind):
        # backward forms f'(z_j) * p_j in a_j's buffer
        a = np.array([[[0.0, -0.0, -3.5, -1e-300, -0.75, 0.25, 1.0, 7.0]]])
        want = activate_deriv(a.copy(), kind)
        assert activate_deriv(a, kind, out=a) is a
        assert a.tobytes() == want.tobytes()

    def test_activate_writes_into_out(self):
        for kind in ACTIVATION_KINDS:
            z = np.array([[[-2.0, 0.5, 3.0]]])
            want = activate(z, kind)
            assert activate(z, kind, out=z) is z
            assert z.tobytes() == want.tobytes()


class TestFtfFiles:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.standard_normal((3, 4, 5))
        path = tmp_path / "field.ftf"
        write_ftf(path, field)
        back = read_ftf(path)
        assert back.shape == field.shape
        assert back.tobytes() == field.tobytes()

    def test_layout_is_magic_dims_then_rows(self, tmp_path):
        field = np.arange(6.0).reshape(1, 2, 3)
        path = tmp_path / "field.ftf"
        write_ftf(path, field)
        raw = path.read_bytes()
        assert raw[:4] == b"FTF1"
        dims = np.frombuffer(raw[4:28], dtype="<u8")
        np.testing.assert_array_equal(dims, [1, 2, 3])
        np.testing.assert_array_equal(
            np.frombuffer(raw[28:], dtype="<f8"), np.arange(6.0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ftf"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(ValueError):
            read_ftf(path)

    def test_truncated_payload_rejected(self, tmp_path):
        field = np.zeros((1, 2, 2))
        path = tmp_path / "field.ftf"
        write_ftf(path, field)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_ftf(path)

    @pytest.mark.parametrize("size", [4, 12, 27])
    def test_truncated_header_rejected(self, tmp_path, size):
        path = tmp_path / "field.ftf"
        write_ftf(path, np.zeros((1, 2, 2)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="shorter than the 28-byte header"):
            read_ftf(path)

    @pytest.mark.parametrize("dims", [(0, 16, 16), (2, 0, 3), (2, 3, 0)])
    def test_zero_dimension_rejected(self, tmp_path, dims):
        path = tmp_path / "field.ftf"
        path.write_bytes(b"FTF1" + np.array(dims, dtype="<u8").tobytes())
        with pytest.raises(ValueError) as info:
            read_ftf(path)
        assert str(info.value) == (f"{path}: shape {dims} has a zero "
                                   f"dimension")
