"""Clock reads and spans recorded from outside stepseg.

stepseg's modules import each other's functions by name, so a wrapper must
replace the module attribute at the place where the function is looked up
(``stepseg.network.conv2d`` for the convolutions in ``forward``,
``stepseg.tensor_ops.conv2d`` for the one inside ``conv2d_adjoint_input``).

A ``Recorder`` always records one clock read at entry and exit of every
``gradient`` call, grouped by the ``train`` call it belongs to. With spans
on, it also records a span for each call of the functions in ``SPANS``:
name, start, end, parent and the benchmark operation it belongs to, plus
the call's shape-derived counts. Everything stays in memory until the run
writes it out.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> module attributes through which stepseg calls the function
SPANS = {
    "tensor_ops.conv2d": ("stepseg.network.conv2d", "stepseg.tensor_ops.conv2d"),
    "tensor_ops.conv2d_adjoint_input": ("stepseg.adjoint.conv2d_adjoint_input",),
    "tensor_ops.conv2d_adjoint_weights": ("stepseg.adjoint.conv2d_adjoint_weights",),
    "tensor_ops.activate": ("stepseg.network.activate",),
    "tensor_ops.activate_deriv": ("stepseg.adjoint.activate_deriv",),
    "network.forward": ("stepseg.adjoint.forward", "stepseg.training.forward"),
    "adjoint.terminal_multiplier": ("stepseg.adjoint.terminal_multiplier",),
    "adjoint.backward": ("stepseg.adjoint.backward",),
    "regularizer.smoother_value": ("stepseg.regularizer.smoother_value",),
    "regularizer.smoother_grad": ("stepseg.regularizer.smoother_grad",),
    "losses.softmax_xent_matrix": ("stepseg.adjoint.softmax_xent_matrix",
                                   "stepseg.training.softmax_xent_matrix"),
    "losses.iou": ("stepseg.training.iou",),
    "synth.augment": ("stepseg.training.augment",),
    "training.train": ("stepseg.training.train",),
}

# gradient is timed wherever the benchmark or the trainer calls it
GRADIENT_SITES = ("stepseg.adjoint.gradient", "stepseg.training.gradient")
TRAIN_SITE = "stepseg.training.train"

_F64 = 8


def _conv_counts(args, result):
    """(flops, GEMM operand+result bytes, im2col bytes) of one conv2d call."""
    x, k = args[0], args[1]
    c_out, c_in, kh, kw = k.shape
    pixels = x.shape[1] * x.shape[2]
    cols = c_in * kh * kw * pixels * _F64
    return (2 * c_out * c_in * kh * kw * pixels,
            cols + k.nbytes + result.nbytes,
            cols if kh * kw > 1 else 0)


def _adjoint_weights_counts(args, result):
    cotangent, x, kh, kw = args[:4]
    pixels = x.shape[1] * x.shape[2]
    return (2 * cotangent.shape[0] * x.shape[0] * kh * kw * pixels,)


def _trace_counts(args, result):
    arrays = (result.data, result.output) + result.states + result.preacts
    return (sum(a.nbytes for a in arrays),)


COUNTS = {
    "tensor_ops.conv2d": _conv_counts,
    "tensor_ops.conv2d_adjoint_weights": _adjoint_weights_counts,
    "network.forward": _trace_counts,
}


def _resolve(site):
    module, _, attr = site.rpartition(".")
    return importlib.import_module(module), attr


class Recorder:
    """Holds the clock reads and spans of one benchmark run."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.tracing = False   # spans are recorded only while this is set
        self.op = 0            # benchmark operation the next records belong to
        self.spans = []        # [id, parent, op, name, start, end, self_s, counts]
        # [group, op, traced, start, end]; group is None for the benchmark's
        # own calls and names the enclosing train call otherwise
        self.grad_calls = []
        self._stack = []       # [span id, time covered by children]
        self._next_id = 0
        self._group = None
        self._train_calls = 0
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for site in GRADIENT_SITES:
            wrappers[site] = self._clocked
        wrappers[TRAIN_SITE] = self._grouped
        if self.spans_on:
            for name, sites in SPANS.items():
                for site in sites:
                    inner = wrappers.get(site)
                    wrappers[site] = self._spanned(name, inner)
        for site, wrap in wrappers.items():
            module, attr = _resolve(site)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _clocked(self, fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.grad_calls.append([self._group, self.op, self.tracing, start,
                                    time.perf_counter()])
            return result
        return clocked

    def _grouped(self, fn):
        @functools.wraps(fn)
        def grouped(*args, **kwargs):
            outer = self._group
            self._train_calls += 1
            self._group = self._train_calls
            try:
                return fn(*args, **kwargs)
            finally:
                self._group = outer
        return grouped

    def _spanned(self, name, inner):
        count = COUNTS.get(name)

        def wrap(fn):
            target = inner(fn) if inner is not None else fn

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                if not self.tracing:
                    return target(*args, **kwargs)
                span_id = self._next_id
                self._next_id += 1
                parent = self._stack[-1][0] if self._stack else None
                frame = [span_id, 0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][1] += end - start
                    counts = (count(args, result)
                              if count is not None and result is not None
                              else None)
                    self.spans.append([span_id, parent, self.op, name, start,
                                       end, end - start - frame[1], counts])
            return spanned
        return wrap
