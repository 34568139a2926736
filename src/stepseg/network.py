"""Residual network as explicit time stepping.

A network with n residual layers maps a (bands, H, W) field to a
(num_classes, H, W) score field:

    y_0 = L x                      lift, 1x1 linear
    y_j = y_{j-1} - h * f(K_j y_{j-1})   j = 1..n, residual steps
    out = P y_n                    project, 1x1 linear

where K_j y denotes same-size zero-padded convolution and f is a pointwise
activation. The multiplier sweep needs every state, but the trace keeps only
the checkpoints y_0, y_k, y_2k, ... and y_n (k = ceil(sqrt(n))) beside every
activation a_j = f(K_j y_{j-1}). Since y_j = y_{j-1} - h a_j, reverse_steps
replays the states between two checkpoints with forward's own elementwise
step, bit for bit, with no convolution and no activation call, and spends
the trace as it goes (see ForwardTrace.reverse_steps).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .tensor_ops import (
    ACTIVATION_KINDS,
    activate,
    as_field,
    as_kernel_stack,
    conv2d,
    in_file,
    read_ftf,
    write_ftf,
)


def of_kind(kind: str, default=MISSING):
    """A dataclass field that check_fields tests against kind."""
    return field(default=default, metadata={"kind": kind})


def field_kinds(cls) -> dict[str, str]:
    """Each of_kind field of a dataclass -> its kind, in declaration order."""
    return {f.name: f.metadata["kind"] for f in fields(cls)
            if "kind" in f.metadata}


def check_fields(obj):
    """check_value on each of_kind field of obj, in declaration order."""
    for name, kind in field_kinds(type(obj)).items():
        check_value(getattr(obj, name), kind, name)


@dataclass(frozen=True)
class NetworkParams:
    """All trainable kernels plus the step size and activation kind.

    lift: (width, bands, 1, 1), layers: n stacks (width, width, kh, kw),
    project: (num_classes, width, 1, 1).
    """

    lift: np.ndarray
    layers: tuple[np.ndarray, ...]
    project: np.ndarray
    h: float = of_kind("finite", 1.0)
    activation: str = of_kind("activation", "tanh")

    def __post_init__(self):
        lift = kernel_stack("lift", self.lift, (None, None, 1, 1))
        width = lift.shape[0]
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "layers", tuple(
            kernel_stack(f"layer_{j:03d}", k, (width, width, None, None))
            for j, k in enumerate(self.layers)))
        object.__setattr__(self, "project", kernel_stack(
            "project", self.project, (None, width, 1, 1)))
        check_fields(self)
        check_value(self.num_classes, "int>=2", "num_classes")

    @property
    def bands(self) -> int:
        return self.lift.shape[1]

    @property
    def width(self) -> int:
        return self.lift.shape[0]

    @property
    def num_classes(self) -> int:
        return self.project.shape[0]


def _checkpoint_stride(n: int) -> int:
    """k = ceil(sqrt(n)): forward keeps y_j for j a multiple of k, and y_n."""
    return 1 + math.isqrt(n - 1) if n else 1


def _step(y_prev: np.ndarray, a: np.ndarray, h: float) -> np.ndarray:
    """y_j = y_{j-1} - h * a_j: the product h * a_j, then the difference."""
    y = a * h
    return np.subtract(y_prev, y, out=y)


@dataclass
class ForwardTrace:
    """Everything the backward sweep needs: the params that produced it,
    the input, the checkpointed states, every activation and the
    projected output.

    activations holds a_j = f(K_j y_{j-1}) for j = 1..n. states holds y_j for
    j = 0, k, 2k, ... and j = n, with k = ceil(sqrt(n)), so
    states[-1] is always y_n. reverse_steps gives the states in between
    and spends the trace.
    """

    params: NetworkParams
    data: np.ndarray
    states: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    output: np.ndarray
    # read-only alias of activations, only for perfbench/spans.py's byte count
    preacts = property(lambda self: self.activations)

    def reverse_steps(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (j, y_{j-1}, a_j) for j = n down to 1, spending the trace.

        Each segment between two checkpoints is replayed forward from its
        first checkpoint with forward's own step, so every y_{j-1} is
        bitwise the state forward computed, and at most one segment of
        replayed states is alive. The spend rule: a trace is swept once;
        its first step takes states and activations, leaving both empty,
        and the caller then holds the only reference to each a_j and
        checkpoint, so each is freed after its one use, and a_j's buffer
        may be overwritten (backward forms f'(z_j) * p_j in it). Raises
        ValueError here, not at the first step, if the trace was swept
        before.
        """
        n = len(self.params.layers)
        if len(self.activations) != n:
            raise ValueError("trace already swept; run forward again")
        return self._spend(n)

    def _spend(self, n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        k = _checkpoint_stride(n)
        h = self.params.h
        # y_n is not replayed; backward reads it before the first step
        states, activations = list(self.states[:-1]), list(self.activations)
        self.states = self.activations = ()
        while states:
            start = (len(states) - 1) * k
            stop = min(start + k, n)
            segment = [states.pop()]
            for j in range(start + 1, stop):
                segment.append(_step(segment[-1], activations[j - 1], h))
            for j in range(stop, start, -1):
                yield j, segment.pop(), activations.pop()


def _check_finite(field: np.ndarray, where: str):
    if not np.all(np.isfinite(field)):
        raise FloatingPointError(f"nonfinite values after {where}")


def forward(params: NetworkParams, data: np.ndarray) -> ForwardTrace:
    """Run the network on a (bands, H, W) field, keeping every activation
    and the checkpointed states (see ForwardTrace).

    A stage whose result is not finite raises FloatingPointError naming
    it ("nonfinite values after lift", "... layer j", "... project").
    numpy's overflow and invalid warnings are silenced only around the
    stages those checks cover, so forward never warns, and the caller's
    numpy error state is the same after it returns or raises.
    """
    data = as_field(data)
    if data.shape[0] != params.bands:
        raise ValueError(f"data has {data.shape[0]} bands, "
                         f"network expects {params.bands}")
    n = len(params.layers)
    k = _checkpoint_stride(n)
    with np.errstate(over="ignore", invalid="ignore"):
        y = conv2d(data, params.lift)
        _check_finite(y, "lift")
        states = [y]
        activations = []
        for j, kernel in enumerate(params.layers, start=1):
            a = conv2d(y, kernel)  # z_j, overwritten by a_j = f(z_j)
            activations.append(activate(a, params.activation, out=a))
            y = _step(y, a, params.h)
            _check_finite(y, f"layer {j - 1}")
            if j % k == 0 or j == n:
                states.append(y)
        output = conv2d(y, params.project)
        _check_finite(output, "project")
    return ForwardTrace(params=params, data=data, states=tuple(states),
                        activations=tuple(activations), output=output)


def predict_classes(output: np.ndarray) -> np.ndarray:
    """Argmax over the channel axis, (C, ...) -> (...) int64."""
    return np.argmax(output, axis=0)


@dataclass(frozen=True)
class SelectionSet:
    """Labeled pixel positions (row, col) with their class ids, no duplicates."""

    rows: np.ndarray
    cols: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        classes = np.asarray(self.classes, dtype=np.int64)
        if not (rows.shape == cols.shape == classes.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, classes must be equal-length 1-d")
        if len({(int(r), int(c)) for r, c in zip(rows, cols)}) != rows.shape[0]:
            raise ValueError("duplicate labeled pixel")
        if rows.shape[0] and classes.min() < 0:
            raise ValueError("negative class id")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "classes", classes)

    @property
    def entries(self) -> list[tuple[int, int, int]]:
        return [(int(r), int(c), int(k))
                for r, c, k in zip(self.rows, self.cols, self.classes)]

    def __len__(self) -> int:
        return self.rows.shape[0]


def _check_bounds(field: np.ndarray, sel: SelectionSet):
    _, height, width = field.shape
    if len(sel) and (sel.rows.min() < 0 or sel.rows.max() >= height
                     or sel.cols.min() < 0 or sel.cols.max() >= width):
        raise IndexError("selection outside field bounds")


def select_matrix(field: np.ndarray, sel: SelectionSet) -> np.ndarray:
    """Selected pixels as one (C, n) matrix, column order matching entries."""
    _check_bounds(field, sel)
    return field[:, sel.rows, sel.cols]


def scatter_into(field: np.ndarray, sel: SelectionSet, values: np.ndarray):
    """Adjoint of select_matrix: add (C, n) columns at the selected pixels."""
    field[:, sel.rows, sel.cols] += values


def _parse_bool(text: str) -> bool:
    # tuple.index raises ValueError for any other spelling
    return ("0", "false", "no", "off",
            "1", "true", "yes", "on").index(text.lower()) >= 4


# value kind -> the parser of its text, the type and the test a value must
# pass (None: any value of the type), and what an error says it must be
VALUE_KINDS = {
    "int": (int, numbers.Integral, None, "an integer"),
    "int64": (int, numbers.Integral, lambda v: -2**63 <= v < 2**63,
              "a 64-bit integer"),
    **{f"int>={m}": (int, numbers.Integral, lambda v, m=m: v >= m,
                     f"an integer >= {m}") for m in (0, 1, 2)},
    "finite": (float, numbers.Real, math.isfinite, "a finite number"),
    "finite>=0": (float, numbers.Real, lambda v: math.isfinite(v) and v >= 0,
                  "a finite number >= 0"),
    "(0,1]": (float, numbers.Real, lambda v: 0 < v <= 1, "a number in (0, 1]"),
    "bool": (_parse_bool, bool, None, "a boolean"),
    "activation": (str, str, ACTIVATION_KINDS.__contains__,
                   f"one of {ACTIVATION_KINDS}"),
}


def check_value(value, kind: str, name: str):
    """value if it passes kind (a VALUE_KINDS key), else a ValueError
    '<name> must be <what>, got <value>'."""
    _, cls, test, what = VALUE_KINDS[kind]
    if not (isinstance(value, cls) and (test is None or test(value))):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def parse_value(text: str, kind: str, name: str):
    """check_value of text parsed as kind, or of text that does not parse."""
    try:
        value = VALUE_KINDS[kind][0](text)
    except ValueError:
        value = text
    return check_value(value, kind, name)


def parse_key_values(text: str, kinds: dict[str, str], what: str) -> dict:
    """key=value lines, '#' comments and blank lines skipped, last one wins,
    each value parsed as its key's kind. A line without '=' or with a key
    outside kinds raises ValueError."""
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in kinds:
            raise ValueError(f"unknown {what} line {raw!r}")
        pairs[key] = value.strip()
    return {key: parse_value(value, kinds[key], key)
            for key, value in pairs.items()}


MANIFEST_KINDS = {"width": "int>=1", "num_classes": "int>=2",
                  **field_kinds(NetworkParams), "n": "int>=0", "bands": "int>=1"}


def kernel_stack(name: str, weights, shape: tuple) -> np.ndarray:
    """weights as a kernel stack (as_kernel_stack) of shape, where None
    allows any size."""
    stack = as_kernel_stack(weights)
    if any(want not in (None, got) for want, got in zip(shape, stack.shape)):
        wanted = ", ".join("*" if d is None else str(d) for d in shape)
        raise ValueError(f"{name} must have shape ({wanted}), "
                         f"got {stack.shape}")
    return stack


def save_params(directory, params: NetworkParams):
    """Write kernels as one field file each plus a key=value manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"width={params.width}", f"num_classes={params.num_classes}",
             f"h={repr(params.h)}", f"activation={params.activation}",
             f"n={len(params.layers)}", f"bands={params.bands}"]
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")

    def write_stack(name: str, stack: np.ndarray):
        o, i, kh, kw = stack.shape
        write_ftf(directory / name, stack.reshape(o * i, kh, kw))

    write_stack("lift.ftf", params.lift)
    for j, k in enumerate(params.layers):
        write_stack(f"layer_{j:03d}.ftf", k)
    write_stack("project.ftf", params.project)


def load_params(directory) -> NetworkParams:
    directory = Path(directory)
    with in_file(directory / "manifest.txt") as path:
        manifest = parse_key_values(path.read_text(), MANIFEST_KINDS,
                                    "manifest")
        if missing := [k for k in MANIFEST_KINDS if k not in manifest]:
            raise ValueError(f"missing keys {missing}")

    def read_stack(name: str, shape: tuple) -> np.ndarray:
        flat = read_ftf(directory / f"{name}.ftf")
        with in_file(directory / f"{name}.ftf"):
            o, i = shape[:2]
            if flat.shape[0] != o * i:
                raise ValueError(f"expected {o * i} kernels, got {flat.shape[0]}")
            return kernel_stack(name, flat.reshape(o, i, *flat.shape[1:]), shape)

    width = manifest["width"]
    return NetworkParams(
        lift=read_stack("lift", (width, manifest["bands"], 1, 1)),
        layers=tuple(read_stack(f"layer_{j:03d}", (width, width, None, None))
                     for j in range(manifest["n"])),
        project=read_stack("project", (manifest["num_classes"], width, 1, 1)),
        h=manifest["h"], activation=manifest["activation"])
