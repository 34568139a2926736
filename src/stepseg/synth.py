"""Synthetic labeled scenes: piecewise-constant truth, noisy spectral data,
sparse point-label sampling, flip/rotation augmentation, and label file I/O.

A scene is built from seeded random rectangles and ellipses stamped onto a
class-0 background (later blobs overwrite earlier ones). Each pixel's data
vector is its class signature plus iid Gaussian noise. All randomness is
keyed so identical seeds give bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import ClassMap
from .network import SelectionSet, check_at_least, parse_value
from .tensor_ops import in_file

LBL_MAGIC = "LBL1"

# Independent substreams per purpose, so e.g. changing blob geometry
# never shifts the noise draw.
_STREAM_BLOBS = 1
_STREAM_NOISE = 2
_STREAM_SIGNATURES = 3
_STREAM_LABELS = 4

_SCENE_BOUNDS = dict(height=1, width=1, channels=1, num_classes=1, blob_count=0)


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines one synthetic scene."""

    seed: int
    height: int
    width: int
    channels: int
    num_classes: int
    blob_count: int
    noise_sigma: float
    signatures: np.ndarray

    def __post_init__(self):
        check_at_least(vars(self), _SCENE_BOUNDS)
        sigs = np.ascontiguousarray(np.asarray(self.signatures, dtype=np.float64))
        if sigs.shape != (self.num_classes, self.channels):
            raise ValueError(f"signatures must be ({self.num_classes}, "
                             f"{self.channels}), got {sigs.shape}")
        for a in range(self.num_classes):
            for b in range(a + 1, self.num_classes):
                if np.array_equal(sigs[a], sigs[b]):
                    raise ValueError(f"classes {a} and {b} share a signature")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError("noise_sigma must be finite and >= 0")
        object.__setattr__(self, "signatures", sigs)


def random_signatures(num_classes: int, channels: int, scale: float,
                      seed: int) -> np.ndarray:
    """Seeded Gaussian signature vectors, one per class, scaled by scale."""
    rng = np.random.default_rng([seed, _STREAM_SIGNATURES])
    return scale * rng.standard_normal((num_classes, channels))


def make_scene_spec(seed: int, height: int = 64, width: int = 64,
                    channels: int = 16, num_classes: int = 2,
                    blob_count: int = 6, noise_sigma: float = 1.2,
                    signature_scale: float = 0.17) -> SceneSpec:
    """SceneSpec with signatures derived from the same seed.

    The default noise level and signature scale put per-pixel nearest-
    signature accuracy around 0.65, low enough that spatial smoothing of
    the prediction has headroom to help.
    """
    # before the signatures, whose draw fails on a negative dimension or seed
    check_at_least(locals(), {**_SCENE_BOUNDS, "seed": 0})
    return SceneSpec(seed=seed, height=height, width=width, channels=channels,
                     num_classes=num_classes, blob_count=blob_count,
                     noise_sigma=noise_sigma,
                     signatures=random_signatures(num_classes, channels,
                                                  signature_scale, seed))


def gen_scene(spec: SceneSpec) -> tuple[np.ndarray, ClassMap]:
    """Data field (channels, H, W) and dense truth, deterministic in seed."""
    truth = np.zeros((spec.height, spec.width), dtype=np.int64)
    rng = np.random.default_rng([spec.seed, _STREAM_BLOBS])
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    for b in range(spec.blob_count):
        # cycle through nonbackground classes so each one appears
        class_id = 1 + b % (spec.num_classes - 1) if spec.num_classes > 1 else 0
        is_rect = bool(rng.integers(0, 2))
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        ry = rng.uniform(0.12, 0.30) * spec.height
        rx = rng.uniform(0.12, 0.30) * spec.width
        if is_rect:
            mask = (np.abs(rows - cy) <= ry) & (np.abs(cols - cx) <= rx)
        else:
            mask = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        truth[mask] = class_id

    data = np.ascontiguousarray(
        spec.signatures[truth].transpose(2, 0, 1))
    if spec.noise_sigma > 0.0:
        noise_rng = np.random.default_rng([spec.seed, _STREAM_NOISE])
        data += noise_rng.normal(0.0, spec.noise_sigma, size=data.shape)
    return data, ClassMap(values=truth)


@dataclass(frozen=True)
class LabelBudget:
    """How many labeled pixels to reveal for training and validation."""

    n_train: int
    n_val: int
    seed: int

    def __post_init__(self):
        if self.n_train < 0 or self.n_val < 0:
            raise ValueError("label counts must be >= 0")


def sample_labels(truth: ClassMap, budget: LabelBudget,
                  ) -> tuple[SelectionSet, SelectionSet]:
    """Disjoint train/val pixel sets, uniform without replacement."""
    labeled = np.argwhere(truth.labeled_mask)
    total = labeled.shape[0]
    if budget.n_train + budget.n_val > total:
        raise ValueError(f"budget {budget.n_train}+{budget.n_val} exceeds "
                         f"{total} labeled pixels")
    rng = np.random.default_rng([budget.seed, _STREAM_LABELS])
    perm = rng.permutation(total)

    def build(indices: np.ndarray) -> SelectionSet:
        rows = labeled[indices, 0]
        cols = labeled[indices, 1]
        return SelectionSet(rows=rows, cols=cols,
                            classes=truth.values[rows, cols])

    return (build(perm[:budget.n_train]),
            build(perm[budget.n_train:budget.n_train + budget.n_val]))


def _transform_pool(height: int, width: int) -> tuple[str, ...]:
    pool = ("identity", "hflip", "vflip", "rot180")
    if height == width:
        pool = pool + ("rot90", "rot270")
    return pool


def apply_transform(name: str, data: np.ndarray, sel: SelectionSet,
                    ) -> tuple[np.ndarray, SelectionSet]:
    """One named symmetry applied to a field and its label coordinates."""
    height, width = data.shape[1], data.shape[2]
    r, c = sel.rows, sel.cols
    if name == "identity":
        return data, sel
    if name == "hflip":
        out = data[:, :, ::-1]
        r2, c2 = r, width - 1 - c
    elif name == "vflip":
        out = data[:, ::-1, :]
        r2, c2 = height - 1 - r, c
    elif name == "rot180":
        out = data[:, ::-1, ::-1]
        r2, c2 = height - 1 - r, width - 1 - c
    elif name == "rot90":
        out = np.rot90(data, k=1, axes=(1, 2))
        r2, c2 = width - 1 - c, r
    elif name == "rot270":
        out = np.rot90(data, k=3, axes=(1, 2))
        r2, c2 = c, height - 1 - r
    else:
        raise ValueError(f"unknown transform {name!r}")
    if name in ("rot90", "rot270") and height != width:
        raise ValueError("90-degree rotations need a square field")
    return (np.ascontiguousarray(out),
            SelectionSet(rows=r2, cols=c2, classes=sel.classes))


def augment(data: np.ndarray, train_labels: SelectionSet, seed: int,
            step: int) -> tuple[np.ndarray, SelectionSet]:
    """A per-step seeded draw from the flip/rotation pool, labels kept aligned."""
    pool = _transform_pool(data.shape[1], data.shape[2])
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(step,)))
    name = pool[int(rng.integers(0, len(pool)))]
    return apply_transform(name, data, train_labels)


def write_class_map(path, cmap: ClassMap):
    """Header 'LBL1 H W', then H rows of W ids, -1 for unlabeled."""
    lines = [f"{LBL_MAGIC} {cmap.height} {cmap.width}"]
    lines.extend(" ".join(str(v) for v in row) for row in cmap.values)
    Path(path).write_text("\n".join(lines) + "\n")


def read_class_map(path) -> ClassMap:
    with in_file(path):
        (height, width), rows = _read_lbl(path)
        if len(rows) != height:
            raise ValueError(f"expected {height} rows, got {len(rows)}")
        if any(len(row) != width for row in rows):
            raise ValueError("row widths do not match header")
        return ClassMap(values=np.reshape(rows, (height, width)))


def write_selection(path, sel: SelectionSet, height: int, width: int):
    """Header 'LBL1 H W', then one 'row col class' triple per line."""
    lines = [f"{LBL_MAGIC} {height} {width}"]
    lines.extend(f"{r} {c} {k}" for r, c, k in sel.entries)
    Path(path).write_text("\n".join(lines) + "\n")


def read_selection(path) -> tuple[SelectionSet, tuple[int, int]]:
    with in_file(path):
        (height, width), rows = _read_lbl(path)
        rows = [row for row in rows if row]
        if any(len(row) != 3 for row in rows):
            raise ValueError("selection lines must be 'row col class'")
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        outside = ((arr[:, 0] < 0) | (arr[:, 0] >= height)
                   | (arr[:, 1] < 0) | (arr[:, 1] >= width))
        if outside.any():
            row, col, _ = arr[np.argmax(outside)]
            raise ValueError(f"label at row {row}, col {col} lies "
                             f"outside the {height}x{width} field")
        sel = SelectionSet(rows=arr[:, 0], cols=arr[:, 1], classes=arr[:, 2])
        return sel, (height, width)


def _read_lbl(path) -> tuple[tuple[int, int], list[list[int]]]:
    """The header's (H, W), and the integers of each later line."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError("empty label file")
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != LBL_MAGIC:
        raise ValueError(f"bad header {lines[0]!r}")
    shape = tuple(parse_value(v, "int", name)
                  for v, name in zip(parts[1:], ("height", "width")))
    return shape, [[parse_value(v, "int", "entry") for v in line.split()]
                   for line in lines[1:]]
