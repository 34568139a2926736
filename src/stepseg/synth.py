"""Synthetic labeled scenes: piecewise-constant truth, noisy spectral data,
sparse point-label sampling, flip/rotation augmentation, and label file I/O.

A scene is built from seeded random rectangles and ellipses stamped onto a
class-0 background (later blobs overwrite earlier ones). Each pixel's data
vector is its class signature plus iid Gaussian noise. All randomness is
keyed so identical seeds give bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .losses import ClassMap
from .network import SelectionSet, check_fields, of_kind, parse_value
from .tensor_ops import in_file

LBL_MAGIC = "LBL1"

# Independent RNG substreams per purpose, each drawn as [seed, id], so e.g.
# changing blob geometry never shifts the noise draw; no two ids may agree.
# training's kernel init draws from "init".
RNG_STREAMS = {"blobs": 1, "noise": 2, "signatures": 3, "labels": 4,
               "init": 5}


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines one synthetic scene.

    The signatures, one Gaussian vector per class scaled by signature_scale,
    are drawn from the seed. The default noise level and signature scale put
    per-pixel nearest-signature accuracy around 0.65, low enough that spatial
    smoothing of the prediction has headroom to help.
    """

    seed: int = of_kind("int>=0")
    height: int = of_kind("int>=1", 64)
    width: int = of_kind("int>=1", 64)
    channels: int = of_kind("int>=1", 16)
    num_classes: int = of_kind("int>=1", 2)
    blob_count: int = of_kind("int>=0", 6)
    noise_sigma: float = of_kind("finite>=0", 1.2)
    signature_scale: float = of_kind("finite", 0.17)
    signatures: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        rng = np.random.default_rng([self.seed, RNG_STREAMS["signatures"]])
        with np.errstate(over="ignore"):  # an overflow is rejected below
            sigs = self.signature_scale * rng.standard_normal(
                (self.num_classes, self.channels))
        if not np.all(np.isfinite(sigs)) or any(
                np.array_equal(a, b) for a, b in combinations(sigs, 2)):
            raise ValueError(f"signature_scale must give finite, distinct "
                             f"class signatures, got {self.signature_scale!r}")
        object.__setattr__(self, "signatures", sigs)


make_scene_spec = SceneSpec


def gen_scene(spec: SceneSpec) -> tuple[np.ndarray, ClassMap]:
    """Data field (channels, H, W) and dense truth, deterministic in seed."""
    truth = np.zeros((spec.height, spec.width), dtype=np.int64)
    rng = np.random.default_rng([spec.seed, RNG_STREAMS["blobs"]])
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
        noise_rng = np.random.default_rng([spec.seed, RNG_STREAMS["noise"]])
        data += noise_rng.normal(0.0, spec.noise_sigma, size=data.shape)
    return data, ClassMap(values=truth)


@dataclass(frozen=True)
class LabelBudget:
    """How many labeled pixels to reveal for training and validation."""

    n_train: int = of_kind("int>=0")
    n_val: int = of_kind("int>=0")
    seed: int = of_kind("int>=0")

    __post_init__ = check_fields


def sample_labels(truth: ClassMap, budget: LabelBudget,
                  ) -> tuple[SelectionSet, SelectionSet]:
    """Disjoint train/val pixel sets, uniform without replacement."""
    labeled = np.argwhere(truth.labeled_mask)
    total = labeled.shape[0]
    if budget.n_train + budget.n_val > total:
        raise ValueError(f"budget {budget.n_train}+{budget.n_val} exceeds "
                         f"{total} labeled pixels")
    rng = np.random.default_rng([budget.seed, RNG_STREAMS["labels"]])
    perm = rng.permutation(total)

    def build(indices: np.ndarray) -> SelectionSet:
        rows = labeled[indices, 0]
        cols = labeled[indices, 1]
        return SelectionSet(rows=rows, cols=cols,
                            classes=truth.values[rows, cols])

    return (build(perm[:budget.n_train]),
            build(perm[budget.n_train:budget.n_train + budget.n_val]))


# the symmetries of a field's last two axes, each a view; the quarter
# turns swap the axes, so they keep only a square field's shape
_TRANSFORMS = {
    "identity": lambda a: a,
    "hflip": lambda a: a[..., ::-1],
    "vflip": lambda a: a[..., ::-1, :],
    "rot180": lambda a: a[..., ::-1, ::-1],
    "rot90": lambda a: np.rot90(a, 1, axes=(-2, -1)),
    "rot270": lambda a: np.rot90(a, 3, axes=(-2, -1)),
}


def apply_transform(name: str, data: np.ndarray, sel: SelectionSet,
                    ) -> tuple[np.ndarray, SelectionSet]:
    """One named symmetry applied to a field and its label coordinates.

    The same operation moves a grid of flat pixel indices, so each label
    lands where the moved grid holds its old index.
    """
    if name not in _TRANSFORMS:
        raise ValueError(f"unknown transform {name!r}")
    move = _TRANSFORMS[name]
    height, width = data.shape[-2:]
    grid = move(np.arange(height * width).reshape(height, width))
    if grid.shape != (height, width):
        raise ValueError(f"{name} needs a square field, got {height}x{width}")
    landing = np.empty(grid.size, dtype=np.int64)
    landing[grid.ravel()] = np.arange(grid.size)
    rows, cols = np.divmod(landing[sel.rows * width + sel.cols], width)
    return (np.ascontiguousarray(move(data)),
            SelectionSet(rows=rows, cols=cols, classes=sel.classes))


def augment(data: np.ndarray, train_labels: SelectionSet, seed: int,
            step: int) -> tuple[np.ndarray, SelectionSet]:
    """A per-step seeded draw from the symmetries that keep the field's
    shape, labels kept aligned."""
    pool = [name for name, move in _TRANSFORMS.items()
            if move(data).shape == data.shape]
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
