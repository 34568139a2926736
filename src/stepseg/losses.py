"""Pixel-selected classification loss and segmentation quality metrics.

The data-fit term is softmax cross-entropy averaged over labeled pixels.
Quality is per-class intersection-over-union and its mean, computed only
over pixels the ground truth labels (id -1 marks unlabeled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

UNLABELED = -1


@dataclass(frozen=True)
class ClassMap:
    """Per-pixel integer class ids, UNLABELED (-1) where no truth exists."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError(f"class map must be 2-d, got shape {values.shape}")
        if values.size and values.min() < UNLABELED:
            raise ValueError(f"class ids must be >= {UNLABELED}, "
                             f"got {values.min()}")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.values >= 0


def softmax_xent_matrix(logits: np.ndarray, labels: np.ndarray,
                        ) -> tuple[float, np.ndarray]:
    """Loss and gradient with pixels as columns of a (num_classes, n) matrix.

    Returns (loss, grad) with grad = (softmax - onehot) / n, stabilized by
    per-column max subtraction. Raises on n == 0 (mean undefined), and
    FloatingPointError("nonfinite loss"), with no numpy warning, when the
    loss is not finite, as when a label's logit lies further below its
    column's max than float64 can hold.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-d (num_classes, n), got {logits.shape}")
    num_classes, count = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise ValueError(f"labels shape {labels.shape} does not match {count} pixels")
    if count == 0:
        raise ValueError("no labeled pixels, mean loss undefined")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range")

    cols = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=0, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=0, keepdims=True)
        probs = exp / total
        log_probs = shifted[labels, cols] - np.log(total[0, cols])
        loss = -float(log_probs.sum()) / count
    if not math.isfinite(loss):
        raise FloatingPointError("nonfinite loss")

    grad = probs
    grad[labels, cols] -= 1.0
    grad /= count
    return loss, grad


@dataclass(frozen=True)
class ClassIoU:
    """Intersection/union pixel counts for one class."""

    class_id: int
    intersection: int
    union: int

    @property
    def iou(self) -> Optional[float]:
        """None when the class appears in neither prediction nor truth."""
        if self.union == 0:
            return None
        return self.intersection / self.union


@dataclass(frozen=True)
class IoUReport:
    """All per-class counts plus the mean over classes with defined IoU.

    miou is 0.0 when no class has a nonempty union.
    """

    per_class: tuple[ClassIoU, ...]
    miou: float


def iou(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> IoUReport:
    """Per-class IoU for classes 0..num_classes-1 over the pixels where
    truth is labeled, from one count of predicted, true and correct ids;
    a truth id or prediction there outside 0..num_classes-1 raises."""
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    mask = truth >= 0
    p, t = pred[mask], truth[mask]
    for name, ids in (("truth", t), ("prediction", p)):
        if (bad := ids[(ids < 0) | (ids >= num_classes)]).size:
            raise ValueError(f"{name} holds class {bad[0]}, outside 0-{num_classes - 1}")
    predicted, true, correct = (np.bincount(ids, minlength=num_classes)
                                for ids in (p, t, t[p == t]))
    per_class = tuple(
        ClassIoU(class_id=c, intersection=int(i), union=int(u))
        for c, (i, u) in enumerate(zip(correct, predicted + true - correct)))
    defined = [entry.iou for entry in per_class if entry.iou is not None]
    miou = sum(defined) / len(defined) if defined else 0.0
    return IoUReport(per_class=per_class, miou=miou)
