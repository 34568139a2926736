"""Cross-entropy on selected pixels and IoU metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepseg.losses import (
    ClassMap,
    IoUReport,
    iou,
    softmax_xent_matrix,
)
from stepseg.training import csv_text

from oracles import central_fd, iou_direct, softmax_xent_direct


def stacked(selected):
    """(logit-vector, class_id) pairs as a (num_classes, n) matrix and labels."""
    logits = np.stack([np.asarray(vec, dtype=np.float64)
                       for vec, _ in selected], axis=1)
    return logits, np.array([cls for _, cls in selected], dtype=np.int64)


class TestSoftmaxXent:
    def test_two_class_fixture(self):
        # logits (1.0, 2.0) with true class 0: loss = ln(1 + e)
        loss, grad = softmax_xent_matrix(np.array([[1.0], [2.0]]), [0])
        assert loss == pytest.approx(1.3132616875182228, abs=1e-15)
        p = (0.2689414213699951, 0.7310585786300049)
        np.testing.assert_allclose(grad[:, 0], [p[0] - 1.0, p[1]], atol=1e-15)

    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 7):
            selected = [(np.zeros(k), 1), (np.full(k, 3.25), 0)]
            loss, grad = softmax_xent_matrix(*stacked(selected))
            assert loss == math.log(k)
            for i, (_, cls) in enumerate(selected):
                onehot = np.zeros(k)
                onehot[cls] = 1.0
                np.testing.assert_allclose(grad[:, i], (1.0 / k - onehot) / 2,
                                           rtol=1e-15, atol=1e-16)

    def test_saturated_correct_prediction(self):
        loss, _ = softmax_xent_matrix(np.array([[1e3], [0.0]]), [0])
        assert 0.0 <= loss < 1e-300

    def test_large_logits_stay_finite(self):
        loss, grad = softmax_xent_matrix(np.array([[1e4], [-1e4]]), [1])
        assert math.isfinite(loss) and loss > 1e3
        assert np.all(np.isfinite(grad))

    def test_logits_spanning_past_float64_raise(self):
        # the shift of class 1 overflows to -inf: as the label its loss is
        # not finite, and the loss says so itself, with no numpy warning
        logits = np.array([[1e308], [-1e308]])
        with pytest.raises(FloatingPointError, match="nonfinite loss"):
            softmax_xent_matrix(logits, np.array([1]))
        loss, grad = softmax_xent_matrix(logits, np.array([0]))
        assert loss == 0.0 and np.all(np.isfinite(grad))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        selected = [(rng.standard_normal(k), int(rng.integers(0, k)))
                    for _ in range(n)]
        loss, grad = softmax_xent_matrix(*stacked(selected))
        want_loss, want_grads = softmax_xent_direct(selected)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for i, w in enumerate(want_grads):
            np.testing.assert_allclose(grad[:, i], w, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(40 + seed)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, size=4)

        def f(flat):
            value, _ = softmax_xent_matrix(flat.reshape(3, 4), labels)
            return value

        fd = central_fd(f, logits.reshape(-1), 1e-6).reshape(3, 4)
        _, grad = softmax_xent_matrix(logits.copy(), labels)
        assert float(np.abs(grad - fd).max()) < 1e-8

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent_matrix(np.zeros((2, 0)), np.zeros(0, dtype=np.int64))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent_matrix(np.zeros((2, 1)), [2])
        with pytest.raises(ValueError):
            softmax_xent_matrix(np.zeros((2, 1)), [-1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_loss_positive_and_grad_columns_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 4, size=3)
        loss, grad = softmax_xent_matrix(logits, labels)
        assert loss > 0.0
        # softmax minus onehot sums to zero per pixel
        np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-15)


class TestClassMap:
    def test_shape_and_mask(self):
        cmap = ClassMap(values=np.array([[0, -1], [1, 2]]))
        assert (cmap.height, cmap.width) == (2, 2)
        np.testing.assert_array_equal(cmap.labeled_mask,
                                      [[True, False], [True, True]])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            ClassMap(values=np.zeros(4, dtype=np.int64))

    def test_id_below_unlabeled_rejected(self):
        with pytest.raises(ValueError) as info:
            ClassMap(values=np.array([[0, -1], [-2, 1]]))
        assert str(info.value) == "class ids must be >= -1, got -2"


class TestIoU:
    def test_two_by_two_fixture(self):
        truth = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        report = iou(pred, truth, num_classes=2)
        per = {e.class_id: e for e in report.per_class}
        assert (per[0].intersection, per[0].union) == (1, 2)
        assert (per[1].intersection, per[1].union) == (2, 3)
        assert per[0].iou == pytest.approx(1 / 2)
        assert per[1].iou == pytest.approx(2 / 3)
        assert report.miou == pytest.approx(7 / 12)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, size=(6, 6))
        report = iou(truth, truth, num_classes=3)
        assert report.miou == 1.0
        assert all(e.iou == 1.0 for e in report.per_class)

    def test_complement_prediction_scores_zero(self):
        truth = np.array([[0, 0], [1, 1]])
        report = iou(1 - truth, truth, num_classes=2)
        assert report.miou == 0.0

    def test_unlabeled_pixels_ignored(self):
        truth = np.array([[0, -1], [-1, 1]])
        pred = np.array([[0, 1], [0, 1]])
        report = iou(pred, truth, num_classes=2)
        assert report.miou == 1.0

    def test_absent_class_excluded_from_mean(self):
        truth = np.array([[0, 0], [0, 0]])
        pred = np.array([[0, 0], [0, 0]])
        report = iou(pred, truth, num_classes=3)
        per = {e.class_id: e for e in report.per_class}
        assert per[1].iou is None and per[2].iou is None
        assert report.miou == 1.0

    def test_all_unlabeled_gives_zero(self):
        truth = np.full((3, 3), -1)
        report = iou(np.zeros((3, 3), dtype=np.int64), truth, num_classes=2)
        assert report.miou == 0.0
        assert all(e.iou is None for e in report.per_class)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2), dtype=np.int64),
                np.zeros((3, 3), dtype=np.int64), num_classes=2)

    def test_truth_class_beyond_num_classes_rejected(self):
        # a truth class no prediction can reach would leave the mean silently
        truth = np.array([[0, 2], [1, -1]])
        with pytest.raises(ValueError) as info:
            iou(np.zeros((2, 2), dtype=np.int64), truth, num_classes=2)
        assert str(info.value) == "truth holds class 2, outside 0-1"

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_prediction_outside_classes_rejected(self, bad):
        pred = np.array([[0, 1], [bad, 2]])
        with pytest.raises(ValueError) as info:
            iou(pred, np.array([[0, 1], [2, 2]]), num_classes=3)
        assert str(info.value) == f"prediction holds class {bad}, outside 0-2"

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_classes = int(rng.integers(2, 5))
        truth = rng.integers(-1, num_classes, size=(7, 7))
        pred = rng.integers(0, num_classes, size=(7, 7))
        report = iou(pred, truth, num_classes=num_classes)
        want_counts, want_miou = iou_direct(pred, truth, num_classes)
        for entry in report.per_class:
            assert (entry.intersection, entry.union) == want_counts[entry.class_id]
        assert report.miou == pytest.approx(want_miou, rel=1e-12, abs=1e-15)

    def test_csv_rows(self):
        # the rows the eval command writes to iou.csv, for a swept alpha
        truth = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        report = iou(pred, truth, num_classes=3)
        text = csv_text(("alpha", "class_id", "iou", "miou"),
                        [(0.5, c.class_id, c.iou, report.miou)
                         for c in report.per_class if c.iou is not None])
        lines = text.strip().split("\n")
        miou = repr((1 / 2 + 2 / 3) / 2)
        assert lines[0] == "alpha,class_id,iou,miou"
        assert lines[1] == f"0.5,0,{repr(1 / 2)},{miou}"
        assert lines[2] == f"0.5,1,{repr(2 / 3)},{miou}"
        assert len(lines) == 3  # class 2 has empty union, no row
