"""Scene generation, sparse label sampling, augmentation, label file I/O."""

import numpy as np
import pytest

from stepseg.losses import UNLABELED, ClassMap
from stepseg.network import SelectionSet, select_matrix
from stepseg.synth import (
    RNG_STREAMS,
    LabelBudget,
    apply_transform,
    augment,
    gen_scene,
    make_scene_spec,
    read_class_map,
    read_selection,
    sample_labels,
    write_class_map,
    write_selection,
)

from oracles import mask_position, nearest_signature_classify


def checkerboard_truth(side=8):
    values = (np.add.outer(np.arange(side), np.arange(side)) % 2)
    return ClassMap(values=values.astype(np.int64))


def test_rng_stream_ids_are_distinct():
    # two purposes sharing an id would draw the same numbers from one seed
    assert len(set(RNG_STREAMS.values())) == len(RNG_STREAMS)


class TestSceneSpec:
    def test_duplicate_signatures_rejected(self):
        # a zero scale makes every row zero
        with pytest.raises(ValueError, match="signature"):
            make_scene_spec(seed=0, signature_scale=0.0)

    def test_noise_sigma_must_be_finite_nonnegative(self):
        for sigma in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma"):
                make_scene_spec(seed=0, noise_sigma=sigma)

    def test_negative_blob_count_rejected(self):
        with pytest.raises(ValueError, match="blob_count"):
            make_scene_spec(seed=0, blob_count=-1)

    def test_negative_seed_rejected(self):
        # before numpy's seeding, whose message does not name the seed
        with pytest.raises(ValueError) as info:
            make_scene_spec(seed=-1)
        assert str(info.value) == "seed must be an integer >= 0, got -1"

    def test_signatures_depend_only_on_seed_and_scale(self):
        a = make_scene_spec(seed=7, signature_scale=1.0)
        b = make_scene_spec(seed=7, height=9, blob_count=0, noise_sigma=0.0,
                            signature_scale=2.0)
        np.testing.assert_array_equal(2.0 * a.signatures, b.signatures)


class TestGenScene:
    def test_no_blobs_no_noise_is_constant_background(self):
        spec = make_scene_spec(seed=3, height=6, width=5, channels=4,
                               blob_count=0, noise_sigma=0.0)
        data, truth = gen_scene(spec)
        np.testing.assert_array_equal(truth.values, np.zeros((6, 5)))
        for c in range(4):
            np.testing.assert_array_equal(
                data[c], np.full((6, 5), spec.signatures[0, c]))

    def test_same_seed_is_bitwise_identical(self):
        spec = make_scene_spec(seed=4, height=16, width=16)
        d1, t1 = gen_scene(spec)
        d2, t2 = gen_scene(spec)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(t1.values, t2.values)

    def test_shapes_and_dtypes(self):
        spec = make_scene_spec(seed=5, height=10, width=12, channels=7,
                               num_classes=3)
        data, truth = gen_scene(spec)
        assert data.shape == (7, 10, 12)
        assert data.dtype == np.float64
        assert truth.values.shape == (10, 12)
        assert truth.values.dtype == np.int64
        assert truth.values.min() >= 0
        assert truth.values.max() < 3

    def test_noiseless_scene_is_nearest_signature_classifiable(self):
        spec = make_scene_spec(seed=6, height=12, width=12, channels=5,
                               num_classes=2, blob_count=3, noise_sigma=0.0)
        data, truth = gen_scene(spec)
        assert truth.values.max() == 1, "fixture needs both classes present"
        np.testing.assert_array_equal(
            nearest_signature_classify(data, spec.signatures), truth.values)

    def test_noise_stream_is_independent_of_blob_count(self):
        # Same seed, different geometry: the additive noise field must be
        # identical (recovered up to the rounding of one add/subtract pair).
        a = make_scene_spec(seed=7, height=8, width=8, channels=3,
                            blob_count=0, noise_sigma=1.0)
        b = make_scene_spec(seed=7, height=8, width=8, channels=3,
                            blob_count=4, noise_sigma=1.0)
        data_a, truth_a = gen_scene(a)
        data_b, truth_b = gen_scene(b)
        noise_a = data_a - a.signatures[truth_a.values].transpose(2, 0, 1)
        noise_b = data_b - b.signatures[truth_b.values].transpose(2, 0, 1)
        np.testing.assert_allclose(noise_a, noise_b, rtol=0, atol=1e-12)

    def test_noise_moments(self):
        spec = make_scene_spec(seed=8, height=64, width=64, channels=16,
                               blob_count=0, noise_sigma=2.0)
        data, _ = gen_scene(spec)
        noise = data - spec.signatures[0][:, None, None]
        assert abs(float(noise.mean())) < 0.05
        assert abs(float(noise.std()) - 2.0) < 0.05

    def test_different_seeds_differ(self):
        d1, _ = gen_scene(make_scene_spec(seed=1, height=16, width=16))
        d2, _ = gen_scene(make_scene_spec(seed=2, height=16, width=16))
        assert not np.array_equal(d1, d2)

    def test_default_scene_classes_are_nondegenerate(self):
        # The headline experiment's scene must expose every class with at
        # least 1% of pixels or the metric comparisons get vacuous.
        data, truth = gen_scene(make_scene_spec(seed=1))
        total = truth.values.size
        for k in range(2):
            assert np.sum(truth.values == k) >= 0.01 * total


class TestSampleLabels:
    def test_zero_budget_gives_empty_sets(self):
        tr, va = sample_labels(checkerboard_truth(), LabelBudget(0, 0, seed=0))
        assert len(tr) == 0 and len(va) == 0

    def test_full_budget_covers_every_pixel_once(self):
        truth = checkerboard_truth(4)
        tr, va = sample_labels(truth, LabelBudget(10, 6, seed=1))
        seen = {(r, c) for r, c, _ in tr.entries} | \
               {(r, c) for r, c, _ in va.entries}
        assert len(tr) + len(va) == 16
        assert seen == {(r, c) for r in range(4) for c in range(4)}

    def test_train_val_disjoint_and_truthful(self):
        truth = checkerboard_truth(8)
        for seed in range(10):
            tr, va = sample_labels(truth, LabelBudget(20, 10, seed=seed))
            train_px = {(r, c) for r, c, _ in tr.entries}
            val_px = {(r, c) for r, c, _ in va.entries}
            assert not train_px & val_px
            for r, c, k in tr.entries + va.entries:
                assert truth.values[r, c] == k

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            sample_labels(checkerboard_truth(4), LabelBudget(12, 5, seed=0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError,
                           match="n_train must be an integer >= 0, got -1"):
            LabelBudget(-1, 2, seed=0)

    def test_unlabeled_pixels_never_sampled(self):
        values = np.full((6, 6), UNLABELED, dtype=np.int64)
        values[2:4, 1:5] = 1
        truth = ClassMap(values=values)
        tr, va = sample_labels(truth, LabelBudget(5, 3, seed=2))
        for r, c, k in tr.entries + va.entries:
            assert values[r, c] == k == 1

    def test_golden_draw_8x8_budget_4_2(self):
        # Frozen from the first audited run of the seeded sampler.
        tr, va = sample_labels(checkerboard_truth(8), LabelBudget(4, 2, seed=11))
        assert tr.entries == [(4, 1, 1), (5, 6, 1), (2, 5, 1), (0, 5, 1)]
        assert va.entries == [(4, 4, 0), (2, 6, 0)]

    def test_sampling_is_roughly_uniform(self):
        truth = checkerboard_truth(4)
        hits = np.zeros((4, 4))
        for seed in range(200):
            tr, _ = sample_labels(truth, LabelBudget(4, 0, seed=seed))
            for r, c, _ in tr.entries:
                hits[r, c] += 1
        # 200 draws of 4 from 16 pixels: expectation 50 per pixel.
        assert hits.min() >= 25 and hits.max() <= 75


class TestApplyTransform:
    def field_and_labels(self, seed=0, height=6, width=6):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, height, width))
        sel = SelectionSet(rows=[0, height - 1, 2], cols=[width - 1, 0, 3],
                          classes=[1, 0, 1])
        return data, sel

    def test_identity(self):
        data, sel = self.field_and_labels()
        out, sel2 = apply_transform("identity", data, sel)
        np.testing.assert_array_equal(out, data)
        assert sel2.entries == sel.entries

    def test_flips_and_rot180_are_involutions(self):
        data, sel = self.field_and_labels(height=5, width=7)
        for name in ("hflip", "vflip", "rot180"):
            once, sel1 = apply_transform(name, data, sel)
            twice, sel2 = apply_transform(name, once, sel1)
            np.testing.assert_array_equal(twice, data)
            assert sel2.entries == sel.entries

    def test_rot90_then_rot270_is_identity(self):
        data, sel = self.field_and_labels()
        once, sel1 = apply_transform("rot90", data, sel)
        back, sel2 = apply_transform("rot270", once, sel1)
        np.testing.assert_array_equal(back, data)
        assert sel2.entries == sel.entries

    @pytest.mark.parametrize("name", ["identity", "hflip", "vflip", "rot180",
                                      "rot90", "rot270"])
    def test_coordinates_follow_a_one_hot_mask(self, name):
        # Transport oracle: a 1.0 planted at the labeled pixel must land
        # exactly where the transformed coordinates claim.
        for r, c in [(0, 0), (2, 5), (4, 1)]:
            mask = np.zeros((1, 6, 6))
            mask[0, r, c] = 1.0
            sel = SelectionSet(rows=[r], cols=[c], classes=[1])
            out, sel2 = apply_transform(name, mask, sel)
            assert mask_position(out[0]) == (int(sel2.rows[0]),
                                             int(sel2.cols[0]))

    @pytest.mark.parametrize("name", ["identity", "hflip", "vflip", "rot180",
                                      "rot90", "rot270"])
    def test_label_correspondence_preserved(self, name):
        data, sel = self.field_and_labels(seed=3)
        out, sel2 = apply_transform(name, data, sel)
        np.testing.assert_array_equal(select_matrix(out, sel2),
                                      select_matrix(data, sel))
        np.testing.assert_array_equal(sel2.classes, sel.classes)

    def test_rectangular_field_correspondence(self):
        data, sel = self.field_and_labels(seed=4, height=4, width=9)
        for name in ("hflip", "vflip", "rot180"):
            out, sel2 = apply_transform(name, data, sel)
            np.testing.assert_array_equal(select_matrix(out, sel2),
                                          select_matrix(data, sel))

    def test_quarter_rotation_needs_square_field(self):
        data, sel = self.field_and_labels(height=4, width=6)
        for name in ("rot90", "rot270"):
            with pytest.raises(ValueError, match="square"):
                apply_transform(name, data, sel)

    def test_unknown_transform_rejected(self):
        data, sel = self.field_and_labels()
        with pytest.raises(ValueError, match="transform"):
            apply_transform("transpose", data, sel)


class TestAugment:
    def test_deterministic_per_seed_and_step(self):
        data, sel = TestApplyTransform().field_and_labels(seed=5)
        a_data, a_sel = augment(data, sel, seed=9, step=4)
        b_data, b_sel = augment(data, sel, seed=9, step=4)
        np.testing.assert_array_equal(a_data, b_data)
        assert a_sel.entries == b_sel.entries

    def test_step_stream_hits_every_pool_member(self):
        data, sel = TestApplyTransform().field_and_labels(seed=6)
        pool = ("identity", "hflip", "vflip", "rot180", "rot90", "rot270")
        counts = dict.fromkeys(pool, 0)
        for step in range(120):
            out, _ = augment(data, sel, seed=5, step=step)
            matches = [n for n in pool
                       if np.array_equal(out, apply_transform(n, data, sel)[0])]
            assert len(matches) == 1
            counts[matches[0]] += 1
        assert min(counts.values()) >= 5

    def test_rectangular_fields_stay_rectangular(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 5, 9))
        sel = SelectionSet(rows=[1], cols=[8], classes=[1])
        for step in range(40):
            out, _ = augment(data, sel, seed=3, step=step)
            assert out.shape == (2, 5, 9)

    def test_correspondence_preserved(self):
        data, sel = TestApplyTransform().field_and_labels(seed=8)
        for step in range(12):
            out, sel2 = augment(data, sel, seed=1, step=step)
            np.testing.assert_array_equal(select_matrix(out, sel2),
                                          select_matrix(data, sel))


class TestLabelFiles:
    def test_class_map_roundtrip(self, tmp_path):
        values = np.array([[0, 1, UNLABELED], [2, UNLABELED, 0]], dtype=np.int64)
        path = tmp_path / "truth.lbl"
        write_class_map(path, ClassMap(values=values))
        np.testing.assert_array_equal(read_class_map(path).values, values)

    def test_class_map_file_layout(self, tmp_path):
        path = tmp_path / "truth.lbl"
        write_class_map(path, ClassMap(values=np.array([[0, -1], [1, 2]])))
        assert path.read_text() == "LBL1 2 2\n0 -1\n1 2\n"

    def test_selection_roundtrip(self, tmp_path):
        sel = SelectionSet(rows=[0, 3], cols=[2, 1], classes=[1, 0])
        path = tmp_path / "labels.lbl"
        write_selection(path, sel, height=4, width=4)
        loaded, dims = read_selection(path)
        assert dims == (4, 4)
        assert loaded.entries == sel.entries

    def test_empty_selection_roundtrip(self, tmp_path):
        path = tmp_path / "labels.lbl"
        write_selection(path, SelectionSet(rows=[], cols=[], classes=[]),
                        height=3, width=5)
        loaded, dims = read_selection(path)
        assert dims == (3, 5)
        assert len(loaded) == 0

    def test_selection_file_layout(self, tmp_path):
        path = tmp_path / "labels.lbl"
        write_selection(path, SelectionSet(rows=[1], cols=[2], classes=[0]),
                        height=3, width=4)
        assert path.read_text() == "LBL1 3 4\n1 2 0\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.lbl"
        path.write_text("NOPE 2 2\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="header"):
            read_class_map(path)
        with pytest.raises(ValueError, match="header"):
            read_selection(path)

    @pytest.mark.parametrize("reader,text,message", [
        (read_class_map, "LBL1 2 x\n0 0\n0 0\n",
         "width must be an integer, got 'x'"),
        (read_selection, "LBL1 2.5 2\n", "height must be an integer, got '2.5'"),
        (read_class_map, "LBL1 2 2\n0 0\n0 x\n",
         "entry must be an integer, got 'x'"),
        (read_selection, "LBL1 2 2\n0 x 1\n",
         "entry must be an integer, got 'x'")])
    def test_non_integer_rejected_with_path(self, tmp_path, reader, text,
                                            message):
        path = tmp_path / "bad.lbl"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.lbl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_class_map(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.lbl"
        path.write_text("LBL1 3 2\n0 0\n1 1\n")
        with pytest.raises(ValueError, match="rows"):
            read_class_map(path)

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ragged.lbl"
        path.write_text("LBL1 2 2\n0 0 0\n1 1 1\n")
        with pytest.raises(ValueError, match="width"):
            read_class_map(path)

    def test_bad_triple_rejected(self, tmp_path):
        path = tmp_path / "bad.lbl"
        path.write_text("LBL1 4 4\n1 2\n")
        with pytest.raises(ValueError, match="row col class"):
            read_selection(path)

    @pytest.mark.parametrize("triple", ["4 0 1", "0 4 1", "-1 0 1", "0 -1 0"])
    def test_label_outside_header_field_rejected(self, tmp_path, triple):
        path = tmp_path / "labels.lbl"
        path.write_text(f"LBL1 4 4\n1 2 0\n{triple}\n")
        with pytest.raises(ValueError, match="labels.lbl.*outside the 4x4"):
            read_selection(path)

