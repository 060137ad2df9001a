import tracemalloc
import warnings

import numpy as np
import pytest

from zigprune.config import build_layers
from zigprune.data import (
    Dataset,
    classification_accuracy,
    generate_blobs,
    generate_group_lasso,
    load_csv,
    load_idx,
    write_idx_images,
    write_idx_labels,
)
from zigprune.errors import FormatError, ParameterError, ShapeError
from zigprune.model import ModelGraph


FLOAT32_FAULT = "a value float32 cannot hold (nan, inf, or past +-3.4e38)"


def no_warnings(load, *args, **kwargs):
    """`load(*args, **kwargs)` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load(*args, **kwargs)


class TestGroupLassoGenerator:
    def test_no_noise_no_support_gives_exactly_zero_targets(self):
        ds, x_true = generate_group_lasso(5, 3, 0, 20, noise=0.0, seed=0)
        assert np.all(ds.targets == 0.0)
        assert np.all(x_true == 0.0)

    def test_planted_support_size_and_norms(self):
        ds, x_true = generate_group_lasso(8, 4, 3, 50, noise=0.01, seed=1, coef_scale=2.0)
        nz = [g for g in range(8) if np.any(x_true[g * 4 : (g + 1) * 4] != 0)]
        assert len(nz) == 3
        for g in nz:
            assert np.linalg.norm(x_true[g * 4 : (g + 1) * 4]) == pytest.approx(2.0)

    def test_same_seed_identical_bytes(self):
        a, _ = generate_group_lasso(6, 5, 2, 30, 0.05, seed=7)
        b, _ = generate_group_lasso(6, 5, 2, 30, 0.05, seed=7)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_support_larger_than_groups_rejected(self):
        with pytest.raises(ShapeError):
            generate_group_lasso(3, 2, 5, 10, 0.0, seed=0)

    # 1e300 fits float64 but not float32; 1e308 overflows float64 on the way
    @pytest.mark.parametrize("noise,coef_scale", [(1e300, 1.0), (1e308, 1.0), (0.0, 1e300)])
    def test_targets_float32_cannot_hold_name_the_arguments(self, noise, coef_scale):
        with pytest.raises(ParameterError) as err:
            no_warnings(generate_group_lasso, 3, 2, 1, 10, noise, seed=0, coef_scale=coef_scale)
        assert str(err.value) == f"coef_scale = {coef_scale}, noise = {noise}: {FLOAT32_FAULT}"


class TestBlobs:
    def test_shapes_splits_and_determinism(self):
        ds = generate_blobs(4, 6, 40, 20, separation=3.0, seed=2)
        assert ds.inputs.shape == (60, 6)
        assert ds.task == "classify"
        assert ds.subset("train").n == 40
        assert ds.subset("test").n == 20
        again = generate_blobs(4, 6, 40, 20, separation=3.0, seed=2)
        assert ds.inputs.tobytes() == again.inputs.tobytes()

    def test_every_class_present(self):
        ds = generate_blobs(5, 4, 50, 25, separation=2.0, seed=3)
        assert set(np.unique(ds.targets)) == set(range(5))

    @pytest.mark.parametrize("separation", [1e300, 1e308])
    def test_inputs_float32_cannot_hold_name_separation(self, separation):
        with pytest.raises(ParameterError) as err:
            no_warnings(generate_blobs, 3, 2, 10, 0, separation, seed=0)
        assert str(err.value) == f"separation = {separation}: {FLOAT32_FAULT}"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2), dtype=np.float32), np.zeros(4), task="regress")


# case -> (file, edit of its bytes, FormatError text, offset), for 2 3x3 images and 2 labels
IDX_ERRORS = {
    "image-magic": ("img", lambda b: b"\0\0\x08\x99" + b[4:], "bad IDX image magic 0x00000899", 0),
    "label-magic": ("lbl", lambda b: b"\0\0\x08\x03" + b[4:], "bad IDX label magic 0x00000803", 0),
    "image-magic-cut": ("img", lambda b: b[:2], "truncated IDX file: wanted magic at offset 0", 0),
    "image-rows-cut": ("img", lambda b: b[:10], "truncated IDX file: wanted rows at offset 8", 8),
    "image-cols-cut": ("img", lambda b: b[:14], "truncated IDX file: wanted cols at offset 12", 12),
    "label-count-cut": ("lbl", lambda b: b[:6], "truncated IDX file: wanted count at offset 4", 4),
    "image-payload": ("img", lambda b: b[:-1], "IDX image payload has 17 bytes, expected 18", 16),
    "label-payload": ("lbl", lambda b: b + b"\0", "IDX label payload has 3 bytes, expected 2", 8),
    # three u32 extents whose product overflows int64
    "image-extents-overflow": (
        "img", lambda b: b[:4] + b"\xff" * 12,
        f"IDX image payload has 0 bytes, expected {(2**32 - 1) ** 3}", 16,
    ),
}


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (7, 1, 5, 4)
        assert np.allclose(ds.inputs[:, 0] * 255.0, images)
        assert np.array_equal(ds.targets, labels.astype(np.int64))

    def test_scaling_is_bitwise_and_holds_one_float_copy(self, tmp_path):
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, rng.integers(0, 10, size=2000))
        tracemalloc.start()
        try:
            ds = load_idx(ip, lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = (images.astype(np.float32) / 255.0)[:, None]
        assert ds.inputs.tobytes() == expected.tobytes()
        # the file's uint8 payload is held while it converts; beyond it, one
        # float32 copy (two copies would reach 2x the result)
        assert peak <= images.nbytes + 1.2 * ds.inputs.nbytes

    def test_all_zero_image(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_images(ip, np.zeros((1, 3, 3), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (1, 1, 3, 3)
        assert np.all(ds.inputs == 0.0)

    def test_bad_magic_carries_offset(self, tmp_path):
        ip = tmp_path / "img.idx"
        ip.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic") as err:
            load_idx(ip, ip)
        assert err.value.offset == 0

    def test_truncated_payload_carries_offset(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_images(ip, np.zeros((2, 3, 3), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        blob = ip.read_bytes()
        ip.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="payload") as err:
            load_idx(ip, lp)
        assert err.value.offset == 16

    @pytest.mark.parametrize("case", sorted(IDX_ERRORS))
    def test_format_error_text_and_offset(self, tmp_path, case):
        target, edit, message, offset = IDX_ERRORS[case]
        paths = {"img": tmp_path / "img.idx", "lbl": tmp_path / "lbl.idx"}
        write_idx_images(paths["img"], np.zeros((2, 3, 3), dtype=np.uint8))
        write_idx_labels(paths["lbl"], np.zeros(2, dtype=np.uint8))
        paths[target].write_bytes(edit(paths[target].read_bytes()))
        with pytest.raises(FormatError) as err:
            load_idx(paths["img"], paths["lbl"])
        assert (str(err.value), err.value.offset) == (message, offset)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx_images(ip, np.zeros((2, 3, 3), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(FormatError, match="count"):
            load_idx(ip, lp)


class TestCsv:
    def test_class_targets(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("# header comment\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(f, target="class")
        assert ds.task == "classify"
        assert ds.inputs.shape == (2, 2)
        assert np.array_equal(ds.targets, [0, 1])

    def test_value_targets(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,0.5\n2.0,0.25\n")
        ds = load_csv(f, target="value")
        assert ds.task == "regress"
        assert np.allclose(ds.targets, [0.5, 0.25])

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\nbad,row\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(f, target="value")

    def test_fractional_class_label_rejected(self, tmp_path):
        # int64 conversion would silently truncate 1.5 to class 1
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,0\n3.0,4.0,1.5\n")
        with pytest.raises(FormatError, match="line 2: class label '1.5' is not an integer"):
            load_csv(f, target="class")
        f.write_text("1.0,2.0,0\n3.0,4.0,1.0\n")
        assert np.array_equal(load_csv(f, target="class").targets, [0, 1])

    @pytest.mark.parametrize("label", ["1e20", "9223372036854775808", "-1e19"])
    def test_class_label_outside_int64_rejected(self, tmp_path, label):
        f = tmp_path / "d.csv"
        f.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(FormatError, match=f"^line 2: class label '{label}' is not an integer"):
            load_csv(f, target="class")

    @pytest.mark.parametrize("target", ["class", "value"])
    @pytest.mark.parametrize("feature", ["nan", "inf", "-inf", "1e39", "-1e39"])
    def test_feature_float32_cannot_hold_names_the_line(self, tmp_path, feature, target):
        f = tmp_path / "d.csv"
        f.write_text(f"# comment\n1.0,2.0,0\n3.0,{feature},1\n")
        with pytest.raises(FormatError) as err:
            no_warnings(load_csv, f, target=target)
        assert str(err.value) == f"line 3: {FLOAT32_FAULT}"

    @pytest.mark.parametrize("value", ["nan", "1e39", "-inf"])
    def test_value_target_float32_cannot_hold_names_the_line(self, tmp_path, value):
        f = tmp_path / "d.csv"
        f.write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(FormatError) as err:
            no_warnings(load_csv, f, target="value")
        assert str(err.value) == f"line 2: {FLOAT32_FAULT}"

    def test_values_rounding_to_float32_max_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("3.4028235e38,-3.4028235e38\n")
        ds = no_warnings(load_csv, f, target="value")
        top = np.finfo(np.float32).max
        assert ds.inputs.tolist() == [[top]] and ds.targets.tolist() == [-top]

    def test_inconsistent_width(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(FormatError, match="inconsistent"):
            load_csv(f)


def test_classification_accuracy_on_identity_model():
    layers = build_layers(["linear:2"], (2,), None, "zeros", 0)
    m = ModelGraph(layers, (2,))
    m.params["L0.weight"].data[...] = np.eye(2, dtype=np.float32)
    inputs = np.array([[2.0, 0.0], [0.0, 3.0], [5.0, 1.0]], dtype=np.float32)
    ds = Dataset(inputs, np.array([0, 1, 1]), task="classify")
    assert classification_accuracy(m, ds) == pytest.approx(2 / 3)
