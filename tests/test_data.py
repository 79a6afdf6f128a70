import numpy as np
import pytest

from bayeshead import (
    CsvSchema,
    DataFormatError,
    FeatureDataset,
    ShiftConfig,
    balance_downsample,
    load_csv,
    save_csv,
    split,
    split_counts,
    synth_blobs,
    synth_shift,
)
from bayeshead.data import atomic_write


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1\na,0,1.0,2.0\nb,1,3.5,-1.0\nc,0,0.0,0.25\n")
        ds = load_csv(path)
        assert len(ds) == 3 and ds.feature_dim == 2
        assert ds.ids == ["a", "b", "c"]
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.name == "d"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path)

    def test_nonnumeric_feature_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\na,0,1.0\nb,1,oops\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1\na,0,1.0,2.0\nb,1,3.0\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\na,positive,1.0\n")
        with pytest.raises(DataFormatError, match="unknown label"):
            load_csv(path)
        path.write_text("id,label,f0\na,-2,1.0\n")
        with pytest.raises(DataFormatError, match="unknown label"):
            load_csv(path)

    def test_row_index_ids_without_id_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\n0,1.0\n1,2.0\n")
        ds = load_csv(path, CsvSchema(id_column=None))
        assert ds.ids == ["0", "1"]

    def test_explicit_feature_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1,junk\na,0,1.0,2.0,9\n")
        ds = load_csv(path, CsvSchema(feature_columns=("f0", "f1")))
        assert ds.feature_dim == 2
        with pytest.raises(DataFormatError, match="missing feature columns"):
            load_csv(path, CsvSchema(feature_columns=("fX",)))

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# config = echo\nid,label,f0\na,0,1.5\n")
        assert len(load_csv(path)) == 1

    def test_crlf_line_endings_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,label,f0,f1\r\na,0,1.0,2.0\r\nb,1,3.0,4.0\r\n")
        ds = load_csv(path)
        assert len(ds) == 2 and ds.feature_dim == 2

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\na,0,nan\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_csv(path)

    def test_roundtrip_identity(self, tmp_path):
        ds = synth_blobs(20, [(-2.0, 0.0), (2.0, 0.0)], 1.0, seed=3, name="rt")
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.ids == ds.ids


class TestBalanceDownsample:
    def test_unbalanced_counts(self):
        # 551 majority / 290 minority -> 290 / 290
        stream_ds = synth_blobs(551, [(0.0, 0.0), (5.0, 5.0)], 1.0, seed=1, name="unbal")
        keep = np.concatenate([np.arange(551), 551 + np.arange(290)])
        unbalanced = stream_ds.take(keep)
        balanced = balance_downsample(unbalanced, seed=7)
        assert balanced.class_counts() == {0: 290, 1: 290}

    def test_already_balanced_is_permutation(self):
        ds = synth_blobs(25, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=2)
        balanced = balance_downsample(ds, seed=9)
        assert balanced.class_counts() == ds.class_counts()
        assert sorted(balanced.ids) == sorted(ds.ids)

    def test_deterministic(self):
        ds = synth_blobs(30, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=2)
        a = balance_downsample(ds, seed=11)
        b = balance_downsample(ds, seed=11)
        assert a.ids == b.ids and np.array_equal(a.features, b.features)

    def test_empty_class_rejected(self):
        ds = FeatureDataset(np.ones((3, 1)), np.array([0, 0, 2]), ["a", "b", "c"])
        with pytest.raises(ValueError, match="class 1"):
            balance_downsample(ds, seed=0)


class TestSplit:
    def test_stratified_80_20(self):
        ds = synth_blobs(50, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        train, test = split(ds, [0.8, 0.2], seed=5)
        assert len(train) == 80 and len(test) == 20
        assert train.class_counts() == {0: 40, 1: 40}
        assert test.class_counts() == {0: 10, 1: 10}

    def test_disjoint_union_by_id(self):
        ds = synth_blobs(33, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        train, test = split(ds, [0.7, 0.3], seed=6)
        assert set(train.ids).isdisjoint(test.ids)
        assert set(train.ids) | set(test.ids) == set(ds.ids)

    def test_degenerate_fraction_warns(self):
        ds = synth_blobs(10, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        with pytest.warns(UserWarning, match="test split received no samples"):
            train, test = split(ds, [1.0, 0.0], seed=3)
        assert len(test) == 0 and len(train) == 20

    def test_deterministic(self):
        ds = synth_blobs(21, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        a = split(ds, [0.5, 0.5], seed=8)
        b = split(ds, [0.5, 0.5], seed=8)
        assert a[0].ids == b[0].ids and a[1].ids == b[1].ids

    def test_bad_fractions_rejected(self):
        ds = synth_blobs(5, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        with pytest.raises(ValueError):
            split(ds, [0.5, 0.6], seed=0)

    def test_fixed_count_protocol(self):
        ds = synth_blobs(60, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=4)
        train, test = split_counts(ds, test_per_class=10, seed=5)
        assert test.class_counts() == {0: 10, 1: 10}
        assert train.class_counts() == {0: 50, 1: 50}
        with pytest.raises(ValueError):
            split_counts(ds, test_per_class=61, seed=5)


class TestSynthBlobs:
    def test_counts_and_balance(self):
        ds = synth_blobs(100, [(-2.0, 0.0), (2.0, 0.0)], 1.0, seed=0)
        assert len(ds) == 200
        assert ds.class_counts() == {0: 100, 1: 100}

    def test_small_sigma_concentrates(self):
        ds = synth_blobs(50, [(-2.0, 0.0), (2.0, 0.0)], 1e-9, seed=1)
        centers = np.array([(-2.0, 0.0), (2.0, 0.0)])[ds.labels]
        assert np.max(np.abs(ds.features - centers)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(10, [(0.0, 0.0)], 1.0, seed=0)  # one class
        with pytest.raises(ValueError):
            synth_blobs(10, [(0.0, 0.0), (1.0, 1.0)], 0.0, seed=0)


class TestSynthShift:
    def test_all_zero_config_is_identity(self):
        ds = synth_blobs(10, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=2)
        shifted = synth_shift(ds, ShiftConfig(), seed=1)
        assert np.array_equal(shifted.features, ds.features)
        assert np.array_equal(shifted.labels, ds.labels)

    def test_labels_preserved(self):
        ds = synth_blobs(10, [(0.0, 0.0), (3.0, 3.0)], 1.0, seed=2)
        shifted = synth_shift(ds, ShiftConfig(noise_sigma=2.0, rotation_angle=0.5), seed=1)
        assert np.array_equal(shifted.labels, ds.labels)
        assert shifted.ids == ds.ids

    def test_noise_variance(self):
        zeros = FeatureDataset(
            np.zeros((5000, 2)), np.zeros(5000, dtype=int), [str(i) for i in range(5000)]
        )
        shifted = synth_shift(zeros, ShiftConfig(noise_sigma=0.5), seed=3)
        assert float(shifted.features.var()) == pytest.approx(0.25, abs=0.02)

    def test_rotation_acts_on_first_two_coordinates(self):
        feats = np.array([[1.0, 0.0, 7.0]])
        ds = FeatureDataset(feats, np.array([0]), ["a"])
        shifted = synth_shift(ds, ShiftConfig(rotation_angle=np.pi / 2), seed=0)
        assert np.allclose(shifted.features, [[0.0, 1.0, 7.0]], atol=1e-12)

    def test_rotation_requires_two_dims(self):
        ds = FeatureDataset(np.ones((2, 1)), np.array([0, 1]), ["a", "b"])
        with pytest.raises(ValueError):
            synth_shift(ds, ShiftConfig(rotation_angle=0.3), seed=0)

    def test_offset_translates(self):
        ds = synth_blobs(5, [(0.0, 0.0), (1.0, 1.0)], 0.5, seed=2)
        shifted = synth_shift(ds, ShiftConfig(ood_offset=(0.0, 6.0)), seed=0)
        assert np.allclose(shifted.features - ds.features, [0.0, 6.0], atol=1e-12)
        with pytest.raises(ValueError):
            synth_shift(ds, ShiftConfig(ood_offset=(1.0,)), seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(np.ones((2, 2)), np.array([0]), ["a", "b"])
    with pytest.raises(ValueError):
        FeatureDataset(np.ones((1, 2)), np.array([-1]), ["a"])
    with pytest.raises(ValueError):
        FeatureDataset(np.array([[np.inf, 0.0]]), np.array([0]), ["a"])


class TestAtomicWrite:
    def test_failed_save_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(synth_blobs(5, [(0.0, 0.0), (1.0, 1.0)], 1.0, seed=1), path)
        before = path.read_bytes()
        bad = synth_blobs(5, [(0.0, 0.0), (1.0, 1.0)], 1.0, seed=2)
        bad.ids = bad.ids[:3]  # the writer fails at row 3, after the header and three rows
        with pytest.raises(IndexError):
            save_csv(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_failed_block_removes_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("earlier\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            with atomic_write(path) as fh:
                fh.write("partial\n" * 100)
                fh.write("\ud800")  # a lone surrogate cannot be encoded
                fh.flush()
        assert path.read_text(encoding="utf-8") == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_new_file_has_plain_write_mode(self, tmp_path):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("x\n")
        (tmp_path / "b.txt").write_text("x\n", encoding="utf-8")
        assert (tmp_path / "a.txt").read_bytes() == b"x\n"
        assert (tmp_path / "a.txt").stat().st_mode == (tmp_path / "b.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
