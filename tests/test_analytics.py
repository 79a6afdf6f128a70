import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayeshead import (
    DenseLayer,
    EvalReport,
    FeatureDataset,
    HeadModel,
    ReferralThresholds,
    RngStream,
    compare_report,
    entropy_histogram,
    evaluate,
    kde,
    predict_deterministic,
    predict_mc,
    referral_decision,
    silverman_bandwidth,
)
from bayeshead.analytics import _BLOCK_ROWS, comparison_csv, entropy_histogram_csv, kde_csv


def _passthrough_model() -> HeadModel:
    """Baseline head whose logits equal the (nonnegative) input features."""
    hidden = DenseLayer(np.eye(2), np.zeros(2), "relu")
    output = DenseLayer(np.eye(2), np.zeros(2), "identity")
    return HeadModel(hidden, output, 2)


def _dataset(features, labels, name="rig"):
    return FeatureDataset(np.array(features, dtype=float), np.array(labels),
                          [f"r{i}" for i in range(len(labels))], name)


class TestEvaluate:
    def test_counting_example(self):
        # predictions [1, 0, 1] against labels [1, 1, 1]
        dataset = _dataset([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]], [1, 1, 1])
        report = evaluate(_passthrough_model(), dataset, 1, ReferralThresholds(), RngStream(0))
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.confusion.tolist() == [[0, 0], [1, 2]]

    def test_single_correct_sample(self):
        dataset = _dataset([[0.0, 1.0]], [1])
        report = evaluate(_passthrough_model(), dataset, 1, ReferralThresholds(), RngStream(0))
        assert report.accuracy == 1.0
        assert report.mean_entropy_incorrect is None
        assert report.mean_entropy_correct is not None

    def test_baseline_variant_zero_variance_and_confidence_referrals(self):
        dataset = _dataset([[3.0, 0.0], [0.1, 0.0], [0.0, 5.0]], [0, 0, 1])
        thresholds = ReferralThresholds(uncertainty=0.0, confidence=0.9)
        report = evaluate(_passthrough_model(), dataset, 1, thresholds, RngStream(0))
        assert all(r.uncertainty == 0.0 for r in report.records)
        confident = [max(r.mean_probs) >= 0.9 for r in report.records]
        assert [r.action == "accept" for r in report.records] == confident

    def test_accuracy_equals_one_minus_offdiagonal(self):
        stream = RngStream(5)
        feats = np.abs(stream.normal(40).reshape(20, 2))
        labels = (stream.normal(20) > 0).astype(int)
        dataset = _dataset(feats, labels)
        report = evaluate(_passthrough_model(), dataset, 1, ReferralThresholds(), RngStream(0))
        off = report.confusion.sum() - np.trace(report.confusion)
        assert report.accuracy == 1.0 - off / len(dataset)

    def test_bayes_eval_workers_identical(self, tiny_bayes):
        dataset = _dataset([[1.0, 0.2], [-0.4, 1.0], [2.0, -1.0]], [0, 1, 0])
        a = evaluate(tiny_bayes, dataset, 16, ReferralThresholds(), RngStream(2), workers=1)
        b = evaluate(tiny_bayes, dataset, 16, ReferralThresholds(), RngStream(2), workers=4)
        assert a.to_dict() == b.to_dict()

    def test_shape_mismatch_rejected(self, tiny_bayes):
        bad = _dataset([[1.0, 2.0, 3.0]], [0])
        with pytest.raises(ValueError):
            evaluate(tiny_bayes, bad, 4, ReferralThresholds(), RngStream(0))

    def test_report_dict_roundtrip(self, tiny_bayes):
        dataset = _dataset([[1.0, 0.2], [-0.4, 1.0]], [0, 1])
        report = evaluate(tiny_bayes, dataset, 8, ReferralThresholds(), RngStream(2))
        doc = report.to_dict(config={"seed": 2})
        assert doc["schema_version"] == 1
        back = EvalReport.from_dict(doc)
        assert back.to_dict() == report.to_dict()

    @pytest.mark.parametrize("size", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    def test_records_equal_per_row_prediction(self, size, variant, tiny_bayes, tiny_baseline):
        model = tiny_bayes if variant == "bayesian" else tiny_baseline
        rows = RngStream(31).normal(2 * size).reshape(size, 2) * 2.0
        dataset = _dataset(rows, [j % 2 for j in range(size)])
        thresholds = ReferralThresholds(uncertainty=0.005, confidence=0.95)
        stream = RngStream(6).derive(4)
        report = evaluate(model, dataset, 16, thresholds, stream, ci_level=0.9)
        assert len(report.records) == size
        for j, record in enumerate(report.records):
            if model.is_bayesian:
                result = predict_mc(model, rows[j], 16, stream, level=0.9)
            else:
                result = predict_deterministic(model, rows[j], level=0.9)
            assert np.array(record.mean_probs).tobytes() == result.mean_probs.tobytes()
            assert np.array(record.var_probs).tobytes() == result.var_probs.tobytes()
            assert np.array(record.ci_low).tobytes() == result.ci_low.tobytes()
            assert np.array(record.ci_high).tobytes() == result.ci_high.tobytes()
            assert record.entropy_bits == result.entropy_bits
            assert record.uncertainty == result.uncertainty_scalar
            assert record.predicted_class == result.predicted_class
            decision = referral_decision(result, thresholds.uncertainty, thresholds.confidence)
            assert record.action == decision.action


class TestSilvermanBandwidth:
    def test_hand_value(self):
        # 0.9 * min(sd, IQR/1.34) * m^(-1/5) on {-1, 0, 1}: sd = 1, IQR = 1
        expected = 0.9 * (1.0 / 1.34) * 3 ** (-0.2)
        assert silverman_bandwidth([-1.0, 0.0, 1.0]) == pytest.approx(expected, abs=1e-12)

    def test_scale_equivariance(self):
        values = np.array([-1.3, 0.2, 0.9, 2.4, -0.6])
        h = silverman_bandwidth(values)
        for c in (0.1, 3.0, 250.0):
            assert silverman_bandwidth(c * values) == pytest.approx(c * h, rel=1e-12)

    def test_duplication_shrinks_by_fifth_root_of_two(self):
        values = RngStream(8).normal(2000)
        ratio = silverman_bandwidth(np.concatenate([values, values])) / silverman_bandwidth(values)
        assert ratio == pytest.approx(2 ** (-0.2), rel=1e-3)

    def test_zero_iqr_falls_back_to_sd(self):
        values = [0.0, 0.0, 0.0, 0.0, 10.0]
        sd = float(np.std(values, ddof=1))
        assert silverman_bandwidth(values) == pytest.approx(0.9 * sd * 5 ** (-0.2), abs=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            silverman_bandwidth([2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            silverman_bandwidth([1.0])


class TestKde:
    def test_single_point_kernel_peak(self):
        for h in (0.05, 0.5, 3.0):
            curve = kde([1.7], bandwidth=h)
            assert float(curve.density.max()) * h == pytest.approx(
                1.0 / math.sqrt(2 * math.pi), abs=1e-9
            )

    def test_symmetric_values_give_symmetric_curve(self):
        curve = kde([-0.8, 0.8], bandwidth=0.3, grid_points=201)
        assert np.allclose(curve.density, curve.density[::-1], atol=1e-12)

    def test_integral_is_one(self):
        for seed in range(3):
            values = RngStream(seed).normal(200) * (seed + 1.0)
            curve = kde(values)
            integral = float(np.trapezoid(curve.density, curve.grid))
            assert 0.99 <= integral <= 1.01

    def test_order_invariance(self):
        values = RngStream(3).normal(50)
        a = kde(values, bandwidth=0.4)
        b = kde(values[::-1].copy(), bandwidth=0.4)
        assert np.allclose(a.density, b.density, rtol=1e-12)
        assert np.array_equal(a.grid, b.grid)

    def test_errors(self):
        with pytest.raises(ValueError):
            kde([1.0])  # single value without bandwidth
        with pytest.raises(ValueError):
            kde([1.0, 2.0], bandwidth=0.0)
        with pytest.raises(ValueError):
            kde([])


class TestEntropyHistogram:
    def test_counting_example(self):
        records = [(0.1, True), (0.2, True), (0.9, False)]
        hist = entropy_histogram(records, n_bins=2, n_classes=2)
        assert np.array_equal(hist.correct_fraction, [1.0, 0.0])
        assert np.array_equal(hist.incorrect_fraction, [0.0, 1.0])
        assert np.allclose(hist.bin_edges, [0.0, 0.5, 1.0])

    def test_missing_group_absent(self):
        hist = entropy_histogram([(0.3, True)], n_bins=4)
        assert hist.incorrect_fraction is None
        assert hist.correct_fraction is not None

    def test_interior_edge_goes_to_lower_bin(self):
        hist = entropy_histogram([(0.5, True)], n_bins=2)
        assert np.array_equal(hist.correct_fraction, [1.0, 0.0])

    def test_top_edge_stays_in_last_bin(self):
        hist = entropy_histogram([(1.0, True), (0.0, True)], n_bins=2)
        assert np.array_equal(hist.correct_fraction, [0.5, 0.5])

    @given(st.permutations([(0.05, True), (0.4, True), (0.77, False), (0.93, True), (0.2, False)]))
    def test_permutation_invariance(self, records):
        hist = entropy_histogram(records, n_bins=5)
        reference = entropy_histogram(
            [(0.05, True), (0.4, True), (0.77, False), (0.93, True), (0.2, False)], n_bins=5
        )
        assert np.array_equal(hist.correct_fraction, reference.correct_fraction)
        assert np.array_equal(hist.incorrect_fraction, reference.incorrect_fraction)

    def test_fractions_sum_to_one(self):
        records = [(float(e), bool(i % 2)) for i, e in enumerate(np.linspace(0, 1, 17))]
        hist = entropy_histogram(records, n_bins=7)
        assert float(hist.correct_fraction.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(hist.incorrect_fraction.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            entropy_histogram([], n_bins=0)


def _report(name, accuracy, referral=0.1, h_correct=0.2, h_incorrect=0.6):
    return EvalReport(
        dataset_name=name,
        accuracy=accuracy,
        confusion=np.zeros((2, 2), dtype=np.int64),
        records=[],
        mean_entropy_correct=h_correct,
        mean_entropy_incorrect=h_incorrect,
        referral_rate=referral,
        mc_samples=50,
        n_classes=2,
    )


class TestCompareReport:
    def test_table_shape_matches_two_models_by_four_datasets(self):
        # golden layout: the familiar 2-model x 4-dataset accuracy table
        names = ["train", "test", "shifted", "shifted-cropped"]
        bayes = [_report(n, a) for n, a in zip(names, [0.9999, 0.94, 0.88, 0.90])]
        base = [_report(n, a) for n, a in zip(names, [0.9999, 0.9499, 0.7294, 0.87])]
        rows = compare_report(bayes, base, names)
        assert [r.dataset for r in rows] == names
        assert rows[2].bayes_accuracy == 0.88
        assert rows[2].baseline_accuracy == 0.7294
        assert rows[2].accuracy_delta == pytest.approx(0.88 - 0.7294)
        csv_text = comparison_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("dataset,bayes_accuracy,baseline_accuracy,accuracy_delta")
        assert len(lines) == 1 + 4

    def test_identical_reports_give_zero_deltas(self):
        reports = [_report("a", 0.8), _report("b", 0.7)]
        rows = compare_report(reports, reports, ["a", "b"])
        assert all(r.accuracy_delta == 0.0 for r in rows)

    def test_single_dataset(self):
        rows = compare_report([_report("only", 0.5)], [_report("only", 0.4)], ["only"])
        assert len(rows) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_report([_report("a", 0.5)], [], ["a"])


class TestCsvEmitters:
    def test_kde_csv_shape(self):
        curve = kde([0.0, 1.0], bandwidth=0.5, grid_points=11)
        text = kde_csv(curve, config={"seed": 1})
        lines = text.strip().splitlines()
        assert "grid,density" in lines
        data = [l for l in lines if not l.startswith("#") and l != "grid,density"]
        assert len(data) == 11

    def test_echo_headers_pinned(self):
        echo = {"report": "r.json", "bins": 5}
        kde_text = kde_csv(kde([0.0, 1.0], bandwidth=0.5, grid_points=2), config=echo)
        assert kde_text.startswith("# report = r.json\n# bins = 5\n# bandwidth = 0.5\ngrid,density\n")
        hist = entropy_histogram([], n_bins=2)
        assert entropy_histogram_csv(hist, echo).startswith(
            "# report = r.json\n# bins = 5\n# correct_group = absent\n# incorrect_group = absent\nbin_low,"
        )
        assert entropy_histogram_csv(entropy_histogram([(0.1, True)], n_bins=2), {}).startswith(
            "# incorrect_group = absent\nbin_low,"
        )
        assert comparison_csv([], {"datasets": "a;b"}) == (
            "# datasets = a;b\ndataset,bayes_accuracy,baseline_accuracy,accuracy_delta,bayes_referral_rate,"
            "bayes_mean_entropy_correct,bayes_mean_entropy_incorrect\n"
        )
        assert comparison_csv([]).startswith("dataset,")

    def test_histogram_csv_marks_absent_group(self):
        hist = entropy_histogram([(0.2, True)], n_bins=3)
        text = entropy_histogram_csv(hist)
        assert "# incorrect_group = absent" in text
        first_row = text.strip().splitlines()[-3]
        assert first_row.endswith(",")  # incorrect column empty
