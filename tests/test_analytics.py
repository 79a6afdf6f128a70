import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeshead import (
    EvalReport,
    FeatureDataset,
    HeadModel,
    ReferralThresholds,
    RngStream,
    compare_report,
    entropy_histogram,
    evaluate,
    kde,
    predict_mc,
    referral_decision,
)
from bayeshead import TrainConfig, analytics, init_bayes_model
from bayeshead.analytics import (
    _BLOCK_ROWS,
    KDE_GRID_POINTS,
    PredictionRecord,
    comparison_csv,
    entropy_histogram_csv,
    kde_csv,
    predict_records,
    silverman_bandwidth,
)
from bayeshead.inference import predict_deterministic
from bayeshead.network import DenseLayer


def _passthrough_model() -> HeadModel:
    """Baseline head whose logits equal the (nonnegative) input features."""
    hidden = DenseLayer(np.eye(2), np.zeros(2))
    output = DenseLayer(np.eye(2), np.zeros(2))
    return HeadModel(hidden, output)


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

    @pytest.mark.parametrize("rows, labels, match", [
        (np.empty((0, 2)), [], "empty dataset"),
        ([[0.0, 1.0], [1.0, 0.0]], [1, 2], "label 2 is outside"),
    ])
    def test_predict_records_and_evaluate_share_the_label_rule(self, rows, labels, match):
        dataset = _dataset(rows, np.array(labels, dtype=int))
        for fn in (predict_records, evaluate):
            with pytest.raises(ValueError, match=match):
                fn(_passthrough_model(), dataset, 1, ReferralThresholds(), RngStream(0))

    def test_accuracy_equals_one_minus_offdiagonal(self):
        stream = RngStream(5)
        feats = np.abs(stream.normal(40).reshape(20, 2))
        labels = (stream.normal(20) > 0).astype(int)
        dataset = _dataset(feats, labels)
        report = evaluate(_passthrough_model(), dataset, 1, ReferralThresholds(), RngStream(0))
        off = report.confusion.sum() - np.trace(report.confusion)
        assert report.accuracy == 1.0 - off / len(dataset)

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
        curve = kde([-0.8, 0.8], bandwidth=0.3)
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

    @pytest.mark.parametrize("baseline_ids", [["t1", "t0"], ["t0"], ["t0", "t1", "t2"], ["s0", "s1"]])
    def test_a_pair_over_other_rows_is_rejected(self, baseline_ids):
        def over(name, ids):
            record = PredictionRecord("", 0, 0, True, [1.0, 0.0], [0.0, 0.0], 0.0, [1.0, 0.0], [1.0, 0.0], 0.0,
                                      "accept")
            return dataclasses.replace(_report(name, 0.5), records=[dataclasses.replace(record, id=i) for i in ids])

        good = over("a", ["a0"])
        assert len(compare_report([good, over("test", ["t0", "t1"])], [good, over("test", ["t0", "t1"])],
                                  ["a", "test"])) == 2
        with pytest.raises(ValueError, match="^bayes report 2 \\('test'\\) and baseline report 2 "
                                             "\\('other'\\) hold different rows$"):
            compare_report([good, over("test", ["t0", "t1"])], [good, over("other", baseline_ids)], ["a", "b"])

    def test_a_pair_over_the_same_ids_of_other_datasets_is_rejected(self):
        # a shifted copy keeps its source's ids, so only the names tell a swapped pair
        record = PredictionRecord("t0", 0, 0, True, [1.0, 0.0], [0.0, 0.0], 0.0, [1.0, 0.0], [1.0, 0.0], 0.0,
                                  "accept")
        test, shifted = (dataclasses.replace(_report(name, 0.5), records=[record]) for name in ("test", "shifted"))
        assert len(compare_report([test, shifted], [test, shifted], ["test", "shifted"])) == 2
        with pytest.raises(ValueError, match="^bayes report 1 \\('test'\\) and baseline report 1 "
                                             "\\('shifted'\\) name different datasets; a report is named by "
                                             "eval's --dataset-name or its CSV's stem, so evaluate both heads "
                                             "under one name$"):
            compare_report([test, shifted], [shifted, test], ["test", "shifted"])


class TestCsvEmitters:
    def test_kde_csv_shape(self):
        curve = kde([0.0, 1.0], bandwidth=0.5)
        text = kde_csv(curve, config={"seed": 1})
        lines = text.strip().splitlines()
        assert "grid,density" in lines
        data = [l for l in lines if not l.startswith("#") and l != "grid,density"]
        assert len(data) == KDE_GRID_POINTS

    def test_echo_headers_pinned(self):
        echo = {"report": "r.json", "bins": 5}
        kde_text = kde_csv(kde([0.0, 1.0], bandwidth=0.5), config=echo)
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

    def test_data_cells_are_plain_numbers(self):
        # numpy 2 reprs a float64 as np.float64(...), which no CSV reader parses
        hist = entropy_histogram([(0.1, True), (0.7, False), (0.4, True)], n_bins=4)
        for text in (kde_csv(kde([0.0, 0.3, 1.0])), entropy_histogram_csv(hist)):
            header, *data = [line for line in text.splitlines() if not line.startswith("#")]
            rows = [line.split(",") for line in data]
            assert rows and all(len(row) == len(header.split(",")) for row in rows)
            for cell in (cell for row in rows for cell in row):
                float(cell)

    def test_histogram_csv_marks_absent_group(self):
        hist = entropy_histogram([(0.2, True)], n_bins=3)
        text = entropy_histogram_csv(hist)
        assert "# incorrect_group = absent" in text
        first_row = text.strip().splitlines()[-3]
        assert first_row.endswith(",")  # incorrect column empty


class TestBlockReferral:
    """``predict_records`` refers a row exactly when ``referral_decision`` on its own prediction does."""

    def _rows(self, size=_BLOCK_ROWS + 3):
        return _dataset(RngStream(8).normal(2 * size).reshape(size, 2) * 1.5, [j % 2 for j in range(size)])

    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    def test_actions_equal_the_per_row_rule_at_thresholds_hit_exactly(self, variant, tiny_bayes, tiny_baseline):
        model = tiny_bayes if variant == "bayesian" else tiny_baseline
        dataset, stream = self._rows(), RngStream(6).derive(4)
        first = predict_records(model, dataset, 12, ReferralThresholds(), stream)
        j = len(first) // 2
        for thresholds in (
            ReferralThresholds(uncertainty=first[j].uncertainty, confidence=1.0),  # uncertainty hit exactly
            ReferralThresholds(uncertainty=1.0, confidence=max(first[j].mean_probs)),  # top probability hit
            ReferralThresholds(uncertainty=first[j].uncertainty, confidence=max(first[j].mean_probs)),
            ReferralThresholds(uncertainty=0.0, confidence=1.0),
        ):
            records = predict_records(model, dataset, 12, thresholds, stream)
            for row, record in zip(dataset.features, records):
                result = predict_mc(model, row, 12, stream) if model.is_bayesian else predict_deterministic(model, row)
                assert record.action == referral_decision(result, thresholds.uncertainty, thresholds.confidence).action
        exact = ReferralThresholds(uncertainty=first[j].uncertainty, confidence=max(first[j].mean_probs))
        assert predict_records(model, dataset, 12, exact, stream)[j].action == "accept"  # neither bound crossed

    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    @pytest.mark.parametrize("uncertainty, confidence", [
        (math.nan, 0.9), (-0.5, 0.9), (0.01, math.nan), (0.01, 0.0), (0.01, 1.5), (0.01, -0.2),
    ])
    def test_bad_thresholds_raise_the_rule_s_error_before_any_draw(self, variant, uncertainty, confidence,
                                                                   tiny_bayes, tiny_baseline, monkeypatch):
        model = tiny_bayes if variant == "bayesian" else tiny_baseline
        result = predict_deterministic(model, [0.5, 0.5])
        with pytest.raises(ValueError) as expected:
            referral_decision(result, uncertainty, confidence)

        def no_draws(*args):
            raise AssertionError("drew weights before checking the thresholds")

        monkeypatch.setattr(analytics, "posterior_draws", no_draws)
        monkeypatch.setattr(analytics, "point_weights", no_draws)
        for fn in (predict_records, evaluate):
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                fn(model, self._rows(), 4, ReferralThresholds(uncertainty, confidence), RngStream(0))


def _swap_extremes(values: list) -> None:
    """Swap the first largest and the first smallest entry: with two entries, reverse them."""
    i, j = values.index(max(values)), values.index(min(values))
    values[i], values[j] = values[j], values[i]


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.floats(), st.floats(0.0, 1.0),
    st.sampled_from(["accept", "refer", "defer", "0", ""]),
)
_STEPS = (-1.0, -1e-6, -1e-9, -2e-12, 2e-12, 1e-9, 1e-6, 1.0)  # about the record checks' tolerances
_RECORD_FIELDS = [f.name for f in dataclasses.fields(PredictionRecord)]


@st.composite
def _record_edits(draw):
    """(record, field, how, entry, value) of one edit: a new JSON value for the field ("set") or for
    one entry of a list field ("entry"), a step added to it or to one entry ("step"), or no field."""
    how = draw(st.sampled_from(["set", "entry", "step", "step", "delete"]))
    value = draw(st.sampled_from(_STEPS) if how == "step" else
                 st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=10)))
    return (draw(st.integers(0, _BLOCK_ROWS + 5)), draw(st.sampled_from(_RECORD_FIELDS)), how,
            draw(st.integers(0, 8)), value)


def _stepped(v, step: float):
    """A float moved by ``step``, an int by one in its direction; any other value as it is."""
    if type(v) is float:
        return v + step
    if type(v) is int:
        return v + (1 if step > 0 else -1)
    return v


@functools.cache
def _report_text(n_classes: int) -> str:
    """A well-formed report of an untrained ``n_classes`` head over more than one block of rows."""
    model = init_bayes_model(2, n_classes, TrainConfig(hidden_dim=8, seed=5))
    rows = RngStream(9).normal(2 * (_BLOCK_ROWS + 6)).reshape(-1, 2) * 2.0
    dataset = _dataset(rows, [j % n_classes for j in range(len(rows))])
    return json.dumps(evaluate(model, dataset, 8, ReferralThresholds(), RngStream(2)).to_dict())


class TestReportFromDict:
    def _doc(self, tiny_bayes):
        dataset = _dataset([[1.0, 0.2], [-0.4, 1.0]], [0, 1])
        return evaluate(tiny_bayes, dataset, 8, ReferralThresholds(), RngStream(2)).to_dict()

    def test_document_keys_follow_the_field_order(self, tiny_bayes):
        assert list(self._doc(tiny_bayes)) == [
            "schema_version", "dataset_name", "n_classes", "mc_samples", "accuracy", "referral_rate",
            "mean_entropy_correct", "mean_entropy_incorrect", "confusion", "records",
        ]

    @pytest.mark.parametrize("field", ["dataset_name", "accuracy", "confusion", "records"])
    def test_missing_field_is_named(self, tiny_bayes, field):
        doc = self._doc(tiny_bayes)
        del doc[field]
        with pytest.raises(ValueError, match=f"lacks field '{field}'"):
            EvalReport.from_dict(doc)

    def test_missing_record_field_is_named(self, tiny_bayes):
        doc = self._doc(tiny_bayes)
        del doc["records"][1]["action"]
        with pytest.raises(ValueError, match="PredictionRecord document lacks field 'action'"):
            EvalReport.from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "report", 3, None])
    def test_non_object_is_a_value_error(self, doc):
        with pytest.raises(ValueError, match="not a JSON object"):
            EvalReport.from_dict(doc)

    def test_other_schema_version_is_rejected(self, tiny_bayes):
        doc = self._doc(tiny_bayes)
        doc["schema_version"] = 2
        with pytest.raises(ValueError, match="schema_version 2"):
            EvalReport.from_dict(doc)

    def _big_doc(self, tiny_bayes):
        rows = RngStream(9).normal(2 * (_BLOCK_ROWS + 6)).reshape(-1, 2) * 2.0
        dataset = _dataset(rows, [j % 2 for j in range(len(rows))])
        return evaluate(tiny_bayes, dataset, 8, ReferralThresholds(), RngStream(2)).to_dict()

    # one defect of each kind that the record checks name
    DEFECTS = {
        "label": lambda r: r.update(label=len(r["mean_probs"]) + 5),  # past the last class
        "predicted_class": lambda r: r.update(predicted_class=-1),
        "mean_probs_length": lambda r: r["mean_probs"].append(0.0),
        "var_probs_text": lambda r: r["var_probs"].__setitem__(0, "0"),
        "ci_low_bool": lambda r: r["ci_low"].__setitem__(0, False),
        "ci_high_nan": lambda r: r["ci_high"].__setitem__(1, math.nan),
        "entropy_negative": lambda r: r.update(entropy_bits=-1.0),
        "uncertainty_inf": lambda r: r.update(uncertainty=math.inf),
        "correct": lambda r: r.update(correct=not r["correct"]),
        "action": lambda r: r.update(action="defer"),
        "not_a_simplex": lambda r: r.update(mean_probs=[0.7] * len(r["mean_probs"])),
        "argmax": lambda r: _swap_extremes(r["mean_probs"]),
        "variance": lambda r: r["var_probs"].__setitem__(0, -1e-9),
        "interval": lambda r: r.update(ci_low=[1.0] * len(r["ci_low"])),
        "uncertainty_not_the_largest_variance": lambda r: r.update(uncertainty=max(r["var_probs"]) + 0.75),
        "label_type": lambda r: r.update(label=1.0),
        "missing": lambda r: r.pop("ci_low"),
        "not_an_object": lambda r: r.clear(),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("at", [0, _BLOCK_ROWS + 2])
    def test_one_defect_gives_the_record_check_s_message(self, defect, at, tiny_bayes):
        doc = self._big_doc(tiny_bayes)
        self.DEFECTS[defect](doc["records"][at])
        if defect == "not_an_object":
            doc["records"][at] = []
        with pytest.raises(ValueError) as expected:
            PredictionRecord.from_dict(doc["records"][at], doc["n_classes"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            EvalReport.from_dict(doc)

    @pytest.mark.parametrize("first, later", [
        ("variance", "label"), ("label", "variance"), ("interval", "label_type"), ("label_type", "interval"),
        ("missing", "action"), ("ci_high_nan", "not_a_simplex"),
    ])
    def test_of_several_bad_records_the_first_in_document_order_is_named(self, first, later, tiny_bayes):
        doc = self._big_doc(tiny_bayes)
        self.DEFECTS[first](doc["records"][1])
        for at in (3, _BLOCK_ROWS + 1):  # two later records
            self.DEFECTS[later](doc["records"][at])
        with pytest.raises(ValueError) as expected:
            PredictionRecord.from_dict(doc["records"][1], doc["n_classes"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            EvalReport.from_dict(doc)

    def test_a_well_formed_report_reads_back_to_its_records(self, tiny_bayes):
        doc = self._big_doc(tiny_bayes)
        back = EvalReport.from_dict(json.loads(json.dumps(doc)))
        assert back.to_dict() == doc

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("at", [0, _BLOCK_ROWS + 2])
    def test_one_defect_in_a_nine_class_report_gives_the_record_check_s_message(self, defect, at):
        doc = json.loads(_report_text(9))
        assert doc["n_classes"] == 9
        self.DEFECTS[defect](doc["records"][at])
        if defect == "not_an_object":
            doc["records"][at] = []
        with pytest.raises(ValueError) as expected:
            PredictionRecord.from_dict(doc["records"][at], doc["n_classes"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            EvalReport.from_dict(doc)

    def test_a_well_formed_nine_class_report_reads_back_to_its_records(self):
        # numpy's pairwise sum adds 8 or more terms by halves, a record's check from left to right
        doc = json.loads(_report_text(9))
        sums = np.array([r["mean_probs"] for r in doc["records"]]).sum(axis=1).tolist()
        assert any(s != functools.reduce(operator.add, r["mean_probs"]) for s, r in zip(sums, doc["records"]))
        back = EvalReport.from_dict(json.loads(json.dumps(doc)))
        assert back.to_dict() == doc

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 9]), st.lists(_record_edits(), min_size=1, max_size=3))
    def test_a_report_reads_back_exactly_when_each_of_its_records_does(self, n_classes, edits):
        doc = json.loads(_report_text(n_classes))
        for at, field, how, k, value in edits:
            record = doc["records"][at]
            old = record.pop(field, None)
            if how == "delete":
                continue
            if isinstance(old, list) and old and how != "set":
                k %= len(old)
                old[k] = value if how == "entry" else _stepped(old[k], value)
                record[field] = old
            else:
                record[field] = _stepped(old, value) if how == "step" else value
        records = []
        try:
            for r in doc["records"]:
                records.append(PredictionRecord.from_dict(r, n_classes))
        except ValueError as e:
            with pytest.raises(ValueError) as raised:
                EvalReport.from_dict(doc)
            assert str(raised.value) == str(e)
            return
        totals = analytics._totals(records, n_classes)  # edits may move them; the report follows its records
        doc.update(totals, confusion=totals["confusion"].tolist())
        assert EvalReport.from_dict(doc).to_dict() == doc
