import json

import numpy as np
import pytest

from bayeshead import (
    ArchiveError,
    FeatureDataset,
    ModelArchive,
    TrainConfig,
    init_bayes_model,
    load_model,
    save_csv,
    save_model,
    synth_blobs,
)
from bayeshead.cli import parse_config_file, run

BLOBS = [(-2.0, 0.0), (2.0, 0.0)]


class TestModelArchive:
    def test_roundtrip_is_bit_exact(self, tmp_path, tiny_bayes, tiny_baseline):
        for model in (tiny_bayes, tiny_baseline):
            path = tmp_path / f"{model.variant}.json"
            save_model(ModelArchive(model, train_config={"seed": 3}), path)
            back = load_model(path)
            assert back.model.variant == model.variant
            assert np.array_equal(back.model.hidden.weights, model.hidden.weights)
            assert np.array_equal(back.model.hidden.bias, model.hidden.bias)
            if model.is_bayesian:
                assert np.array_equal(back.model.output.params.mu, model.output.params.mu)
                assert np.array_equal(back.model.output.params.rho, model.output.params.rho)
                assert back.model.output.prior == model.output.prior
            else:
                assert np.array_equal(back.model.output.weights, model.output.weights)
            assert back.train_config == {"seed": 3}

    def test_truncated_file_is_corrupt(self, tmp_path, tiny_bayes):
        path = tmp_path / "m.json"
        save_model(ModelArchive(tiny_bayes), path)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(ArchiveError, match="corrupt"):
            load_model(path)

    def test_version_mismatch_names_both_versions(self, tmp_path, tiny_bayes):
        path = tmp_path / "m.json"
        save_model(ModelArchive(tiny_bayes), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError, match=r"format_version 2.*reads 1"):
            load_model(path)

    @pytest.mark.parametrize("key", ["feature_dim", "hidden_dim"])
    @pytest.mark.parametrize("variant", ["bayes", "base"])
    def test_declared_dims_must_match_arrays(self, key, variant, cli_data, trained, tmp_path, capsys):
        doc = json.loads((trained / variant / "model.json").read_text())
        doc[key] = 99
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError):
            load_model(path)
        rc = run([
            "eval", "--model", str(path), "--data", str(cli_data / "test.csv"),
            "--n", "4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "edited.json" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    train = synth_blobs(30, BLOBS, 1.0, seed=51, name="train")
    test = synth_blobs(10, BLOBS, 1.0, seed=52, name="test")
    save_csv(train, root / "train.csv")
    save_csv(test, root / "test.csv")
    return root


@pytest.fixture(scope="module")
def trained(cli_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    base_args = [
        "--data", str(cli_data / "train.csv"), "--val", str(cli_data / "test.csv"),
        "--seed", "3", "--epochs", "6", "--hidden-dim", "8", "--batch-size", "16",
    ]
    assert run(["train", *base_args, "--out", str(out / "bayes")]) == 0
    assert run(["train", *base_args, "--baseline", "--out", str(out / "base")]) == 0
    return out


class TestTrainCommand:
    def test_outputs_exist(self, trained):
        assert (trained / "bayes" / "model.json").exists()
        assert (trained / "bayes" / "history.csv").exists()

    def test_missing_data_exits_2_naming_path(self, tmp_path, capsys):
        rc = run(["train", "--data", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_zero_epochs_archives_initialization(self, cli_data, tmp_path):
        rc = run([
            "train", "--data", str(cli_data / "train.csv"), "--seed", "9",
            "--epochs", "0", "--hidden-dim", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        archive = load_model(tmp_path / "model.json")
        fresh = init_bayes_model(2, 2, TrainConfig(seed=9, hidden_dim=4, epochs=0))
        assert np.array_equal(archive.model.output.params.mu, fresh.output.params.mu)
        assert np.array_equal(archive.model.hidden.weights, fresh.hidden.weights)

    def test_rerun_is_byte_identical(self, cli_data, trained, tmp_path):
        rc = run([
            "train", "--data", str(cli_data / "train.csv"), "--val", str(cli_data / "test.csv"),
            "--seed", "3", "--epochs", "6", "--hidden-dim", "8", "--batch-size", "16",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "model.json").read_bytes() == (trained / "bayes" / "model.json").read_bytes()
        assert (tmp_path / "history.csv").read_bytes() == (trained / "bayes" / "history.csv").read_bytes()

    def test_config_file_with_flag_override(self, cli_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nhidden_dim = 4\nseed = 2\n# comment\n")
        rc = run([
            "train", "--data", str(cli_data / "train.csv"), "--config", str(cfg),
            "--epochs", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        history = (tmp_path / "history.csv").read_text().splitlines()
        rows = [l for l in history if l and not l.startswith("#") and not l.startswith("epoch")]
        assert len(rows) == 2  # flag beats config file
        assert "# hidden_dim = 4" in history

    def test_parse_config_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(bad)


class TestPredictCommand:
    def test_default_n_echoed(self, cli_data, trained, tmp_path, capsys):
        rc = run([
            "predict", "--model", str(trained / "bayes" / "model.json"),
            "--data", str(cli_data / "test.csv"), "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "n=50" in capsys.readouterr().out
        lines = (tmp_path / "predictions.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["mc_samples"] == 50
        assert len(lines) == 1 + 20  # header + one record per row

    def test_baseline_predictions_have_zero_variance(self, cli_data, trained, tmp_path):
        rc = run([
            "predict", "--model", str(trained / "base" / "model.json"),
            "--data", str(cli_data / "test.csv"), "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "predictions.jsonl").read_text().splitlines()[1:]
        for line in lines:
            record = json.loads(line)
            assert record["var_probs"] == [0.0, 0.0]
            assert record["uncertainty"] == 0.0

    def test_rerun_bytes_identical(self, cli_data, trained, tmp_path):
        args = [
            "predict", "--model", str(trained / "bayes" / "model.json"),
            "--data", str(cli_data / "test.csv"), "--seed", "4", "--n", "12",
        ]
        assert run([*args, "--out", str(tmp_path / "a")]) == 0
        assert run([*args, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "predictions.jsonl").read_bytes() == (
            tmp_path / "b" / "predictions.jsonl"
        ).read_bytes()


class TestEvalAnalyzeCompare:
    def _eval(self, model_dir, cli_data, out, extra=()):
        return run([
            "eval", "--model", str(model_dir / "model.json"),
            "--data", str(cli_data / "test.csv"), "--dataset-name", "test",
            "--seed", "7", "--n", "16", *extra, "--out", str(out),
        ])

    def test_eval_report_and_workers_reproducibility(self, cli_data, trained, tmp_path):
        assert self._eval(trained / "bayes", cli_data, tmp_path / "w1", ("--workers", "1")) == 0
        assert self._eval(trained / "bayes", cli_data, tmp_path / "w8", ("--workers", "8")) == 0
        a = (tmp_path / "w1" / "report.json").read_bytes()
        b = (tmp_path / "w8" / "report.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert doc["schema_version"] == 1
        assert doc["config"]["mc_samples"] == 16
        assert "workers" not in doc["config"]

    def test_analyze_outputs(self, cli_data, trained, tmp_path):
        assert self._eval(trained / "bayes", cli_data, tmp_path) == 0
        rc = run(["analyze", "--report", str(tmp_path / "report.json"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "test_entropy_hist.csv").exists()
        # KDE may be skipped only for degenerate spread; bayes eval has spread
        assert (tmp_path / "test_uncertainty_kde.csv").exists()

    def test_analyze_all_correct_marks_incorrect_absent(self, trained, tmp_path):
        easy = synth_blobs(8, [(-9.0, 0.0), (9.0, 0.0)], 0.1, seed=77, name="easy")
        save_csv(easy, tmp_path / "easy.csv")
        rc = run([
            "eval", "--model", str(trained / "base" / "model.json"),
            "--data", str(tmp_path / "easy.csv"), "--seed", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["accuracy"] == 1.0
        rc = run(["analyze", "--report", str(tmp_path / "report.json"), "--out", str(tmp_path)])
        assert rc == 0
        hist = (tmp_path / "easy_entropy_hist.csv").read_text()
        assert "# incorrect_group = absent" in hist

    def test_compare_writes_table(self, cli_data, trained, tmp_path):
        assert self._eval(trained / "bayes", cli_data, tmp_path / "b") == 0
        assert self._eval(trained / "base", cli_data, tmp_path / "c") == 0
        rc = run([
            "compare", "--bayes", str(tmp_path / "b" / "report.json"),
            "--baseline", str(tmp_path / "c" / "report.json"), "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 1 and data_rows[0].startswith("test,")

    def test_compare_mismatch_exits_2(self, cli_data, trained, tmp_path, capsys):
        assert self._eval(trained / "bayes", cli_data, tmp_path / "b") == 0
        rc = run([
            "compare", "--bayes", str(tmp_path / "b" / "report.json"),
            "--baseline", str(tmp_path / "b" / "report.json"),
            str(tmp_path / "b" / "report.json"), "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "mismatched" in capsys.readouterr().err


class TestNumericFailure:
    @pytest.fixture
    def overflowing_model(self, trained, tmp_path):
        # finite on disk, so it loads; softplus(1e308) scales the draws past float range
        doc = json.loads((trained / "bayes" / "model.json").read_text())
        doc["output"]["rho"] = [1e308] * len(doc["output"]["rho"])
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).model.is_bayesian
        return path

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_overflowed_logits_exit_1(self, command, overflowing_model, cli_data, tmp_path, capsys):
        rc = run([
            command, "--model", str(overflowing_model), "--data", str(cli_data / "test.csv"),
            "--n", "4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_metric_exits_1(self, cli_data, tmp_path, capsys):
        val = FeatureDataset(np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]), np.array([0, 1]), ["a", "b"])
        save_csv(val, tmp_path / "val.csv")
        rc = run([
            "train", "--data", str(cli_data / "train.csv"), "--val", str(tmp_path / "val.csv"),
            "--epochs", "2", "--hidden-dim", "8", "--seed", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "validation metric" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_loadable_csv_and_meta(self, tmp_path):
        rc = run([
            "synth", "--n-per-class", "12", "--means=-2,0;2,0", "--sigma", "1.0",
            "--name", "demo", "--seed", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        from bayeshead import load_csv

        ds = load_csv(tmp_path / "demo.csv")
        assert len(ds) == 24 and ds.class_counts() == {0: 12, 1: 12}
        meta = json.loads((tmp_path / "demo.meta.json").read_text())
        assert meta["config"]["seed"] == 5

    def test_shift_options(self, tmp_path):
        rc = run([
            "synth", "--n-per-class", "6", "--means=-2,0;2,0", "--name", "sh",
            "--seed", "5", "--shift-noise", "1.5", "--shift-offset", "0,6",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        from bayeshead import load_csv

        ds = load_csv(tmp_path / "sh.csv")
        assert float(ds.features[:, 1].mean()) > 3.0  # offset applied

    def test_bad_means_exit_2(self, tmp_path, capsys):
        rc = run([
            "synth", "--n-per-class", "6", "--means=-2,0;x,0", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "vector" in capsys.readouterr().err
