import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bayeshead import (
    ArchiveError,
    FeatureDataset,
    ModelArchive,
    ReferralThresholds,
    SpikeSlabPrior,
    TrainConfig,
    cli,
    init_bayes_model,
    load_model,
    save_model,
    synth_blobs,
    training,
)
from bayeshead.cli import parse_config_file, run
from bayeshead.data import save_csv
from bayeshead.inference import CI_LEVEL, MC_SAMPLES

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

    @pytest.mark.parametrize("key", ["feature_dim", "hidden_dim", "n_classes"])
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

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("variant", ["bayes", "base"])
    def test_another_hidden_activation_exits_2_and_writes_nothing(self, variant, command, activation, cli_data,
                                                                  trained, tmp_path, capsys):
        doc = json.loads((trained / variant / "model.json").read_text())
        doc["hidden"]["activation"] = activation
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError, match=f"hidden activation '{activation}'"):
            load_model(path)
        rc = run([command, "--model", str(path), "--data", str(cli_data / "test.csv"),
                  "--n", "4", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(activation) in err[0]
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("head", [[], ["--baseline"]])
    @pytest.mark.parametrize("setting, field", [
        (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", "inf"], "learning_rate"),
        ("prior_slab_sigma = nan\n", "slab_sigma"),
        ("prior_slab_sigma = inf\n", "slab_sigma"),
        ("prior_spike_sigma = nan\n", "spike_sigma"),
    ])
    def test_non_finite_setting_exits_2_naming_it(self, setting, field, head, cli_data, tmp_path, capsys):
        if isinstance(setting, str):  # a config file line
            (tmp_path / "run.cfg").write_text(setting)
            setting = ["--config", str(tmp_path / "run.cfg")]
        rc = run(["train", "--data", str(cli_data / "train.csv"), "--epochs", "2", "--hidden-dim", "4",
                  *head, *setting, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "out").exists()

    def test_parse_config_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(bad)

    def test_a_repeated_config_key_exits_2_naming_both_lines(self, cli_data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n# a comment\nhidden_dim = 4\nepochs = 2\n")
        with pytest.raises(ValueError, match="'epochs' appears on line 1 and again on line 4"):
            parse_config_file(cfg)
        rc = run(["train", "--data", str(cli_data / "train.csv"), "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'epochs'" in err and "line 1" in err and "line 4" in err
        assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["predict", "eval"])
class TestPredictionInputErrors:
    @pytest.mark.parametrize("value", ["nan", "-0.1"])
    def test_bad_uncertainty_threshold_exits_2(self, command, value, cli_data, trained, tmp_path, capsys):
        rc = run([command, "--model", str(trained / "bayes" / "model.json"), "--data", str(cli_data / "test.csv"),
                  "--n", "4", "--uncertainty-threshold", value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "uncertainty threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_outside_the_model_exits_2(self, command, trained, tmp_path, capsys):
        three = synth_blobs(3, [*BLOBS, (0.0, 3.0)], 1.0, seed=53, name="three")
        save_csv(three, tmp_path / "three.csv")
        rc = run([command, "--model", str(trained / "bayes" / "model.json"), "--data", str(tmp_path / "three.csv"),
                  "--n", "4", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "label 2 is outside the model's 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def _compare_both_heads(self, name, cli_data, trained, tmp_path):
        """Eval both heads under dataset name ``name``, then compare them into ``tmp_path / "t"``."""
        for head, out in (("bayes", "b"), ("base", "c")):
            assert self._eval(trained / head, cli_data, tmp_path / out, ("--dataset-name", name)) == 0
        return run([
            "compare", "--bayes", str(tmp_path / "b" / "report.json"),
            "--baseline", str(tmp_path / "c" / "report.json"), "--out", str(tmp_path / "t"),
        ])

    def test_compare_quotes_a_dataset_name_that_holds_a_comma(self, cli_data, trained, tmp_path):
        assert self._compare_both_heads("x,y", cli_data, trained, tmp_path) == 0
        text = (tmp_path / "t" / "comparison.csv").read_text()
        assert text.startswith("# datasets = x,y\ndataset,")
        header, row = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
        assert len(header) == len(row) == 7
        assert row[0] == "x,y" and text.splitlines()[-1].startswith('"x,y",')

    def test_compare_of_a_dataset_name_with_a_line_break_exits_2_and_writes_nothing(self, cli_data, trained,
                                                                                    tmp_path, capsys):
        # eval refuses such a name, so it reaches compare through --names
        for head, out in (("bayes", "b"), ("base", "c")):
            assert self._eval(trained / head, cli_data, tmp_path / out) == 0
        capsys.readouterr()
        rc = run([
            "compare", "--bayes", str(tmp_path / "b" / "report.json"),
            "--baseline", str(tmp_path / "c" / "report.json"), "--names", "p\nq", "--out", str(tmp_path / "t"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line break" in err[0]
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("name", ["a/b", "..", "a\\b"])
    def test_eval_of_a_name_that_is_not_a_file_name_exits_2_before_the_model_loads(self, name, cli_data,
                                                                                   tmp_path, capsys):
        # the model path does not exist: checked after the name, it would give another error
        rc = run(["eval", "--model", str(tmp_path / "absent.json"), "--data", str(cli_data / "test.csv"),
                  "--dataset-name", name, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not a plain file name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_overflowed_logits_exit_1(self, command, overflowing_model, cli_data, tmp_path, capsys):
        rc = run([
            command, "--model", str(overflowing_model), "--data", str(cli_data / "test.csv"),
            "--n", "4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_validation_metric_exits_1(self, cli_data, tmp_path, capsys):
        val = FeatureDataset(np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]), np.array([0, 1]), ["a", "b"])
        save_csv(val, tmp_path / "val.csv")
        rc = run([
            "train", "--data", str(cli_data / "train.csv"), "--val", str(tmp_path / "val.csv"),
            "--epochs", "2", "--hidden-dim", "8", "--seed", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "validation metric" in capsys.readouterr().err

    @pytest.mark.parametrize("head", [[], ["--baseline"]])
    def test_an_overflowing_update_exits_1_naming_its_group(self, head, cli_data, tmp_path, capsys):
        # finite gradients, but lr * g / rms overflows the parameters on the first step
        rc = run(["train", "--data", str(cli_data / "train.csv"), "--epochs", "2", "--hidden-dim", "4",
                  "--learning-rate", "1e308", *head, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite update in parameter group '"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("head", [[], ["--baseline"]])
    def test_an_overflowing_update_prints_only_its_error_line(self, head, cli_data, tmp_path):
        # a fresh interpreter, so numpy's floating-point warnings reach stderr as a user sees them
        argv = ["train", "--data", str(cli_data / "train.csv"), "--epochs", "2", "--hidden-dim", "4",
                "--learning-rate", "1e308", *head, "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", "from bayeshead.cli import main; main()", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)})
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite update in parameter group '"), err


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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
    def test_sigma_not_positive_and_finite_exits_2_naming_it(self, sigma, tmp_path, capsys):
        rc = run(["synth", "--n-per-class", "6", "--means=-2,0;2,0", "--sigma", sigma, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMalformedReport:
    @pytest.fixture(scope="class")
    def report_doc(self, cli_data, trained, tmp_path_factory):
        out = tmp_path_factory.mktemp("good_report")
        assert run([
            "eval", "--model", str(trained / "bayes" / "model.json"),
            "--data", str(cli_data / "test.csv"), "--seed", "7", "--n", "8", "--out", str(out),
        ]) == 0
        return json.loads((out / "report.json").read_text())

    @pytest.fixture(params=["lacks_field", "list", "record_lacks_field", "record_list"])
    def bad_report(self, request, report_doc, tmp_path):
        doc = json.loads(json.dumps(report_doc))
        expect = {
            "lacks_field": "'n_classes'", "list": "not a JSON object",
            "record_lacks_field": "'uncertainty'", "record_list": "not a JSON object",
        }[request.param]
        if request.param == "lacks_field":
            del doc["n_classes"]
        elif request.param == "list":
            doc = [doc]
        elif request.param == "record_lacks_field":
            del doc["records"][0]["uncertainty"]
        else:
            doc["records"][0] = list(doc["records"][0].values())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path, expect

    def test_analyze_exits_2(self, bad_report, tmp_path, capsys):
        path, expect = bad_report
        assert run(["analyze", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and expect in err

    @pytest.mark.parametrize("side", ["--bayes", "--baseline"])
    def test_compare_exits_2(self, bad_report, report_doc, side, tmp_path, capsys):
        path, expect = bad_report
        good = tmp_path / "good.json"
        good.write_text(json.dumps(report_doc))
        files = {"--bayes": good, "--baseline": good, side: path}
        rc = run(["compare", "--bayes", str(files["--bayes"]), "--baseline", str(files["--baseline"]),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and expect in err
        assert not (tmp_path / "out" / "comparison.csv").exists()


class TestArchivePrior:
    def _edited(self, trained, tmp_path, edit):
        doc = json.loads((trained / "bayes" / "model.json").read_text())
        edit(doc["output"]["prior"])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("edit", [
        lambda prior: prior.pop("spike_sigma"),
        lambda prior: prior.update(mix_weight="abc"),
    ], ids=["lacks_spike_sigma", "mix_weight_not_a_number"])
    def test_bad_prior_is_an_archive_error_and_eval_exits_2(self, edit, cli_data, trained, tmp_path, capsys):
        path = self._edited(trained, tmp_path, edit)
        with pytest.raises(ArchiveError):
            load_model(path)
        rc = run([
            "eval", "--model", str(path), "--data", str(cli_data / "test.csv"),
            "--n", "4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "edited.json" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_default_prior_roundtrips_bit_for_bit(self, tmp_path):
        prior = SpikeSlabPrior(mix_weight=0.3, slab_sigma=2.0, spike_sigma=0.05)
        model = init_bayes_model(2, 3, TrainConfig(hidden_dim=4, seed=8, prior=prior))
        save_model(ModelArchive(model), tmp_path / "m.json")
        back = load_model(tmp_path / "m.json").model.output.prior
        assert back == prior
        for f in fields(SpikeSlabPrior):
            assert np.float64(getattr(back, f.name)).tobytes() == np.float64(getattr(prior, f.name)).tobytes()
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["output"]["prior"] == {"mix_weight": 0.3, "slab_sigma": 2.0, "spike_sigma": 0.05}


def test_empty_dataset_name_means_the_file_stem(cli_data, trained, tmp_path):
    rc = run([
        "eval", "--model", str(trained / "base" / "model.json"), "--data", str(cli_data / "test.csv"),
        "--dataset-name", "", "--n", "4", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["dataset_name"] == "test"


class TestSettingsResolver:
    def _predict_and_eval(self, trained, cli_data, out, args):
        common = ["--model", str(trained / "bayes" / "model.json"), "--data", str(cli_data / "test.csv"), *args]
        assert run(["predict", *common, "--out", str(out / "p")]) == 0
        assert run(["eval", *common, "--out", str(out / "e")]) == 0
        header = json.loads((out / "p" / "predictions.jsonl").read_text().splitlines()[0])
        config = json.loads((out / "e" / "report.json").read_text())["config"]
        return header, config

    def test_prediction_file_values_with_a_flag_override(self, cli_data, trained, tmp_path):
        cfg = tmp_path / "predict.cfg"
        # epochs is a training key: legal in the file every command reads
        cfg.write_text("mc_samples_predict = 7\nuncertainty_threshold = 0.2\nconfidence_threshold = 0.6\n"
                       "ci_level = 0.8\nseed = 5\nepochs = 3\n")
        args = ["--config", str(cfg), "--n", "9"]
        header, config = self._predict_and_eval(trained, cli_data, tmp_path / "file", args)
        expected = {"seed": 5, "mc_samples": 9, "uncertainty_threshold": 0.2,
                    "confidence_threshold": 0.6, "ci_level": 0.8}
        assert {k: header[k] for k in expected} == expected
        assert config == {**expected, "variant": "bayesian"}
        flags = ["--seed", "5", "--n", "9", "--uncertainty-threshold", "0.2",
                 "--confidence-threshold", "0.6", "--ci-level", "0.8"]
        self._predict_and_eval(trained, cli_data, tmp_path / "flags", flags)
        for artifact in ("p/predictions.jsonl", "e/report.json"):
            assert (tmp_path / "file" / artifact).read_bytes() == (tmp_path / "flags" / artifact).read_bytes()

    def test_prediction_defaults_come_from_their_owners(self, cli_data, trained, tmp_path):
        header, config = self._predict_and_eval(trained, cli_data, tmp_path, [])
        expected = {"seed": TrainConfig().seed, "mc_samples": MC_SAMPLES,
                    "uncertainty_threshold": ReferralThresholds().uncertainty,
                    "confidence_threshold": ReferralThresholds().confidence, "ci_level": CI_LEVEL}
        assert {k: header[k] for k in expected} == expected
        assert config == {**expected, "variant": "bayesian"}

    def test_flag_beats_an_out_of_range_file_value(self, cli_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = -1\nhidden_dim = 4\n")
        rc = run(["train", "--data", str(cli_data / "train.csv"), "--config", str(cfg),
                  "--epochs", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert load_model(tmp_path / "out" / "model.json").train_config["epochs"] == 1

    @pytest.mark.parametrize("head", ["bayes", "base"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("source", [["--n", "-3"], ["--n", "0"], ["--config", "n.cfg"]])
    def test_draw_count_below_one_exits_2_naming_it(self, source, command, head, cli_data, trained, tmp_path,
                                                    capsys):
        (tmp_path / "n.cfg").write_text("mc_samples_predict = 0\n")
        source = [str(tmp_path / a) if a.endswith(".cfg") else a for a in source]
        rc = run([command, "--model", str(trained / head / "model.json"), "--data", str(cli_data / "test.csv"),
                  *source, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--n" in err and "mc_samples_predict" in err
        assert not (tmp_path / "out").exists()

    def test_draw_count_is_checked_before_the_model_loads(self, cli_data, tmp_path, capsys):
        rc = run(["eval", "--model", str(tmp_path / "absent.json"), "--data", str(cli_data / "test.csv"),
                  "--n", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "mc_samples_predict" in capsys.readouterr().err

    @pytest.mark.parametrize("text, keys", [
        ("epoch = 1\nhiden_dim = 4\n", ["epoch", "hiden_dim"]),
        ("uncertainty_treshold = 0.9\n", ["uncertainty_treshold"]),
        ("kl_weight_mode = per_batch\n", ["kl_weight_mode"]),  # a training key no longer read
    ])
    @pytest.mark.parametrize("command", ["train", "predict", "eval", "synth"])
    def test_unknown_key_exits_2_and_writes_nothing(self, command, text, keys, cli_data, trained, tmp_path,
                                                    capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        args = {
            "train": ["--data", str(cli_data / "train.csv")],
            "predict": ["--model", str(trained / "bayes" / "model.json"), "--data", str(cli_data / "test.csv")],
            "eval": ["--model", str(trained / "bayes" / "model.json"), "--data", str(cli_data / "test.csv")],
            "synth": ["--n-per-class", "4", "--means=-2,0;2,0"],
        }[command]
        rc = run([command, *args, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(repr(k) in err for k in keys)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--report", "report.json"],
    ["compare", "--bayes", "a.json", "--baseline", "b.json"],
    ["study"],
])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--config", "run.cfg"]])
def test_report_commands_reject_seed_and_config(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a command that wrongly parses writes into its default --out
    with pytest.raises(SystemExit) as e:
        run([*command, *flag])
    assert e.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["train", "--data", "train.csv", "--epoch", "3"], "--epoch"),
    (["predict", "--model", "model.json", "--data", "d.csv", "--uncertainty", "0.5"], "--uncertainty"),
    (["eval", "--model", "model.json", "--data", "d.csv", "--dataset", "foo"], "--dataset"),
    (["analyze", "--report", "report.json", "--bin", "5"], "--bin"),
    (["compare", "--bayes", "a.json", "--baseline", "b.json", "--name", "x"], "--name"),
    (["synth", "--n-per-class", "5", "--means", "0,0", "--shift-n", "1.5"], "--shift-n"),
    (["study", "--epoch", "1"], "--epoch"),
])
def test_an_abbreviated_flag_exits_2(argv, flag, tmp_path, monkeypatch, capsys):
    # each is an unambiguous prefix of one of the command's flags, which argparse would take by default
    monkeypatch.chdir(tmp_path)  # a command that wrongly parses writes into its default --out
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def good_report_doc(cli_data, trained, tmp_path_factory):
    out = tmp_path_factory.mktemp("typed_report")
    assert run([
        "eval", "--model", str(trained / "bayes" / "model.json"),
        "--data", str(cli_data / "test.csv"), "--seed", "7", "--n", "8", "--out", str(out),
    ]) == 0
    return json.loads((out / "report.json").read_text())


class TestFigureFiles:
    @pytest.fixture
    def report_path(self, good_report_doc, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(good_report_doc))
        return path

    @pytest.mark.parametrize("name", ["../../escaped", "..", ".", "", "a/b", "a\\b"])
    def test_a_dataset_name_that_is_not_a_file_name_exits_2(self, name, report_path, tmp_path, capsys):
        doc = json.loads(report_path.read_text())
        doc["dataset_name"] = name
        report_path.write_text(json.dumps(doc))
        assert run(["analyze", "--report", str(report_path), "--out", str(tmp_path / "a" / "b")]) == 2
        assert "not a plain file name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["report.json"]

    @pytest.mark.parametrize("name", ["p\nq", "p\rq", "tab\there", "nul\x00", "del\x7f", "c1\x85"])
    def test_a_dataset_name_with_a_control_character_exits_2_and_writes_nothing(self, name, report_path,
                                                                                cli_data, trained, tmp_path,
                                                                                capsys):
        out = tmp_path / "out"
        assert run(["eval", "--model", str(trained / "bayes" / "model.json"), "--data",
                    str(cli_data / "test.csv"), "--dataset-name", name, "--n", "4", "--out", str(out)]) == 2
        doc = json.loads(report_path.read_text())
        doc["dataset_name"] = name
        report_path.write_text(json.dumps(doc))
        assert run(["analyze", "--report", str(report_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error:") and "not a plain file name" in line for line in err)
        assert [p.name for p in tmp_path.rglob("*")] == ["report.json"]

    def test_bins_below_one_exits_2_and_writes_nothing(self, report_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["analyze", "--report", str(report_path), "--bins", "0", "--out", str(out)]) == 2
        assert "n_bins must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []


STUDY = ["study", "--seeds", "2", "--epochs", "3", "--n", "10"]


class TestStudyCommand:
    def test_writes_the_figures_and_table_and_a_rerun_is_byte_identical(self, tmp_path):
        for out in ("a", "b"):
            assert run([*STUDY, "--out", str(tmp_path / out)]) == 0
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(["comparison.csv", "comparison.json", *(
            f"{regime}_{kind}.csv" for regime in ("in-dist", "shifted", "ood")
            for kind in ("uncertainty_kde", "entropy_hist"))])
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == files
        assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
        doc = json.loads((tmp_path / "a" / "comparison.json").read_text())
        assert doc["config"] == {"seeds": 2, "noise": 1.5, "epochs": 3, "mc_samples": 10}
        assert [r["dataset"] for r in doc["rows"]] == [
            f"seed{s}/{regime}" for s in range(2) for regime in ("in-dist", "shifted", "ood")]

    @pytest.mark.parametrize("flag, value, expect", [
        ("--seeds", "0", "--seeds"), ("--n", "0", "--n"),
        ("--noise", "-1", "noise_sigma"), ("--noise", "nan", "noise_sigma"),
    ])
    def test_bad_setting_exits_2_before_training(self, flag, value, expect, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "train_bayes", None)  # a call would fail with TypeError, not exit 2
        out = tmp_path / "out"
        out.mkdir()
        assert run([*STUDY, flag, value, "--out", str(out)]) == 2
        assert expect in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestMistypedReport:
    EDITS = {
        "records_not_a_list": ("records", lambda doc: doc.update(records=5)),
        "accuracy_text": ("accuracy", lambda doc: doc.update(accuracy="x")),
        "n_classes_text": ("n_classes", lambda doc: doc.update(n_classes="x")),
        "mc_samples_bool": ("mc_samples", lambda doc: doc.update(mc_samples=True)),
        "confusion_wrong_shape": ("confusion", lambda doc: doc.update(confusion=[[1, 2, 3]])),
        "confusion_ragged": ("confusion", lambda doc: doc.update(confusion=[[1, 2], [3]])),
        "confusion_floats": ("confusion", lambda doc: doc["confusion"][0].__setitem__(0, 1.5)),
        "record_label_text": ("label", lambda doc: doc["records"][0].update(label="0")),
        "accuracy_above_one": ("accuracy", lambda doc: doc.update(accuracy=7.0)),
        "referral_rate_negative": ("referral_rate", lambda doc: doc.update(referral_rate=-1.0)),
        "mc_samples_negative": ("mc_samples", lambda doc: doc.update(mc_samples=-5)),
        "confusion_negative": ("confusion", lambda doc: doc["confusion"][0].__setitem__(1, -3)),
        "record_label_out_of_range": ("label", lambda doc: doc["records"][0].update(label=9)),
        "record_predicted_class_negative": ("predicted_class",
                                            lambda doc: doc["records"][0].update(predicted_class=-1)),
        "record_mean_probs_short": ("mean_probs", lambda doc: doc["records"][0].update(mean_probs=[1.0])),
        "record_var_probs_long": ("var_probs", lambda doc: doc["records"][0]["var_probs"].append(0.0)),
        "record_ci_low_short": ("ci_low", lambda doc: doc["records"][0]["ci_low"].pop()),
        "record_ci_high_empty": ("ci_high", lambda doc: doc["records"][0].update(ci_high=[])),
        "record_uncertainty_nan": ("uncertainty", lambda doc: doc["records"][0].update(uncertainty=math.nan)),
        "record_uncertainty_inf": ("uncertainty", lambda doc: doc["records"][0].update(uncertainty=math.inf)),
        "record_uncertainty_negative": ("uncertainty", lambda doc: doc["records"][0].update(uncertainty=-0.5)),
        "record_entropy_nan": ("entropy_bits", lambda doc: doc["records"][0].update(entropy_bits=math.nan)),
        "record_entropy_inf": ("entropy_bits", lambda doc: doc["records"][0].update(entropy_bits=math.inf)),
        "record_entropy_negative": ("entropy_bits", lambda doc: doc["records"][0].update(entropy_bits=-4.0)),
        "record_correct_contradicts": ("correct", lambda doc: doc["records"][0].update(
            correct=not doc["records"][0]["correct"])),
        "record_mean_probs_text": ("mean_probs",
                                   lambda doc: doc["records"][0].update(mean_probs=["0.5", "0.5"])),
        "record_var_probs_bool": ("var_probs", lambda doc: doc["records"][0]["var_probs"].__setitem__(0, True)),
        "record_ci_low_nan": ("ci_low", lambda doc: doc["records"][0]["ci_low"].__setitem__(1, math.nan)),
        "record_ci_high_inf": ("ci_high", lambda doc: doc["records"][0]["ci_high"].__setitem__(0, -math.inf)),
        "record_action_unknown": ("action", lambda doc: doc["records"][0].update(action="defer")),
        "record_mean_probs_not_a_simplex": ("mean_probs",
                                            lambda doc: doc["records"][0].update(mean_probs=[3.0, -2.0])),
        "record_mean_probs_sum_above_one": ("mean_probs",
                                            lambda doc: doc["records"][0].update(mean_probs=[0.5, 0.6])),
        "record_predicted_class_not_argmax": ("predicted_class",
                                              lambda doc: doc["records"][0]["mean_probs"].reverse()),
        "record_var_probs_negative": ("var_probs", lambda doc: doc["records"][0]["var_probs"].__setitem__(1, -1e-3)),
        "record_ci_low_above_ci_high": ("ci_low", lambda doc: doc["records"][0].update(
            ci_low=[0.9, 0.9], ci_high=[0.1, 0.1])),
        "records_empty": ("records", lambda doc: doc.update(records=[])),
        "accuracy_disagrees": ("accuracy", lambda doc: doc.update(accuracy=0.1)),
        "referral_rate_disagrees": ("referral_rate", lambda doc: doc.update(referral_rate=0.0)),
        "record_action_flipped": ("referral_rate", lambda doc: doc["records"][0].update(
            action="accept" if doc["records"][0]["action"] == "refer" else "refer")),
        "mean_entropy_correct_disagrees": ("mean_entropy_correct", lambda doc: doc.update(
            mean_entropy_correct=doc["mean_entropy_correct"] + 0.125)),
        "mean_entropy_incorrect_absent": ("mean_entropy_incorrect",
                                          lambda doc: doc.update(mean_entropy_incorrect=None)),
        "confusion_all_zero": ("confusion", lambda doc: doc.update(confusion=[[0, 0], [0, 0]])),
    }

    @pytest.fixture(params=sorted(EDITS))
    def bad_report(self, request, good_report_doc, tmp_path):
        field, edit = self.EDITS[request.param]
        doc = json.loads(json.dumps(good_report_doc))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path, field

    def test_analyze_exits_2(self, bad_report, tmp_path, capsys):
        path, field = bad_report
        assert run(["analyze", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err
        assert not (tmp_path / "out").exists()

    def test_compare_exits_2(self, bad_report, good_report_doc, tmp_path, capsys):
        path, field = bad_report
        good = tmp_path / "good.json"
        good.write_text(json.dumps(good_report_doc))
        rc = run(["compare", "--bayes", str(good), "--baseline", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err
        assert not (tmp_path / "out").exists()


def test_the_parser_is_built_once_and_a_patched_command_is_reached(tmp_path, monkeypatch):
    cli.build_parser.cache_clear()
    argv = ["eval", "--model", str(tmp_path / "none.json"), "--data", "d.csv", "--out", str(tmp_path / "out")]
    assert run(argv) == 2  # the real cmd_eval: the archive is missing
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.command) or 0)
    assert run(argv) == 0
    assert calls == ["eval"]
    assert cli.build_parser.cache_info().misses == 1


class TestNumbersBeyondRange:
    """An integer too large for int64 or float64 in an input file is that file's input error."""

    def _exits_2(self, argv, named, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "out").exists()

    def test_a_csv_label(self, trained, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("id,label,f0,f1\na,0,1.0,2.0\nb,100000000000000000000000000000,3.5,-1.0\n")
        argv = ["eval", "--model", str(trained / "bayes" / "model.json"), "--data", str(path)]
        self._exits_2(argv, "huge.csv: row 3: unknown label value", tmp_path, capsys)

    @pytest.mark.parametrize("field, edit", [
        ("ci_low", lambda record: record["ci_low"].__setitem__(0, 10**400)),
        ("entropy_bits", lambda record: record.update(entropy_bits=10**400)),
    ], ids=["ci_low", "entropy_bits"])
    def test_a_report_record_field(self, field, edit, good_report_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(good_report_doc))
        edit(doc["records"][0])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        self._exits_2(["analyze", "--report", str(path)], f"PredictionRecord field '{field}'", tmp_path, capsys)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["hidden"]["weights"][0].__setitem__(0, 10**400),
        lambda doc: doc["output"]["prior"].update(slab_sigma=10**400),
    ], ids=["hidden_weight", "slab_sigma"])
    def test_a_model_archive_number(self, edit, cli_data, trained, tmp_path, capsys):
        doc = json.loads((trained / "bayes" / "model.json").read_text())
        edit(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = ["eval", "--model", str(path), "--data", str(cli_data / "test.csv")]
        self._exits_2(argv, f"corrupt model archive {path}", tmp_path, capsys)
