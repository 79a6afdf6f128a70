"""The README pipeline's artifacts, pinned by sha256.

Byte-identical artifacts across commits are the project's main contract:
a change that means to keep every bit (a refactor, a speed-up) must leave
each digest here as it is, and a change that moves bits on purpose updates
the pins and says why.  Training matmuls go through BLAS, so the pins hold
for the build they were taken with: numpy 2.4.6 with OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH) on x86-64, Python 3.11.
"""

import hashlib
from pathlib import Path

from bayeshead.cli import run
from conftest import build_note

MEANS = "--means=-2,0;2,0"

PIPELINE = [
    ["synth", "--n-per-class", "60", MEANS, "--sigma", "1.0", "--name", "train", "--seed", "11", "--out", "data"],
    ["synth", "--n-per-class", "40", MEANS, "--sigma", "1.0", "--name", "test", "--seed", "22", "--out", "data"],
    ["synth", "--n-per-class", "40", MEANS, "--name", "shifted", "--shift-noise", "1.5", "--seed", "22",
     "--out", "data"],
    ["synth", "--n-per-class", "20", MEANS, "--name", "ood", "--shift-offset", "0,6", "--seed", "33",
     "--out", "data"],
    ["train", "--data", "data/train.csv", "--val", "data/test.csv", "--seed", "3", "--epochs", "40",
     "--out", "run_bayes"],
    ["train", "--data", "data/train.csv", "--val", "data/test.csv", "--seed", "3", "--epochs", "40",
     "--baseline", "--out", "run_base"],
    ["train", "--data", "data/train.csv", "--val", "data/test.csv", "--seed", "3", "--epochs", "15",
     "--config", "per_example.cfg", "--out", "run_pe"],
    ["predict", "--model", "run_bayes/model.json", "--data", "data/test.csv", "--out", "preds"],
    ["predict", "--model", "run_pe/model.json", "--data", "data/ood.csv", "--out", "preds_pe"],
    *(["eval", "--model", f"run_{head}/model.json", "--data", f"data/{name}.csv", "--dataset-name", name,
       "--seed", "7", "--out", f"eval_{head}_{name}"]
      for head in ("bayes", "base") for name in ("test", "shifted", "ood")),
    ["analyze", "--report", "eval_bayes_test/report.json", "--out", "figures"],
    ["analyze", "--report", "eval_bayes_ood/report.json", "--out", "figures"],
    ["compare", "--bayes", "eval_bayes_test/report.json", "eval_bayes_shifted/report.json",
     "eval_bayes_ood/report.json", "--baseline", "eval_base_test/report.json",
     "eval_base_shifted/report.json", "eval_base_ood/report.json", "--out", "table"],
    ["study", "--seeds", "2", "--epochs", "3", "--n", "10", "--out", "study"],
]

EXPECTED = {
    "data/ood.csv": "51eb7ceb4e628d470cc9f80fadb5fdc53df83c7a1aa0f0119c98b694970e93a6",
    "data/ood.meta.json": "f1cf26bc9af92286d9832ed38aa836ba4669d66f1d24e05314d5b5e5cc8dc33b",
    "data/shifted.csv": "a7c2a1120c727feb376c3e213dcd46f41b9ef84a9bc97542c590ade353d8c8c2",
    "data/shifted.meta.json": "6de1e55f4182de989f681b7efcffca945a94cfc1ad86c2a0e24506f6677b8dd1",
    "data/test.csv": "f74ab4436b691c5ac1c22e7f1fdbb96bb8466733d751f78fab8d0778ced62707",
    "data/test.meta.json": "50abf100f9b2e74ae91d5372735fdfb33f38379752875349afb8581d82f7c014",
    "data/train.csv": "6ceaf0ebf1aef1bae0c5f1fdb13e8770a297724af2591100a4abed719b17efe0",
    "data/train.meta.json": "354bc5ae20c802e82efb8b047fc1caa9652a27d55a92bb92017056d4deed4aee",
    "eval_base_ood/report.json": "dadb95883b15a32263e32b7bdadf5b085bfd1b1bbc2eb9bcc70992cebbe0a1f7",
    "eval_base_shifted/report.json": "2a57f4d9e84db559ed22eeb7072408166066175c947712e49f3cc09164e70211",
    "eval_base_test/report.json": "7137b68eebd0d5b47ee5383a9de2a1e59e0ee243b38d6d2adc42a898bee21aa5",
    "eval_bayes_ood/report.json": "a1238e58b055ba23f593b9f8945a3bbe1d06e43d0205260c924c6513dc43f3d6",
    "eval_bayes_shifted/report.json": "3d727bc7aa9e94f66b825e5e9b1cc145f5c31b7cf4e98ba8e14c20ff19ed8f73",
    "eval_bayes_test/report.json": "1829805b97c3a03fde62fa7df5803f467b517504d28da98b887a5a02486945da",
    "figures/ood_entropy_hist.csv": "8d06dc1878acec341892b5fe330f1652e489b571b957c87cc0d16dc23a2eae00",
    "figures/ood_uncertainty_kde.csv": "6f325488e6279f9c126674cd498e6b00999cb59483791bf4ca5e3ebef85ccb19",
    "figures/test_entropy_hist.csv": "3c7aca167fd0f3804fe328ee9d062e616f683176a33578836c597de613917a8a",
    "figures/test_uncertainty_kde.csv": "c81e67349ea4afd2317516e220a9eff7cfbde20b1f19caa7f707fa3727bf447b",
    "per_example.cfg": "4dd118154ab7826a9d8876f19ce76e80d1bcde6201e90023dde7c4f89ad13a81",
    "preds/predictions.jsonl": "1b8b004ab9348e530925306d4f2ffa0f6a03c0e4801171a5d9cfb5aaade828ea",
    "preds_pe/predictions.jsonl": "3959310618862d9732456d6b291a8f554f5eed5d0d2ad44b33997b75f07d23a8",
    "run_base/history.csv": "cac7035393e2aa2cd0aa19698a3d5fb431dbca032333b27bcdd4dc44fb1576cc",
    "run_base/model.json": "d8caf883938c56800f58fba009825d1189c91400ebcc6f05e27fcb61624238b0",
    "run_bayes/history.csv": "5964de4919554feabd7b67910124917f0fc49a26a424a9ba75084e031a7f4757",
    "run_bayes/model.json": "2fb54531aaf3a7c268866b82b2879380d43d2b84476f0e9a9f4fdac59f2b8cfa",
    "run_pe/history.csv": "40570fe1be62fac50f1a109ec1274b3f35ddab823e4bdcd5f047ee7b47037cfa",
    "run_pe/model.json": "32aca6659890132696053da61b0cd49da8f0d22da314a1c8200bd8f8e224f55f",
    "study/comparison.csv": "7675f3271769e94a94f291c675fdbf579a5a339345656e76ebb395c69ac7289a",
    "study/comparison.json": "71fe48178de08df9d9636f0312d91694bb18f058ec73dd532eb51f11bdebaf1e",
    "study/in-dist_entropy_hist.csv": "ae9d4d8e74a74aabae70bb836e2559b846e0f0f259139ea16a0101d25df8dbaf",
    "study/in-dist_uncertainty_kde.csv": "b85d8aceb4f64fd80982efc0ca28ce1f7239852d1222b5b5f19dcb28c3b18d21",
    "study/ood_entropy_hist.csv": "d79321b9819da3efd232bebdc9ab38536a1ffc87e1bb589c80370db92474674f",
    "study/ood_uncertainty_kde.csv": "c5576db0be86424fded65f5e1a54564e5648ef5e4a9576f030b78d85a54d5434",
    "study/shifted_entropy_hist.csv": "91d8863691ad727b3a9e8146f917ed43c5c0662a7e2c71147de3c1d649cc6f71",
    "study/shifted_uncertainty_kde.csv": "c6cff1e4ebbc2b66fd4a115972156ce7bf2779cba8e01c0bd2bd5cf8a5b3ce5b",
    "table/comparison.csv": "b67ccce77b5c080848978ee82a410241b01df680c2471cf3b00c5b76734b973d",
    "table/comparison.json": "b579165744190001aaf23ec1ebd8f6d605bb354645e637ed647b7909412136ea",
}


def _digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_readme_pipeline_artifacts_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("per_example.cfg").write_text("per_example_sample = true\n")
    for argv in PIPELINE:
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert _digests(tmp_path) == EXPECTED, build_note()
