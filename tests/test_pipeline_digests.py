"""The README pipeline's artifacts, pinned by sha256.

Byte-identical artifacts across commits are the project's main contract:
a change that means to keep every bit (a refactor, a speed-up) must leave
each digest here as it is, and a change that moves bits on purpose updates
the pins and says why.  Training matmuls go through BLAS, so the pins hold
for the build they were taken with: numpy 2.4.6 with OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH) on x86-64, Python 3.11.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
    "data/ood.meta.json": "bd48d15421835e5ddd9cfc09bfcbc12b622e342a095ec5201b235fceb7728437",
    "data/shifted.csv": "a7c2a1120c727feb376c3e213dcd46f41b9ef84a9bc97542c590ade353d8c8c2",
    "data/shifted.meta.json": "861145dc3d57064afb2bcc10db5c707f28422765a9b6e88553d311e568fe68f8",
    "data/test.csv": "f74ab4436b691c5ac1c22e7f1fdbb96bb8466733d751f78fab8d0778ced62707",
    "data/test.meta.json": "5a13ed3f4ae1ee8f8a9867a6ebb3cb2af659a1815f32f103fedf6d699d9351ef",
    "data/train.csv": "6ceaf0ebf1aef1bae0c5f1fdb13e8770a297724af2591100a4abed719b17efe0",
    "data/train.meta.json": "ca89b4b44bd350151d88203dfe7aa1047d50656dafedea915e6153613cfa794b",
    "eval_base_ood/report.json": "f9d8b4efd6f8fbb9be17b81d3451bb67bf9c1ed230f146af2fe163bb70664422",
    "eval_base_shifted/report.json": "d40efd5b1e3ec139d1643663d5f3384773874fad087530f4dbce3236271b3cce",
    "eval_base_test/report.json": "c01cc92005178f58e0c33ad57ac5518de0879ca66a62aa38530be3ca56219aaf",
    "eval_bayes_ood/report.json": "e4396e6ebca5ebc11e38094b8566dad9abf94d4fa8e858f59a8e4e484942f78d",
    "eval_bayes_shifted/report.json": "dd018b0fc6d022e71b32213cf4cc2bd88e70471258b37b427adcafacf2e02b62",
    "eval_bayes_test/report.json": "ae1621db2f78f5c6d4a64b1e5ab5b250a68e0d32784b5b5c7543111e6deeb42b",
    "figures/ood_entropy_hist.csv": "8d06dc1878acec341892b5fe330f1652e489b571b957c87cc0d16dc23a2eae00",
    "figures/ood_uncertainty_kde.csv": "6f325488e6279f9c126674cd498e6b00999cb59483791bf4ca5e3ebef85ccb19",
    "figures/test_entropy_hist.csv": "3c7aca167fd0f3804fe328ee9d062e616f683176a33578836c597de613917a8a",
    "figures/test_uncertainty_kde.csv": "c81e67349ea4afd2317516e220a9eff7cfbde20b1f19caa7f707fa3727bf447b",
    "per_example.cfg": "4dd118154ab7826a9d8876f19ce76e80d1bcde6201e90023dde7c4f89ad13a81",
    "preds/predictions.jsonl": "1b8b004ab9348e530925306d4f2ffa0f6a03c0e4801171a5d9cfb5aaade828ea",
    "preds_pe/predictions.jsonl": "3959310618862d9732456d6b291a8f554f5eed5d0d2ad44b33997b75f07d23a8",
    "run_base/history.csv": "cac7035393e2aa2cd0aa19698a3d5fb431dbca032333b27bcdd4dc44fb1576cc",
    "run_base/model.json": "dafa0f1af1e560a69f5b140867f9dccd3eb3106525c9500b24faaf63fd177944",
    "run_bayes/history.csv": "5964de4919554feabd7b67910124917f0fc49a26a424a9ba75084e031a7f4757",
    "run_bayes/model.json": "3296c7f551833399b859db361592ec6571d83608cd719e82e5e6f7c6dd18f3df",
    "run_pe/history.csv": "40570fe1be62fac50f1a109ec1274b3f35ddab823e4bdcd5f047ee7b47037cfa",
    "run_pe/model.json": "52151af4356e99a4605d71ca57fea30ac6d050a43b993012333c68436168fbdd",
    "study/comparison.csv": "7675f3271769e94a94f291c675fdbf579a5a339345656e76ebb395c69ac7289a",
    "study/comparison.json": "78cdccfb2f4e08616c5f5c9ce9d686a5755bb3839cea353fbd790512a588781d",
    "study/in-dist_entropy_hist.csv": "ae9d4d8e74a74aabae70bb836e2559b846e0f0f259139ea16a0101d25df8dbaf",
    "study/in-dist_uncertainty_kde.csv": "b85d8aceb4f64fd80982efc0ca28ce1f7239852d1222b5b5f19dcb28c3b18d21",
    "study/ood_entropy_hist.csv": "d79321b9819da3efd232bebdc9ab38536a1ffc87e1bb589c80370db92474674f",
    "study/ood_uncertainty_kde.csv": "c5576db0be86424fded65f5e1a54564e5648ef5e4a9576f030b78d85a54d5434",
    "study/shifted_entropy_hist.csv": "91d8863691ad727b3a9e8146f917ed43c5c0662a7e2c71147de3c1d649cc6f71",
    "study/shifted_uncertainty_kde.csv": "c6cff1e4ebbc2b66fd4a115972156ce7bf2779cba8e01c0bd2bd5cf8a5b3ce5b",
    "table/comparison.csv": "b67ccce77b5c080848978ee82a410241b01df680c2471cf3b00c5b76734b973d",
    "table/comparison.json": "14f15244067c5eec318711d8ae2f2c9342a4fc8bffa5287c1e60ece900b6c6e2",
}


def _digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """The directory the README pipeline ran in, run once for the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        Path("per_example.cfg").write_text("per_example_sample = true\n")
        for argv in PIPELINE:
            assert run(argv) == 0, argv
    return root


def test_readme_pipeline_artifacts_are_pinned(pipeline_dir):
    assert _digests(pipeline_dir) == EXPECTED, build_note()


def test_every_json_artifact_is_json_dumps_with_its_defaults(pipeline_dir):
    # one encoding for every .json artifact, as for predictions.jsonl: json.dumps(doc) and a newline
    paths = sorted(pipeline_dir.rglob("*.json"))
    assert len(paths) == sum(name.endswith(".json") for name in EXPECTED) == 15
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)) + "\n", path
