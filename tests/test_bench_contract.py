"""The benchmark's span tracer still fits the package.

``perfbench/spans.py`` wraps, from outside the package, the functions and
methods the CLI calls through, looking each one up by name. A rename in the
package would crash traced benchmark runs (``--trace 1``); these tests make
it fail here instead. They only read ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

import advsamp.cli
import advsamp.data_io
import advsamp.noise
import advsamp.training
from advsamp.aux_tree import AuxiliaryTree
from advsamp.linear_model import LinearClassifier
from advsamp.noise import AdversarialNoise

from test_cli import run, write_svmlight

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (advsamp.cli, advsamp.data_io, advsamp.noise, advsamp.training,
          AuxiliaryTree, LinearClassifier, AdversarialNoise)


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer("contract")


def attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_install_patches_and_uninstall_restores(tracer):
    before = attributes()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert (AdversarialNoise, "log_prob_matrix") in patched
        assert (advsamp.noise, "apply_pca_matrix") in patched
        assert (advsamp.training, "evaluate") in patched
        for key in patched:
            assert vars(key[0])[key[1]] is not before[key]
    finally:
        tracer.uninstall()
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_pipeline_records_each_layer(tracer, tmp_path):
    write_svmlight(tmp_path / "train.txt", 80, 5, 8, seed=0)
    write_svmlight(tmp_path / "test.txt", 30, 5, 8, seed=1)
    sets = ["seed=1", f"train_path={tmp_path / 'train.txt'}",
            f"test_path={tmp_path / 'test.txt'}", "pca_k=3", "epochs=1",
            "learning_rate=0.1", "log_every=0", "noise=adversarial"]
    tracer.install()
    try:
        for command in ("preprocess", "fit-aux", "train", "eval"):
            assert run(command, tmp_path / "out", sets) == 0
    finally:
        tracer.uninstall()
    names = {s["name"] for s in tracer.spans}
    for name in ("data_io.fit_pca", "data_io.apply_pca_matrix", "aux_tree.fit_tree",
                 "aux_tree.sample_batch", "training.train", "inference.evaluate",
                 "noise.log_prob_matrix", "aux_tree.log_prob_all"):
        assert name in names, name
