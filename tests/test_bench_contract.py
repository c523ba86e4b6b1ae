"""The benchmark's span tracer and output checks still fit the package.

``perfbench/spans.py`` wraps, from outside the package, the functions and
methods the CLI calls through, looking each one up by name. A rename in the
package would crash traced benchmark runs (``--trace 1``); these tests make
it fail here instead. ``perfbench/checks.py`` recomputes tree log-probs by
its own path walk, which must keep agreeing with the package. The tests
only read ``perfbench/``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import advsamp.cli
import advsamp.data_io
import advsamp.noise
import advsamp.training
from advsamp.aux_tree import AuxiliaryTree, fit_tree
from advsamp.linear_model import LinearClassifier
from advsamp.noise import AdversarialNoise

from test_cli import run, write_svmlight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (advsamp.cli, advsamp.data_io, advsamp.noise, advsamp.training,
          AuxiliaryTree, LinearClassifier, AdversarialNoise)


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    return load_perfbench("spans").Tracer("contract")


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
    with open(tmp_path / "test.txt", "a") as fh:
        fh.write("99 0:1.0 3:2.0\n 1:0.5\n")  # an unseen label and none: two dropped rows
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
    # validation inside train is what training.val_evals counts
    parents = {tracer.spans[s["parent"]]["name"] for s in tracer.spans
               if s["name"] == "inference.evaluate" and s["parent"] is not None}
    assert "training.train" in parents
    # the benchmark counts dropped test rows from the parser's RawDataset
    dropped = [s["attrs"]["test_rows_dropped"] for s in tracer.spans
               if s["name"] == "data_io.reduce_multilabel" and "test_rows_dropped" in s["attrs"]]
    manifest = json.loads((tmp_path / "out" / "manifest-preprocess.json").read_text())
    assert dropped == [manifest["test_rows_dropped"]] == [2]


def test_benchmark_tree_oracle_matches_package():
    # the benchmark checks eval.json against its own root-to-leaf walk
    checks = load_perfbench("checks")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((300, 4))
    tree = fit_tree(X, rng.integers(0, 11, 300), 11)  # 5 padding leaves
    probe = rng.standard_normal((50, 4))
    assert np.abs(checks.tree_log_probs(tree, probe) - tree.log_prob_all(probe)).max() < 1e-12
