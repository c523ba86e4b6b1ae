import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advsamp
import advsamp.cli
import advsamp.inference
from advsamp.cli import main
from advsamp.config import ExperimentConfig, load_config, read_config_file
from advsamp.data_io import fit_pca, load_dataset
from advsamp.errors import DataError, NumericError
from advsamp.linear_model import LinearClassifier
from advsamp.noise import AdversarialNoise
from conftest import dataset_from_dense


def write_svmlight(path, n, C, K, seed, multilabel=False, centers_seed=99):
    # centers come from their own seed so train/test share the clusters
    centers = np.random.default_rng(centers_seed).standard_normal((C, K)) * 3.0
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        y = int(rng.integers(C))
        x = centers[y] + 0.5 * rng.standard_normal(K)
        labels = f"{y},{int(rng.integers(C))}" if multilabel else str(y)
        feats = " ".join(f"{j}:{x[j]:.5f}" for j in range(K))
        lines.append(f"{labels} {feats}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workdir(tmp_path):
    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    write_svmlight(train, 80, 5, 8, seed=0)
    write_svmlight(test, 30, 5, 8, seed=1)
    out = tmp_path / "out"
    base = [
        "seed=42", f"train_path={train}", f"test_path={test}",
        "pca_k=3", "epochs=2", "learning_rate=0.1", "log_every=0",
    ]
    return out, base


def run(command, out, sets):
    return main([command, "--out", str(out), *sum((["--set", s] for s in sets), [])])


class TestPipeline:
    def test_full_adversarial_pipeline(self, workdir, capsys):
        out, base = workdir
        sets = base + ["noise=adversarial", "epochs=15"]
        assert run("preprocess", out, sets) == 0
        preprocess_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert run("fit-aux", out, sets) == 0
        assert run("train", out, sets) == 0
        train_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert run("eval", out, sets) == 0
        commands = ("preprocess", "fit-aux", "train", "eval")
        for name in ("train.npz", "val.npz", "test.npz", "pca.npz", "tree.npz",
                     "model.npz", "metrics.csv", "eval.json",
                     *(f"config_used-{c}.cfg" for c in commands),
                     *(f"manifest-{c}.json" for c in commands)):
            assert (out / name).exists(), name
        report = json.loads((out / "eval.json").read_text())
        assert report["split"] == "test"
        assert report["accuracy"] > 0.5  # well-separated clusters
        for command in commands:
            manifest = json.loads((out / f"manifest-{command}.json").read_text())
            assert manifest["command"] == command
            assert manifest["seed"] == 42
            assert manifest["wall_clock_s"] > 0
        # every layer runs only in the kernel, so no record names a backend
        trained = json.loads((out / "manifest-train.json").read_text())
        assert "train_backend" not in trained and "backend=" not in train_line
        assert trained["train_steps_per_s"] > 0
        preprocessed = json.loads((out / "manifest-preprocess.json").read_text())
        assert "parse_backend" not in preprocessed and "backend=" not in preprocess_line
        assert preprocessed["parse_s"] > 0

    def test_fit_aux_records_the_fit(self, workdir, capsys):
        out, base = workdir
        sets = base + ["noise=adversarial"]
        assert run("preprocess", out, sets) == 0
        assert run("fit-aux", out, sets) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        # the fit runs only in the kernel, so neither names a backend
        assert "backend=" not in line
        fit = json.loads((out / "manifest-fit-aux.json").read_text())
        assert "backend" not in fit
        # 5 labels pad to 8: 4 fitted nodes, each at least one round
        assert fit["alternation_rounds"] >= 4
        assert fit["newton_steps"] >= fit["alternation_rounds"]
        assert fit["newton_capped_nodes"] == [] and fit["guard_nodes"] == []
        # the set-up and alternation seconds lie within the fit's wall clock
        assert fit["init_s"] >= 0 and fit["alternation_s"] >= 0
        assert fit["init_s"] + fit["alternation_s"] <= fit["aux_fit_wall_clock_s"]

    def test_retrain_keeps_aux_fit_time(self, workdir):
        # a second train still finds the fit-aux record and shifts its curve
        out, base = workdir
        sets = base + ["noise=adversarial"]
        for command in ("preprocess", "fit-aux", "train", "train"):
            assert run(command, out, sets) == 0
        fit = json.loads((out / "manifest-fit-aux.json").read_text())
        first_row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert float(first_row[2]) >= fit["aux_fit_wall_clock_s"] > 0

    def test_corrupted_tree_is_a_data_error(self, workdir):
        from advsamp.aux_tree import AuxiliaryTree

        out, base = workdir
        sets = base + ["noise=adversarial"]
        assert run("preprocess", out, sets) == 0
        assert run("fit-aux", out, sets) == 0
        tree = AuxiliaryTree.load(out / "tree.npz")
        tree.label_leaf[1] = tree.label_leaf[0]
        tree.save(out / "tree.npz")
        assert run("train", out, sets) == 2

    def test_dropped_test_rows_reported(self, workdir, tmp_path, capsys):
        # one row has an unseen label and one has none: both leave test.npz
        out, base = workdir
        test = tmp_path / "test.txt"
        write_svmlight(test, 6, 5, 8, seed=1)
        with open(test, "a") as fh:
            fh.write("99 0:1.0 3:2.0\n 1:0.5\n")
        assert run("preprocess", out, base) == 0
        manifest = json.loads((out / "manifest-preprocess.json").read_text())
        assert manifest["test_rows_dropped"] == 2
        assert "test_rows_dropped=2" in capsys.readouterr().out

    def test_uniform_training_without_tree(self, workdir):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        assert run("eval", out, base + ["eval_split=validation"]) == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["split"] == "validation"

    def test_train_reruns_bit_identical(self, workdir, tmp_path):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        first = LinearClassifier.load(out / "model.npz")
        assert run("train", out, base) == 0
        second = LinearClassifier.load(out / "model.npz")
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.biases, second.biases)

    def test_seed_changes_model(self, workdir):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        first = LinearClassifier.load(out / "model.npz")
        assert run("train", out, base + ["seed=43"]) == 0
        second = LinearClassifier.load(out / "model.npz")
        assert not np.array_equal(first.weights, second.weights)

    def test_softmax_method(self, workdir):
        out, base = workdir
        sets = base + ["method=softmax_full"]
        assert run("preprocess", out, sets) == 0
        assert run("train", out, sets) == 0
        assert run("eval", out, sets + ["eval_split=validation"]) == 0

    def test_multilabel_reduction(self, workdir, tmp_path):
        out, base = workdir
        ml = tmp_path / "ml.txt"
        write_svmlight(ml, 40, 4, 6, seed=5, multilabel=True)
        sets = [s for s in base if not s.startswith(("train_path", "test_path"))]
        assert run("preprocess", out, sets + [f"train_path={ml}"]) == 0

    def test_feature_pca_projection(self, workdir):
        out, base = workdir
        sets = base + ["feature_pca_k=4", "pca_k=2"]
        assert run("preprocess", out, sets) == 0
        assert (out / "feature_pca.npz").exists()
        from advsamp.data_io import load_dataset

        for name in ("train.npz", "val.npz", "test.npz"):
            assert load_dataset(out / name).num_features == 4
        assert run("train", out, sets) == 0
        assert run("eval", out, sets) == 0

    def test_metrics_csv_structure(self, workdir):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base + ["log_every=30"]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,steps,wall_clock_s")
        assert len(lines) > 2


class TestValidationNoise:
    """``train`` computes the validation rows' noise log-probabilities (and,
    the rows being dense, their dense features) once when their table fits
    the evaluation budget, and streams them at every validation otherwise
    (one-row CSR blocks at budget 0); the learning curve is the same either
    way."""

    def run_train(self, out, sets, monkeypatch, budget):
        sizes = []
        log_prob_matrix = AdversarialNoise.log_prob_matrix

        def counted(noise, Z, out=None):
            sizes.append(len(Z))
            return log_prob_matrix(noise, Z, out=out)

        with monkeypatch.context() as m:
            m.setattr(advsamp.inference, "EVAL_BLOCK_BYTES", budget)
            m.setattr(AdversarialNoise, "log_prob_matrix", counted)
            for command in ("preprocess", "fit-aux", "train"):
                assert run(command, out, sets) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        with np.load(out / "model.npz") as z:
            model = {k: z[k] for k in z.files}
        return rows, model, sizes

    def test_cached_and_streamed_curves_agree(self, workdir, monkeypatch):
        out, base = workdir
        sets = base + ["noise=adversarial", "log_every=20", "eval_at_log=1"]
        cached, model, sizes = self.run_train(out, sets, monkeypatch,
                                              advsamp.inference.EVAL_BLOCK_BYTES)
        n_val = load_dataset(out / "val.npz").num_examples
        assert sizes == [n_val]  # one table for all validations
        streamed, model0, sizes0 = self.run_train(out.parent / "zero", sets, monkeypatch, 0)
        # budget 0: every validation evaluates one row per block
        assert len(cached) > 2 and sizes0 == [1] * (n_val * len(cached))
        for key in model:
            assert np.array_equal(model[key], model0[key]), key
        for row, row0 in zip(cached, streamed, strict=True):
            ll, ll0 = float(row.pop("val_log_lik")), float(row0.pop("val_log_lik"))
            # one-row blocks take BLAS's matrix-vector product, and scipy's
            # CSR product sums in another order than the dense one, so the
            # last bits may differ
            assert abs(ll - ll0) <= 1e-12 * abs(ll)
            del row["wall_clock_s"], row0["wall_clock_s"]
            assert row == row0


class TestDiagnose:
    def test_outputs_and_optimality(self, tmp_path):
        out = tmp_path / "diag"
        code = main(["diagnose", "--out", str(out), "--set", "seed=7",
                     "--set", "diag_sweep=50"])
        assert code == 0
        report = json.loads((out / "snr_report.json").read_text())
        assert set(report) == {"eta_bar", "n_scale", "sum_alpha", "alpha"}
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "candidate,eta_bar"
        assert rows[1].startswith("adversarial")
        sweep = [float(r.split(",")[1]) for r in rows[2:]]
        assert len(sweep) == 50
        assert max(sweep) <= report["eta_bar"] + 1e-12

    @pytest.mark.parametrize("key", ["diag_sweep=0", "diag_labels=1", "diag_contexts=0",
                                     "diag_sweep=-3"])
    def test_degenerate_sizes_exit_2(self, tmp_path, key, capsys):
        code = main(["diagnose", "--out", str(tmp_path / "d"), "--set", "seed=1",
                     "--set", key])
        assert code == 2
        assert key.split("=")[0] in capsys.readouterr().err

    def test_smallest_sizes_run(self, tmp_path):
        out = tmp_path / "d"
        code = main(["diagnose", "--out", str(out), "--set", "seed=1",
                     "--set", "diag_sweep=1", "--set", "diag_labels=2",
                     "--set", "diag_contexts=1"])
        assert code == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 3


class TestEvalMatchesTraining:
    """``eval`` reads the method and noise that trained ``model.npz`` from
    ``manifest-train.json`` and refuses others."""

    @pytest.mark.parametrize("override", ["noise=uniform", "method=softmax_full"])
    def test_mismatch_exits_2(self, workdir, override, capsys):
        out, base = workdir
        sets = base + ["noise=adversarial"]
        for command in ("preprocess", "fit-aux", "train"):
            assert run(command, out, sets) == 0
        trained = json.loads((out / "manifest-train.json").read_text())
        assert (trained["method"], trained["noise"]) == ("neg_sampling", "adversarial")
        assert run("eval", out, sets + [override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (out / "eval.json").exists()
        assert run("eval", out, sets) == 0

    def test_without_train_manifest_eval_runs(self, workdir):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        (out / "manifest-train.json").unlink()
        assert run("eval", out, base + ["noise=frequency"]) == 0

    def test_unreadable_train_manifest_exits_2(self, workdir):
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        (out / "manifest-train.json").write_text("{not json")
        assert run("eval", out, base) == 2


class TestExitCodes:
    @pytest.mark.parametrize("command,key", [
        ("preprocess", "seed=-1"), ("diagnose", "seed=-1"), ("preprocess", "feature_pca_k=-4"),
    ])
    def test_negative_seed_or_feature_pca_k_exits_2(self, workdir, command, key, capsys):
        # a negative seed used to end in numpy's "expected non-negative
        # integer" traceback (exit 1); a negative feature_pca_k ran no
        # feature PCA and exited 0
        out, base = workdir
        assert run(command, out, base + [key]) == 2
        assert f"{key.split('=')[0]} must be at least 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "o"
        code = main(["preprocess", "--out", str(out), "--set", "seed=1",
                     "--set", "train_path=/nonexistent/file.txt"])
        assert code == 2

    @pytest.mark.parametrize("key", ["train_path", "test_path"])
    def test_unreadable_input_exits_2(self, workdir, tmp_path, key, capsys):
        # a directory used to end in an IsADirectoryError traceback (exit 1)
        out, base = workdir
        assert run("preprocess", out, base + [f"{key}={tmp_path}"]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_malformed_data(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0:1.0\n1 junk\n")
        code = main(["preprocess", "--out", str(tmp_path / "o"),
                     "--set", "seed=1", "--set", f"train_path={bad}"])
        assert code == 2

    def test_non_ascii_byte_exits_2(self, tmp_path, capsys):
        # this used to end in a UnicodeDecodeError traceback (exit 1)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1:1.0\n1 2:\xff\n")
        code = main(["preprocess", "--out", str(tmp_path / "o"),
                     "--set", "seed=1", "--set", f"train_path={bad}"])
        assert code == 2
        assert "line 2: non-ASCII byte" in capsys.readouterr().err

    @pytest.mark.parametrize("token,why", [
        ("1:nan", "non-finite feature value"), ("1:-inf", "non-finite feature value"),
        ("1:1e999", "non-finite feature value"),
        ("99999999999999999999:1.0", "feature index out of int64 range"),
    ])
    def test_bad_value_or_index_exits_2(self, tmp_path, token, why, capsys):
        # a non-finite value used to reach PCA and end in an ARPACK traceback,
        # an index past int64 in an OverflowError traceback (both exit 1)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 0:1.0 1:0.5\n1 0:2.0\n2 {token}\n3 0:1.0 1:1.5\n")
        code = main(["preprocess", "--out", str(tmp_path / "o"), "--set", "seed=1",
                     "--set", "pca_k=1", "--set", f"train_path={bad}"])
        assert code == 2
        assert f"line 3: {why}" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["2 99999999999999999999 3", "2 9000000000000000000 3"])
    def test_feature_count_beyond_memory_exits_2(self, tmp_path, header, capsys):
        # these used to end in tracebacks from scipy's CSR constructor and
        # from fit_pca's column mean (both exit 1)
        bad = tmp_path / "bad.txt"
        bad.write_text(header + "\n" + "".join(f"{i % 2} 0:1.0 1:{i}\n" for i in range(10)))
        code = main(["preprocess", "--out", str(tmp_path / "o"), "--set", "seed=1",
                     "--set", "pca_k=1", "--set", f"train_path={bad}"])
        assert code == 2
        assert "line 1: " in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        code = main(["diagnose", "--out", str(tmp_path / "o"),
                     "--set", "seed=1", "--set", "bogus=3"])
        assert code == 2

    @pytest.mark.parametrize("key", ["threads=2", "top_k=5"])
    def test_removed_config_keys_rejected(self, tmp_path, key):
        code = main(["diagnose", "--out", str(tmp_path / "o"),
                     "--set", "seed=1", "--set", key])
        assert code == 2

    @pytest.mark.parametrize("key", ["eval_split=tset", "method=neg_samplng"])
    def test_misspelt_choice_at_eval_exits_2(self, workdir, key, capsys):
        # each used to exit 0: on val.npz, or without bias removal
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        assert run("eval", out, base + [key]) == 2
        assert key.split("=")[0] in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [k for k, t in ExperimentConfig.field_types().items()
                                     if t == "float"])
    def test_non_finite_float_exits_2(self, tmp_path, key, value, capsys):
        # regularizer=nan used to train as 0.0, learning_rate=nan or inf to
        # exit 3 mid-epoch, frequency_smoothing=nan to exit 1 in numpy
        code = main(["diagnose", "--out", str(tmp_path / "o"), "--set", "seed=1",
                     "--set", f"{key}={value}"])
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_non_positive_tree_regularizer_exits_2(self, workdir, capsys):
        out, base = workdir
        sets = base + ["noise=adversarial", "tree_regularizer=0"]
        assert run("preprocess", out, sets) == 0
        assert run("fit-aux", out, sets) == 2
        assert "tree regularizer must be finite and positive" in capsys.readouterr().err
        assert not (out / "tree.npz").exists()

    def test_overflowing_tree_start_exits_3(self, workdir, monkeypatch, capsys):
        # reduced rows of scale 1e200 overflow the start's covariance, which
        # used to end fit-aux in numpy's LinAlgError traceback (exit 1)
        out, base = workdir
        sets = base + ["noise=adversarial"]
        assert run("preprocess", out, sets) == 0
        apply = advsamp.cli.apply_pca_matrix
        monkeypatch.setattr(advsamp.cli, "apply_pca_matrix",
                            lambda proj, features: 1e200 * apply(proj, features))
        assert run("fit-aux", out, sets) == 3
        assert "non-finite parameters" in capsys.readouterr().err
        assert not (out / "tree.npz").exists()

    def test_no_compiler_exits_4(self, workdir, tmp_path, monkeypatch, capsys):
        # a source with no build beside it and no compiler to build it
        source = tmp_path / "pkg" / "_kernel.c"
        source.parent.mkdir()
        shutil.copy(advsamp.kernel.SOURCE, source)
        monkeypatch.setattr(advsamp.kernel, "SOURCE", source)
        monkeypatch.setattr(advsamp.kernel.shutil, "which", lambda name: None)
        advsamp.kernel._outcome.cache_clear()
        try:
            out, base = workdir
            assert run("preprocess", out, base) == 4
        finally:
            advsamp.kernel._outcome.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("compiled kernel unavailable: no C compiler (cc or gcc)"), err

    def test_threads_flag_removed(self, tmp_path, capsys):
        code = main(["diagnose", "--out", str(tmp_path / "o"),
                     "--set", "seed=1", "--threads", "2"])
        assert code == 1

    @pytest.mark.parametrize("corrupt", ["test_column_beyond_k", "model_weights_shape"])
    def test_corrupt_cache_exits_2(self, workdir, corrupt):
        # a subprocess, so that a crash of the loaded data cannot end pytest
        out, base = workdir
        assert run("preprocess", out, base) == 0
        assert run("train", out, base) == 0
        name = "test.npz" if corrupt == "test_column_beyond_k" else "model.npz"
        with np.load(out / name) as z:
            parts = {k: z[k] for k in z.files}
        if name == "test.npz":
            parts["indices"] = parts["indices"].copy()
            parts["indices"][0] = 10**6
        else:
            parts["weights"] = parts["weights"][:1]
        np.savez(out / name, **parts)
        src = Path(advsamp.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "advsamp.cli", "eval", "--out", str(out),
                *sum((["--set", s] for s in base), [])]
        proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr

    def test_pca_no_convergence_exits_3(self, workdir, monkeypatch, capsys):
        import scipy.sparse.linalg as spla

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        ds = dataset_from_dense(np.eye(4, 5), [0, 1, 0, 1], 2)
        with pytest.raises(NumericError, match="did not converge"):
            fit_pca(ds, 2)
        out, base = workdir
        assert run("preprocess", out, base) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["frobnicate", "--out", "x"]) == 1
        assert main([]) == 1


CACHE_KEYS = {
    "train.npz": ("magic", "shape", "data", "indices", "indptr", "labels"),
    "val.npz": ("magic", "shape", "data", "indices", "indptr", "labels"),
    "test.npz": ("magic", "shape", "data", "indices", "indptr", "labels"),
    "pca.npz": ("magic", "mean", "components", "eigenvalues"),
    "tree.npz": ("magic", "meta", "node_w", "node_b", "label_leaf"),
    "model.npz": ("magic", "shape", "weights", "biases"),
}


@pytest.fixture(scope="class")
def trained_run(tmp_path_factory):
    """An adversarial run through train, shared by the cases that copy it."""
    tmp = tmp_path_factory.mktemp("cache")
    write_svmlight(tmp / "train.txt", 80, 5, 8, seed=0)
    write_svmlight(tmp / "test.txt", 30, 5, 8, seed=1)
    sets = ["seed=42", f"train_path={tmp / 'train.txt'}", f"test_path={tmp / 'test.txt'}",
            "pca_k=3", "epochs=1", "learning_rate=0.1", "log_every=0", "noise=adversarial"]
    for command in ("preprocess", "fit-aux", "train"):
        assert run(command, tmp / "run", sets) == 0
    return tmp / "run", sets


class TestCacheKeys:
    """A cache that lacks a key, or is no archive at all, is a data error
    (exit 2) of the command that reads it."""

    @staticmethod
    def command_for(name):
        # an adversarial eval reads neither training split
        return "train" if name in ("train.npz", "val.npz") else "eval"

    @pytest.mark.parametrize("name,key", [(n, k) for n, keys in CACHE_KEYS.items()
                                          for k in keys])
    def test_missing_key_exits_2(self, trained_run, tmp_path, name, key, capsys):
        src, sets = trained_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        with np.load(out / name) as z:
            parts = {k: z[k] for k in z.files if k != key}
        np.savez(out / name, **parts)
        assert run(self.command_for(name), out, sets) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(CACHE_KEYS))
    def test_not_an_archive_exits_2(self, trained_run, tmp_path, name):
        src, sets = trained_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        (out / name).write_bytes(b"not an npz archive\n")
        assert run(self.command_for(name), out, sets) == 2


class TestConfig:
    def test_file_with_comments_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("# comment\nseed = 3\nepochs = 5  # trailing\n")
        cfg = load_config(cfgfile, ["epochs=7", "bias_removal=false"])
        assert cfg.seed == 3 and cfg.epochs == 7 and cfg.bias_removal is False

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=9, learning_rate=0.25, noise="frequency")
        cfg.to_file(tmp_path / "c.cfg")
        back = ExperimentConfig.from_mapping(read_config_file(tmp_path / "c.cfg"))
        assert back == cfg

    def test_requires_seed(self):
        with pytest.raises(DataError):
            ExperimentConfig.from_mapping({"epochs": "3"})

    def test_type_errors(self):
        with pytest.raises(DataError):
            ExperimentConfig.from_mapping({"seed": "1", "epochs": "three"})
        with pytest.raises(DataError):
            ExperimentConfig.from_mapping({"seed": "1", "bias_removal": "maybe"})
        with pytest.raises(DataError):
            ExperimentConfig.from_mapping({"seed": "1", "learning_rate": "fast"})

    @pytest.mark.parametrize("key,value", [
        ("method", "neg_samplng"), ("noise", "adversarial2"), ("eval_split", "tset"),
        ("multilabel_policy", "largest_id"), ("noise", ""),
    ])
    def test_unknown_choice_rejected(self, key, value):
        with pytest.raises(DataError, match=key):
            ExperimentConfig.from_mapping({"seed": "1", key: value})

    @pytest.mark.parametrize("key,low", [("diag_contexts", 1), ("diag_labels", 2),
                                         ("diag_sweep", 1)])
    def test_diag_minimum(self, key, low):
        assert getattr(ExperimentConfig.from_mapping({"seed": "1", key: str(low)}), key) == low
        with pytest.raises(DataError, match=key):
            ExperimentConfig.from_mapping({"seed": "1", key: str(low - 1)})

    def test_bad_override_format(self):
        with pytest.raises(DataError):
            load_config(None, ["epochs"])

    def test_bad_line_reports_location(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("seed = 1\nnot a kv line\n")
        with pytest.raises(DataError, match=":2"):
            read_config_file(cfgfile)


def test_cli_import_skips_heavy_scipy_modules():
    # scipy costs every command import time and resident memory; only
    # preprocess's PCA imports it, inside the call. Nor is the kernel built
    # or loaded before a command needs it
    src = Path(advsamp.__file__).resolve().parents[1]
    code = ("import sys, advsamp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "advsamp.kernel._outcome.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0"


def test_commands_after_preprocess_load_no_scipy(trained_run, tmp_path):
    # fit-aux, train, eval and diagnose on a finished adversarial run
    # directory, one after another in a fresh interpreter
    src, sets = trained_run
    out = tmp_path / "run"
    shutil.copytree(src, out)
    code = ("import json, sys, advsamp.cli\n"
            "out, sets = sys.argv[1], json.loads(sys.argv[2])\n"
            "for command in ('fit-aux', 'train', 'eval', 'diagnose'):\n"
            "    argv = [command, '--out', out, *sum((['--set', s] for s in sets), [])]\n"
            "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "    print(command, advsamp.cli.main(argv), loaded, flush=True)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(out), json.dumps(sets)],
                          env={**os.environ, "PYTHONPATH": str(Path(advsamp.__file__).parents[1])},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    commands = ("fit-aux", "train", "eval", "diagnose")
    # the commands' own lines end their first word in ':' or '['
    lines = [line for line in proc.stdout.splitlines() if line.split(" ")[0] in commands]
    assert lines == [f"{c} 0 []" for c in commands]


@pytest.mark.parametrize("noise,code", [("uniform", 0), ("adversarial", 0), ("frequency", 2)])
def test_eval_reads_train_split_only_for_frequency_noise(workdir, noise, code, capsys):
    # only frequency noise needs the training label counts
    out, base = workdir
    sets = base + [f"noise={noise}"]
    assert run("preprocess", out, sets) == 0
    if noise == "adversarial":
        assert run("fit-aux", out, sets) == 0
    assert run("train", out, sets) == 0
    (out / "train.npz").unlink()
    assert run("eval", out, sets) == code
    if code:
        assert "train.npz" in capsys.readouterr().err
