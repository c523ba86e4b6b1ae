"""The compiled step kernel against the Python reference loop, its build
cache and its fallback."""

import shutil
import subprocess
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from advsamp import kernel
from advsamp.data_io import SparseDataset
from advsamp.errors import DataError, NumericError
from advsamp.linear_model import LinearClassifier
from advsamp.noise import FrequencyNoise, UniformNoise
from advsamp.training import TrainConfig, train

from conftest import dataset_from_dense

CC = shutil.which("cc") or shutil.which("gcc")
needs_kernel = pytest.mark.skipif(CC is None, reason="no C compiler (cc or gcc) on PATH")


def train_on(backend, ds, cfg, noise):
    """Train a fresh model with the kernel ("c") or the reference ("python")."""
    model = LinearClassifier(ds.num_labels, ds.num_features)
    lib = kernel.load() if backend == "c" else None
    with mock.patch.object(kernel, "load", lambda: lib):
        result = train(ds, cfg, model, noise=noise)
    assert result.backend == backend
    return model, result


def sparse_dataset(rng, n, K, C, density, idx_dtype):
    X = rng.standard_normal((n, K)) * 2.0
    X[rng.random((n, K)) > density] = 0.0
    X[rng.random(n) < 0.2] = 0.0  # rows with no features
    ds = dataset_from_dense(X, rng.integers(0, C, n), C)
    ds.features.indices = ds.features.indices.astype(idx_dtype)
    ds.features.indptr = ds.features.indptr.astype(idx_dtype)
    return ds


def assert_same_run(got, want):
    (m1, r1), (m2, r2) = got, want
    for name in ("weights", "biases", "accum_w", "accum_b"):
        np.testing.assert_allclose(getattr(m1, name), getattr(m2, name),
                                   rtol=1e-12, atol=1e-15, err_msg=name)
    assert [(r["epoch"], r["steps"]) for r in r1.metrics] == \
        [(r["epoch"], r["steps"]) for r in r2.metrics]
    # a loss near zero is a difference of O(1) terms (-xi_y + max xi + log of
    # the sum of exps), so it agrees to a few roundoffs of those terms
    np.testing.assert_allclose([r["train_loss"] for r in r1.metrics],
                               [r["train_loss"] for r in r2.metrics], rtol=1e-12, atol=1e-14)


@needs_kernel
class TestKernelMatchesReference:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), K=st.integers(2, 40), C=st.integers(2, 40),
           m=st.integers(1, 6), lam=st.sampled_from([0.0, 0.05]),
           method=st.sampled_from(["neg_sampling", "softmax_full"]),
           idx_dtype=st.sampled_from([np.int32, np.int64]),
           density=st.floats(0.05, 1.0), log_frac=st.floats(0.0, 1.5),
           seed=st.integers(0, 2**32 - 1))
    def test_epochs_match(self, n, K, C, m, lam, method, idx_dtype, density,
                          log_frac, seed):
        rng = np.random.default_rng(seed)
        ds = sparse_dataset(rng, n, K, C, density, idx_dtype)
        assert ds.features.indices.dtype == idx_dtype
        # log rows that split an epoch part way (0: one row per epoch)
        cfg = TrainConfig(method=method, learning_rate=0.2, regularizer=lam, epochs=2,
                          seed=seed % 1000, negatives_per_positive=m,
                          log_every=int(log_frac * n))
        noise = FrequencyNoise(ds.label_counts + 1) if method == "neg_sampling" else None
        assert_same_run(train_on("c", ds, cfg, noise), train_on("python", ds, cfg, noise))

    @pytest.mark.parametrize("method", ["neg_sampling", "softmax_full"])
    @pytest.mark.parametrize("bad", ["nan_weights", "minus_inf_bias"])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_parameters_same_error(self, rng, method, bad):
        # label 1 is never a positive, so its -inf score comes as a negative's,
        # whose loss term is finite; the step still fails
        ds = sparse_dataset(rng, 12, 5, 4, 0.8, np.int64)
        ds = SparseDataset(ds.features, np.where(ds.labels == 1, 0, ds.labels), 4)
        cfg = TrainConfig(method=method, learning_rate=0.1, epochs=1, seed=2, log_every=5)
        noise = UniformNoise(4) if method == "neg_sampling" else None
        messages = []
        for lib in (kernel.load(), None):
            model = LinearClassifier(4, 5)
            if bad == "nan_weights":
                model.weights[:] = np.nan
            else:
                model.biases[1] = -np.inf
            with mock.patch.object(kernel, "load", lambda: lib), \
                    pytest.raises(NumericError) as exc:
                train(ds, cfg, model, noise=noise)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "epoch 1 step " in messages[0]

    def test_infinite_score_stops_mid_epoch(self, rng):
        # the model stays as the steps before the bad one left it
        ds = sparse_dataset(rng, 20, 5, 3, 1.0, np.int64)
        ds.features.data[ds.features.indptr[7]] = np.inf
        cfg = TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=1, seed=0,
                          log_every=0)
        models = []
        for lib in (kernel.load(), None):
            model = LinearClassifier(3, 5)
            with mock.patch.object(kernel, "load", lambda: lib), \
                    pytest.raises(NumericError):
                train(ds, cfg, model, noise=UniformNoise(3))
            models.append(model)
        np.testing.assert_allclose(models[0].weights, models[1].weights, rtol=1e-12)


class TestBackendChoice:
    def test_fallback_without_kernel(self, rng, monkeypatch):
        ds = sparse_dataset(rng, 30, 6, 5, 0.6, np.int32)
        cfg = TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=2, seed=4,
                          negatives_per_positive=3, regularizer=0.01, log_every=7)
        noise = FrequencyNoise(ds.label_counts + 1)
        monkeypatch.setattr(kernel, "load", lambda: None)
        model = LinearClassifier(5, 6)
        result = train(ds, cfg, model, noise=noise)
        assert result.backend == "python" and result.steps_per_s > 0
        monkeypatch.undo()
        if CC is not None:
            assert_same_run((model, result), train_on("c", ds, cfg, noise))

    @needs_kernel
    def test_kernel_used_when_built(self, rng):
        ds = sparse_dataset(rng, 10, 4, 3, 0.7, np.int32)
        cfg = TrainConfig(method="softmax_full", learning_rate=0.1, epochs=1)
        result = train(ds, cfg, LinearClassifier(3, 4))
        assert result.backend == "c" and result.steps_per_s > 0

    def test_parameters_are_never_copied(self, rng):
        ds = sparse_dataset(rng, 10, 4, 3, 0.7, np.int64)
        model = LinearClassifier(3, 4)
        model.weights = np.asfortranarray(model.weights)
        cfg = TrainConfig(method="softmax_full", learning_rate=0.1, epochs=1)
        with pytest.raises(DataError, match="C-contiguous"):
            train(ds, cfg, model)

    @pytest.mark.parametrize("row,why", [([2, 0], "sorted"), ([1, 1], "sorted"),
                                         ([0, 4], "CSR"), ([-1, 0], "CSR")])
    def test_bad_feature_rows_rejected(self, row, why):
        # the kernel would write outside W, or twice into one cell
        X = sp.csr_matrix((np.ones(3), np.array([*row, 3]), np.array([0, 2, 3])), shape=(2, 4))
        ds = SparseDataset(X, np.array([0, 2]), 3)
        cfg = TrainConfig(method="softmax_full", learning_rate=0.1, epochs=1)
        with pytest.raises(DataError, match=why):
            train(ds, cfg, LinearClassifier(3, 4))


class TestBuild:
    """Builds from a copy of the source, so the package's own cache is
    neither used nor touched."""

    @pytest.fixture
    def source(self, tmp_path, monkeypatch):
        src = tmp_path / "pkg" / "_kernel.c"
        src.parent.mkdir()
        shutil.copy(kernel.SOURCE, src)
        monkeypatch.setattr(kernel, "SOURCE", src)
        return src

    @needs_kernel
    def test_builds_into_pycache_once(self, source):
        lib = kernel.load.__wrapped__()
        built = source.parent / "__pycache__" / kernel.library_name()
        assert lib is not None and built.exists()
        assert list(built.parent.iterdir()) == [built]  # no temporary left
        stamp = built.stat().st_mtime_ns
        assert kernel.load.__wrapped__() is not None
        assert built.stat().st_mtime_ns == stamp

    def test_name_keyed_by_source(self, source):
        before = kernel.library_name()
        source.write_text(source.read_text() + "\n/* edited */\n")
        assert kernel.library_name() != before

    @needs_kernel
    def test_unwritable_cache_builds_privately(self, source, tmp_path, monkeypatch):
        made = []

        def mkdtemp(**kw):
            made.append(tmp_path / "private")
            made[-1].mkdir()
            return str(made[-1])

        # which() also asks os.access, so it is answered first
        monkeypatch.setattr(kernel.shutil, "which", lambda name: CC)
        monkeypatch.setattr(kernel.os, "access", lambda path, mode: False)
        monkeypatch.setattr(kernel.tempfile, "mkdtemp", mkdtemp)
        assert kernel.load.__wrapped__() is not None
        assert made and not made[0].exists()
        assert not (source.parent / "__pycache__" / kernel.library_name()).exists()

    def test_no_compiler_falls_back(self, source, monkeypatch):
        monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert kernel.load.__wrapped__() is None

    @needs_kernel
    def test_failed_build_falls_back(self, source):
        source.write_text("this is not C\n")
        with pytest.warns(RuntimeWarning, match="Python step loop"):
            assert kernel.load.__wrapped__() is None
        assert list((source.parent / "__pycache__").iterdir()) == []


@needs_kernel
def test_kernel_compiles_without_warnings(tmp_path):
    """New compiler warnings fail here wherever a C compiler exists."""
    proc = subprocess.run(
        [CC, "-O2", "-Wall", "-Wextra", "-Werror", "-std=c99", "-shared", "-fPIC",
         "-o", str(tmp_path / "k.so"), str(kernel.SOURCE), "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
