"""The compiled step kernel against the numpy oracle's step loop, its build
cache, and the error when it cannot be built."""

import re
import shutil
import subprocess
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from advsamp import kernel
from advsamp.data_io import CsrRows, SparseDataset
from advsamp.errors import DataError, KernelError, NumericError
from advsamp.linear_model import LinearClassifier
from advsamp.noise import FrequencyNoise, UniformNoise
from advsamp.training import TrainConfig, train

import numpy_oracle

CC = shutil.which("cc") or shutil.which("gcc")
# train with the compiled steps, and with the numpy oracle's
TRAINS = (train, numpy_oracle.train)


def train_on(train_with, ds, cfg, noise):
    """Train a fresh model with one of TRAINS."""
    model = LinearClassifier(ds.num_labels, ds.num_features)
    return model, train_with(ds, cfg, model, noise=noise)


def sparse_dataset(rng, n, K, C, density, idx_dtype):
    """A dataset built from a scipy matrix with ``idx_dtype`` indices."""
    X = rng.standard_normal((n, K)) * 2.0
    X[rng.random((n, K)) > density] = 0.0
    X[rng.random(n) < 0.2] = 0.0  # rows with no features
    mat = sp.csr_matrix(X)
    mat.indices, mat.indptr = mat.indices.astype(idx_dtype), mat.indptr.astype(idx_dtype)
    assert mat.indices.dtype == idx_dtype
    return SparseDataset(mat, rng.integers(0, C, n), C)


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
        assert ds.indices.dtype == ds.indptr.dtype == np.int64
        # log rows that split an epoch part way (0: one row per epoch)
        cfg = TrainConfig(method=method, learning_rate=0.2, regularizer=lam, epochs=2,
                          seed=seed % 1000, negatives_per_positive=m,
                          log_every=int(log_frac * n))
        noise = FrequencyNoise(ds.label_counts + 1) if method == "neg_sampling" else None
        assert_same_run(*(train_on(train_with, ds, cfg, noise) for train_with in TRAINS))

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
        for train_with in TRAINS:
            model = LinearClassifier(4, 5)
            if bad == "nan_weights":
                model.weights[:] = np.nan
            else:
                model.biases[1] = -np.inf
            with pytest.raises(NumericError) as exc:
                train_with(ds, cfg, model, noise=noise)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "epoch 1 step " in messages[0]

    def test_infinite_score_stops_mid_epoch(self, rng):
        # the model stays as the steps before the bad one left it
        ds = sparse_dataset(rng, 20, 5, 3, 1.0, np.int64)
        ds.data[ds.indptr[7]] = np.inf
        cfg = TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=1, seed=0,
                          log_every=0)
        models = []
        for train_with in TRAINS:
            model = LinearClassifier(3, 5)
            with pytest.raises(NumericError):
                train_with(ds, cfg, model, noise=UniformNoise(3))
            models.append(model)
        np.testing.assert_allclose(models[0].weights, models[1].weights, rtol=1e-12)


class TestBackendChoice:
    def test_kernel_used_when_built(self, rng):
        ds = sparse_dataset(rng, 10, 4, 3, 0.7, np.int32)
        cfg = TrainConfig(method="softmax_full", learning_rate=0.1, epochs=1)
        lib = kernel.load()
        with mock.patch.object(lib, "advsamp_softmax_steps",
                               wraps=lib.advsamp_softmax_steps) as steps:
            result = train(ds, cfg, LinearClassifier(3, 4))
        assert steps.call_count == 1 and result.steps_per_s > 0

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
        # (the dataset refuses it as it is built)
        X = sp.csr_matrix((np.ones(3), np.array([*row, 3]), np.array([0, 2, 3])), shape=(2, 4))
        cfg = TrainConfig(method="softmax_full", learning_rate=0.1, epochs=1)
        with pytest.raises(DataError, match=why):
            train(SparseDataset(X, np.array([0, 2]), 3), cfg, LinearClassifier(3, 4))


class TestCsrProduct:
    """``CsrRows.matmul``, the kernel's advsamp_csr_matmat, against scipy's
    CSR product, bit for bit."""

    @staticmethod
    def check(X, b, lo, hi):
        mat = sp.csr_matrix(X)
        got = CsrRows(mat).matmul(b, lo, hi)
        want = np.asarray(mat[lo:hi] @ b)
        assert got.shape == want.shape == (hi - lo, b.shape[1])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(0, 12), K=st.integers(1, 10), k=st.integers(1, 6),
           density=st.floats(0.0, 1.0), fortran=st.booleans(), scale=st.sampled_from([1.0, 1e200]),
           seed=st.integers(0, 2**32 - 1), bounds=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    def test_matches_scipy(self, n, K, k, density, fortran, scale, seed, bounds):
        # empty rows, any row range (empty ones and ones after row 0), and an
        # F-ordered operand such as a projection's components.T; at scale
        # 1e200 every term overflows, to inf or -inf, and sums of both to nan
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, K)) * (rng.random((n, K)) < density) * scale
        X[rng.random(n) < 0.3] = 0.0
        b = scale * (rng.standard_normal((k, K)).T if fortran else rng.standard_normal((K, k)))
        lo, hi = sorted(int(f * n) for f in bounds)
        self.check(X, b, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(0, 6), (2, 5), (3, 3), (6, 6)])
    def test_one_column(self, rng, lo, hi):
        # k == 1 is scipy's matrix-vector path, csr_matvec
        X = rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.5)
        X[1] = 0.0
        self.check(X, rng.standard_normal((9, 1)), lo, hi)

    @pytest.mark.parametrize("b_shape,lo,hi", [((4, 2), 0, 3), ((3,), 0, 3), ((3, 2), 2, 1),
                                               ((3, 2), 0, 4), ((3, 2), -1, 2)])
    def test_bad_operand_or_range_rejected(self, b_shape, lo, hi):
        rows = CsrRows(sp.csr_matrix(np.eye(3)))
        with pytest.raises(DataError, match="cannot multiply"):
            rows.matmul(np.ones(b_shape), lo, hi)


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

    @pytest.fixture
    def fresh_load(self):
        """``kernel.load`` with nothing kept yet, and nothing kept after."""
        kernel._outcome.cache_clear()
        yield
        kernel._outcome.cache_clear()

    def test_builds_into_pycache_once(self, source):
        lib = kernel.open_library()
        built = source.parent / "__pycache__" / kernel.library_name()
        assert lib is not None and built.exists()
        assert list(built.parent.iterdir()) == [built]  # no temporary left
        stamp = built.stat().st_mtime_ns
        assert kernel.open_library() is not None
        assert built.stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("unlink_fails", [False, True])
    def test_build_deletes_superseded_builds(self, source, monkeypatch, unlink_fails):
        # another hash with the same suffix is superseded; another
        # interpreter's build is not, and a file that cannot be deleted stays
        cache = source.parent / "__pycache__"
        cache.mkdir()
        suffix = kernel.library_name()[len("_kernel-") + 16:]
        stale = cache / f"_kernel-{'0' * 16}{suffix}"
        other = cache / f"_kernel-{'0' * 16}.cpython-399-other.so"
        for path in (stale, other):
            path.write_bytes(b"an older build")
        if unlink_fails:
            def unlink(self, missing_ok=False):
                raise PermissionError(self)

            monkeypatch.setattr(kernel.Path, "unlink", unlink)
        assert kernel.open_library() is not None
        built = cache / kernel.library_name()
        kept = {built, other, stale} if unlink_fails else {built, other}
        assert set(cache.iterdir()) == kept

    def test_name_keyed_by_source(self, source):
        before = kernel.library_name()
        source.write_text(source.read_text() + "\n/* edited */\n")
        assert kernel.library_name() != before

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
        assert kernel.open_library() is not None
        assert made and not made[0].exists()
        assert not (source.parent / "__pycache__" / kernel.library_name()).exists()

    def test_no_compiler_raises(self, source, monkeypatch, fresh_load):
        # the outcome is kept: a second call looks for no compiler again
        which = mock.Mock(return_value=None)
        monkeypatch.setattr(kernel.shutil, "which", which)
        for _ in range(2):
            with pytest.raises(KernelError, match=r"no C compiler \(cc or gcc\)"):
                kernel.load()
        assert [c.args for c in which.call_args_list] == [("cc",), ("gcc",)]

    def test_failed_build_raises(self, source, monkeypatch, fresh_load):
        # the build runs once; a second call starts no subprocess
        source.write_text("this is not C\n")
        run = mock.Mock(wraps=subprocess.run)
        monkeypatch.setattr(kernel.subprocess, "run", run)
        for _ in range(2):
            with pytest.raises(KernelError, match=re.escape(f"{CC} failed on _kernel.c")):
                kernel.load()
        assert run.call_count == 1
        assert list((source.parent / "__pycache__").iterdir()) == []


def test_kernel_compiles_without_warnings(tmp_path):
    """New compiler warnings fail here wherever a C compiler exists."""
    proc = subprocess.run(
        [CC, "-O2", "-Wall", "-Wextra", "-Werror", "-std=c99", "-shared", "-fPIC",
         "-o", str(tmp_path / "k.so"), str(kernel.SOURCE), "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_signatures_match_the_source():
    # every exported function of _kernel.c has a ctypes signature with as
    # many parameters, and every signature an exported function, so that a
    # renamed or reshaped kernel cannot drift from its binding
    source = re.sub(r"/\*.*?\*/", "", kernel.SOURCE.read_text(), flags=re.S)
    defined = {}
    for head, name, params in re.findall(r"^(\w[\w ]*?)\b(advsamp_\w+)\(([^)]*)\)\s*\{",
                                         source, flags=re.M):
        if "static" not in head.split():
            defined[name] = len(params.split(","))
    assert defined == {name: len(args) for name, args in kernel.SIGNATURES.items()}
