import gc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advsamp import kernel
from advsamp.data_io import (
    MAX_FEATURES,
    PcaProjection,
    RawDataset,
    _load_svmlight_python,
    apply_pca_matrix,
    fit_pca,
    load_dataset,
    load_pca,
    load_svmlight,
    reduce_multilabel,
    save_dataset,
    save_pca,
    split,
)
from advsamp.errors import DataError, ParseError

from conftest import csr_row, dataset_from_dense


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def row(raw, i):
    """Row i of a RawDataset as (labels, indices, values)."""
    f, lo, hi = raw.features, raw.features.indptr[i], raw.features.indptr[i + 1]
    return (tuple(raw.labels[raw.label_ptr[i]:raw.label_ptr[i + 1]].tolist()),
            f.indices[lo:hi].tolist(), f.data[lo:hi].tolist())


def raw_from_labels(label_lists, num_features=4):
    """A RawDataset whose every row is the single feature 0:1.0."""
    n = len(label_lists)
    features = sp.csr_matrix((np.ones(n), np.zeros(n, dtype=np.int64), np.arange(n + 1)),
                             shape=(n, num_features))
    label_ptr = np.cumsum([0] + [len(labs) for labs in label_lists])
    labels = np.array([lab for labs in label_lists for lab in labs], dtype=np.int64)
    return RawDataset(features, labels, label_ptr, "python")


class TestLoadSvmlight:
    def test_single_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "3 0:0.5 7:1.2\n"))
        assert row(raw, 0) == ((3,), [0, 7], [0.5, 1.2])
        assert raw.num_features == 8

    def test_multi_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "1,4 2:1.0\n"))
        labels, indices, _ = row(raw, 0)
        assert labels == (1, 4)
        assert indices == [2]

    def test_empty_feature_list(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "5 \n"))
        labels, indices, _ = row(raw, 0)
        assert labels == (5,)
        assert indices == []

    def test_no_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, " 0:1.0 3:2.0\n"))
        assert row(raw, 0)[0] == ()

    def test_header(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "2 100 7\n0 1:1.0\n1 2:1.0\n"))
        assert raw.num_features == 100
        assert raw.num_examples == len(raw.examples) == 2

    def test_one_based(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "0 1:2.0 3:1.0\n"), one_based=True)
        assert row(raw, 0)[1] == [0, 2]

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "0 0:1.0\n1 junk\n")
        with pytest.raises(ParseError, match="line 2"):
            load_svmlight(path)

    def test_non_monotone_indices(self, tmp_path):
        with pytest.raises(ParseError, match="increasing"):
            load_svmlight(write(tmp_path, "0 3:1.0 1:1.0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = write(tmp_path, f"0 0:1.0\n1 0:2.0 1:{value}\n")
        with pytest.raises(ParseError, match="line 2: non-finite feature value") as exc:
            load_svmlight(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("head", ["99999999999999999999", "-99999999999999999999"])
    def test_index_overflow_rejected(self, tmp_path, head):
        path = write(tmp_path, f"0 0:1.0\n\n1 {head}:1.0\n")
        with pytest.raises(ParseError, match="line 3: feature index out of int64 range"):
            load_svmlight(path)

    def test_label_overflow_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 1: bad label field"):
            load_svmlight(write(tmp_path, "99999999999999999999 0:1.0\n"))


class TestReduceMultilabel:
    raw = staticmethod(raw_from_labels)

    def test_smallest_id(self):
        ds = reduce_multilabel(self.raw([[4, 1, 7]]), "smallest_id")
        # the single kept label 1 re-indexes to 0
        assert ds.labels[0] == 0 and ds.num_labels == 1

    def test_first_listed(self):
        ds, mapping = reduce_multilabel(self.raw([[4, 1, 7], [1]]), "first_listed",
                                        return_map=True)
        assert mapping == {1: 0, 4: 1}
        assert list(ds.labels) == [1, 0]

    def test_unlabeled_dropped(self):
        ds = reduce_multilabel(self.raw([[2], [], [5]]))
        assert ds.num_examples == 2

    def test_all_unlabeled_errors(self):
        with pytest.raises(DataError):
            reduce_multilabel(self.raw([[], []]))

    def test_label_map_reuse(self):
        ds, mapping = reduce_multilabel(self.raw([[3], [8]]), return_map=True)
        other = reduce_multilabel(self.raw([[8], [99], [3]]), label_map=mapping)
        # the unmapped label 99 is dropped
        assert list(other.labels) == [mapping[8], mapping[3]]
        assert other.num_labels == ds.num_labels

    @given(st.lists(st.lists(st.integers(0, 20), max_size=4), min_size=1, max_size=30))
    def test_reindex_is_dense_bijection(self, label_lists):
        raw = self.raw(label_lists)
        try:
            ds = reduce_multilabel(raw)
        except DataError:
            assert all(not labs for labs in label_lists)
            return
        assert ds.num_examples <= len(label_lists)
        assert sorted(set(ds.labels)) == list(range(ds.num_labels))
        assert ds.label_counts.sum() == ds.num_examples
        # feature data preserved bit-exactly for kept examples
        assert np.all(ds.features.data == 1.0)

    @given(st.lists(st.lists(st.integers(-3, 20), max_size=4), min_size=1, max_size=30),
           st.sampled_from(["smallest_id", "first_listed"]))
    def test_matches_per_row_reference(self, label_lists, policy):
        # each labelled row keeps its smallest or first label, in row order
        kept = [(i, min(labs) if policy == "smallest_id" else labs[0])
                for i, labs in enumerate(label_lists) if labs]
        raw = self.raw(label_lists, 3)
        raw.features.data[:] = np.arange(1, len(label_lists) + 1)  # row i holds i + 1
        try:
            ds, mapping = reduce_multilabel(raw, policy, return_map=True)
        except DataError:
            assert not kept
            return
        assert mapping == {lab: i for i, lab in enumerate(sorted({lab for _, lab in kept}))}
        assert ds.labels.tolist() == [mapping[lab] for _, lab in kept]
        assert ds.features.data.tolist() == [i + 1 for i, _ in kept]
        assert ds.features.shape == (len(kept), 3)


# value spellings: repr, %.6g and exponent forms, plain integers, a bare point
VALUE_FORMATS = (repr, "{:.6g}".format, "{:e}".format, "{:.3E}".format, "{:.0f}".format,
                 lambda v: f"{v:.2f}".replace("0.", ".", 1))
# rows a strict file may hold in place of one of its rows: malformed ones,
# and valid ones outside the fast reader's grammar
MALFORMED_ROWS = ["0 7", "0 1:2:3", "0 :1.0", "0 1:", "0 2:1 2:1", "0 3:1 1:1", "0 0:nan",
                  "0 1:inf", "0 1:-inf", "0 1:1e999", "0 99999999999999999999:1.0", "0 1:1e",
                  "0 1:.", "0 1:--1", "0 1:0x10", "0 0:1 :", "a 1:1", "1;2 0:1",
                  "99999999999999999999 0:1", "0 0:1.5"]  # the last: negative when one-based
FALLBACK_ROWS = ["0 +3:1 40:2.5", "0 1_0:2 40:2.5", "0 ٣:1.0 40:2.5", "0 4:١.5 40:2.5",
                 "0 39:1.5\t40:2", "0 39:1.5\f40:2", "0 39:1.5\r40:2", "-1 40:2"]


def assert_same_outcome(got, want):
    """Two load_svmlight outcomes: equal datasets, or the same ParseError."""
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), got
        assert (str(got), got.line_number) == (str(want), want.line_number)
        return
    assert not isinstance(got, ParseError), got
    assert got.labels.tolist() == want.labels.tolist()
    assert got.label_ptr.tolist() == want.label_ptr.tolist()
    assert got.num_features == want.num_features
    assert got.features.indptr.tolist() == want.features.indptr.tolist()
    assert got.features.indices.tolist() == want.features.indices.tolist()
    assert got.features.data.tobytes() == want.features.data.tobytes()


def outcomes(path, one_based):
    """load_svmlight's outcome, the compiled reader's where it takes the
    file, then the outcome of the line-by-line reader alone."""
    result = []
    for read in (lambda: load_svmlight(path, one_based=one_based),
                 lambda: _load_svmlight_python(path, int(one_based))):
        try:
            result.append(read())
        except ParseError as exc:
            result.append(exc)
    return result


@st.composite
def svmlight_files(draw):
    """(text, one_based, twist): a file of valid rows with at most one twist,
    "" (none), "malformed" or "fallback" (valid, outside the strict grammar)."""
    one_based = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "unlabelled", "label_only"]))
        if kind == "blank":
            lines.append(" " * draw(st.integers(0, 2)))
            continue
        labels = draw(st.lists(st.integers(0, 60), max_size=3))
        field = ",".join(map(str, labels)) + "," * draw(st.integers(0, 1))
        if kind == "label_only":
            lines.append(field or "0")
            continue
        cols = sorted(draw(st.sets(st.integers(one_based, 40), max_size=6)))
        feats = [f"{j}:{draw(st.sampled_from(VALUE_FORMATS))(draw(st.floats(-1e30, 1e30)))}"
                 for j in cols]
        sep = " " * draw(st.integers(1, 2))
        head = " " if kind == "unlabelled" else field + sep
        lines.append(head + sep.join(feats) + " " * draw(st.integers(0, 1)))
    twist = draw(st.sampled_from(["", "", "malformed", "fallback"]))
    at = draw(st.integers(0, len(lines) - 1))
    if twist:
        lines[at] = draw(st.sampled_from(MALFORMED_ROWS if twist == "malformed"
                                         else FALLBACK_ROWS))
        one_based = one_based or lines[at] == "0 0:1.5"
    if draw(st.booleans()):
        # K=30 may lie below an index, which makes the file malformed
        k = draw(st.sampled_from([60, 41] if twist == "fallback" else [60, 41, 30]))
        lines.insert(0, f"{draw(st.integers(0, 9))} {k} {draw(st.integers(0, 9))}")
    newline = "\n" if draw(st.booleans()) else ""
    return "\n".join(lines) + newline, one_based, twist


class TestFastReaderMatchesReference:
    """The compiled reader against ``_load_svmlight_python``: the same
    dataset bit for bit, or the same ParseError and line number."""

    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(svmlight_files())
    def test_generated_files(self, tmp_path, case):
        text, one_based, twist = case
        fast, reference = outcomes(write(tmp_path, text), one_based)
        assert_same_outcome(fast, reference)
        # a strict file never leaves the fast reader; the others always do
        if twist == "malformed":
            assert isinstance(fast, ParseError)
        elif twist == "fallback":
            assert fast.backend == "python"
        elif not isinstance(fast, ParseError):
            assert fast.backend == "c"

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text("0123456789::,,.  \n\n-+eE_\tnaif", max_size=40), st.booleans())
    def test_random_text(self, tmp_path, text, one_based):
        fast, reference = outcomes(write(tmp_path, text), one_based)
        assert_same_outcome(fast, reference)

    @pytest.mark.parametrize("bad", MALFORMED_ROWS)
    def test_malformed_row(self, tmp_path, bad):
        # one-based, so that index 0 is negative too
        fast, reference = outcomes(write(tmp_path, f"3 1:1\n{bad}\n5 2:2\n"), True)
        assert isinstance(reference, ParseError) and reference.line_number == 2
        assert_same_outcome(fast, reference)

    def test_index_past_header_k(self, tmp_path):
        fast, reference = outcomes(write(tmp_path, "3 4 9\n0 1:1\n1 4:1\n"), False)
        assert str(reference) == "feature index exceeds header K=4"
        assert_same_outcome(fast, reference)

    @pytest.mark.parametrize("text,line", [
        ("2 99999999999999999999 3\n0 1:1\n", 1),  # K outside int64
        ("2 9000000000000000000 3\n0 1:1\n", 1),
        (f"0 1:1\n1 {MAX_FEATURES}:1\n", 2),  # K from the largest index + 1
    ])
    def test_feature_count_beyond_memory(self, tmp_path, text, line):
        fast, reference = outcomes(write(tmp_path, text), False)
        assert isinstance(reference, ParseError) and reference.line_number == line
        assert_same_outcome(fast, reference)

    def test_largest_feature_count_accepted(self, tmp_path):
        text = f"2 {MAX_FEATURES} 3\n0 {MAX_FEATURES - 1}:1\n"
        fast, reference = outcomes(write(tmp_path, text), False)
        assert reference.num_features == MAX_FEATURES
        assert_same_outcome(fast, reference)
        assert fast.backend == "c"

    @pytest.mark.parametrize("text", [*FALLBACK_ROWS, "1 2:+.5e-3 3:7. 4:-0"])
    def test_reader_choice(self, tmp_path, text):
        fast, reference = outcomes(write(tmp_path, f"3 1:1\n{text}\n5 2:2\n"), False)
        assert_same_outcome(fast, reference)
        assert fast.backend == ("python" if text in FALLBACK_ROWS else "c")

    def test_decimal_values_round_as_python(self, tmp_path):
        # 1 to 19 digits, a point anywhere or none, exponents near 0 (the
        # exact short path) and far from it (strtod), subnormals included
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(200):
            values = []
            for _ in range(100):
                digits = "".join(rng.choice(list("0123456789"), size=rng.integers(1, 20)))
                point = int(rng.integers(0, len(digits) + 1))
                if rng.random() < 0.7:
                    digits = f"{digits[:point]}.{digits[point:]}"
                kind = rng.random()
                exp = (f"e{rng.integers(-25, 26)}" if kind < 0.3 else
                       f"E{rng.integers(-340, 280):+d}" if kind < 0.5 else "")
                values.append(rng.choice(["", "-", "+"]) + digits + exp)
            rows.append("0 " + " ".join(f"{j}:{v}" for j, v in enumerate(values)))
        fast, reference = outcomes(write(tmp_path, "\n".join(rows)), False)
        assert fast.backend == "c"
        assert_same_outcome(fast, reference)

    def test_without_kernel_same_output(self, tmp_path):
        # the line-by-line reader, which needs no kernel
        path = write(tmp_path, "3 50 9\n4,2 0:1.5 7:-2e-05\n\n 3:0.25\n1,\n")
        fast = load_svmlight(path)
        slow = _load_svmlight_python(path, 0)
        assert (fast.backend, slow.backend) == ("c", "python")
        assert_same_outcome(fast, slow)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([b"\n", b",", b":", b"7", b" ", b"\x00", b"\x8a", b"\xac",
                                 b"\xba", b"\xff"]), max_size=70).map(b"".join))
def test_sizing_counts_match_bytes_count(data):
    # the compiled reader's capacities; bytes that differ from a counted one
    # only in the high bit, and lengths that are not a multiple of 8
    counts = np.empty(3, dtype=np.int64)
    kernel.load().advsamp_count_svmlight(data, len(data), counts.ctypes.data)
    assert counts.tolist() == [data.count(b"\n"), data.count(b","), data.count(b":")]


class TestPca:
    def test_diagonal_direction(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [0.0, 0.0]])
        # embed in 3 dims so k < K holds
        X3 = np.concatenate([X, np.zeros((4, 1))], axis=1)
        proj = fit_pca(dataset_from_dense(X3, [0, 0, 0, 0], 1), 1)
        c = proj.components[0][:2]
        target = np.array([1.0, 1.0]) / np.sqrt(2)
        assert min(np.abs(c - target).max(), np.abs(c + target).max()) < 1e-8

    def test_matches_dense_eigendecomposition(self, rng):
        X = rng.standard_normal((50, 8))
        ds = dataset_from_dense(X, np.zeros(50, dtype=int), 1)
        proj = fit_pca(ds, 3)
        # oracle: dense symmetric eigensolver on the 8x8 covariance
        mu = X.mean(axis=0)
        cov = (X - mu).T @ (X - mu) / 50
        vals, vecs = np.linalg.eigh(cov)
        for i in range(3):
            oracle = vecs[:, -1 - i]
            got = proj.components[i]
            assert min(np.abs(got - oracle).max(), np.abs(got + oracle).max()) < 1e-6
            assert abs(proj.eigenvalues[i] - vals[-1 - i]) < 1e-8

    def test_orthonormality_and_variance_order(self, rng):
        X = rng.standard_normal((60, 10)) * np.arange(1, 11)
        proj = fit_pca(dataset_from_dense(X, np.zeros(60, dtype=int), 1), 5)
        G = proj.components @ proj.components.T
        assert np.abs(G - np.eye(5)).max() < 1e-8
        assert np.all(np.diff(proj.eigenvalues) <= 1e-10)

    def test_tied_top_spectrum_converges(self, rng):
        # exact covariance R diag(spec) R^T: four near-tied top eigenvalues
        # then a gap; and a flat spectrum just below k, lambda_5 / lambda_4 =
        # 0.994 as on the clustered acceptance data
        n, K, k = 200, 20, 4
        spectra = (
            np.concatenate([[1.0, 0.999, 0.998, 0.997], 0.5 * 0.9 ** np.arange(K - 4)]),
            np.concatenate([[2.0, 1.5, 1.2, 1.0], 0.994 ** np.arange(1, K - 3)]),
        )
        for spec in spectra:
            A = rng.standard_normal((n, K))
            U = np.linalg.qr(A - A.mean(axis=0))[0]  # orthonormal, zero-mean columns
            R = np.linalg.qr(rng.standard_normal((K, K)))[0]
            X = np.sqrt(n) * U * np.sqrt(spec) @ R.T + 3.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                proj = fit_pca(dataset_from_dense(X, np.zeros(n, dtype=int), 1), k)
            mu = X.mean(axis=0)
            vals, vecs = np.linalg.eigh((X - mu).T @ (X - mu) / n)
            vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
            assert np.abs(proj.eigenvalues - vals).max() <= 1e-10 * vals.min()
            cosines = np.linalg.svd(vecs.T @ proj.components.T, compute_uv=False)
            assert 1.0 - cosines.min() <= 1e-10

    def test_same_seed_bit_identical(self, rng):
        # the rank-2 input makes the Lanczos solver restart on an invariant
        # subspace, which must not draw from a process-wide random state
        full = rng.standard_normal((40, 12)) * np.arange(1, 13)
        low_rank = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 12))
        for X in (full, low_rank):
            ds = dataset_from_dense(X, np.zeros(40, dtype=int), 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the rank warning
                a, b = fit_pca(ds, 4, seed=5), fit_pca(ds, 4, seed=5)
            assert np.array_equal(a.components, b.components)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_rule(self, rng):
        X = rng.standard_normal((50, 10)) * np.arange(1, 11)
        for seed in range(5):
            proj = fit_pca(dataset_from_dense(X, np.zeros(50, dtype=int), 1), 5, seed=seed)
            peak = np.abs(proj.components).argmax(axis=1)
            assert np.all(proj.components[np.arange(5), peak] > 0)

    def test_rank_deficient_warns_and_completes(self, rng):
        X = np.outer(rng.standard_normal(20), rng.standard_normal(5))
        with pytest.warns(UserWarning, match="rank"):
            proj = fit_pca(dataset_from_dense(X, np.zeros(20, dtype=int), 1), 3)
        G = proj.components @ proj.components.T
        assert np.abs(G - np.eye(3)).max() < 1e-8

    def test_apply_at_mean_is_zero(self, rng):
        X = rng.standard_normal((30, 6))
        ds = dataset_from_dense(X, np.zeros(30, dtype=int), 1)
        proj = fit_pca(ds, 2)
        out = apply_pca_matrix(proj, csr_row(proj.mean))
        assert out.shape == (1, 2)
        assert np.abs(out).max() < 1e-12

    def test_apply_identity_projection(self):
        proj = PcaProjection(np.zeros(4), np.eye(3, 4), np.ones(3))
        out = apply_pca_matrix(proj, csr_row([1.0, -2.0, 0.0, 5.0]))
        assert np.allclose(out, [[1.0, -2.0, 0.0]])

    def test_apply_matches_dense_oracle(self, rng):
        comps = np.linalg.qr(rng.standard_normal((7, 3)))[0].T
        proj = PcaProjection(rng.standard_normal(7), comps, np.ones(3))
        dense = rng.standard_normal(7)
        dense[rng.integers(0, 7, 3)] = 0.0
        oracle = comps @ (dense - proj.mean)
        assert np.abs(apply_pca_matrix(proj, csr_row(dense))[0] - oracle).max() < 1e-10

    def test_apply_matrix_consistent(self, rng):
        X = rng.standard_normal((12, 6))
        X[X < 0] = 0.0
        ds = dataset_from_dense(X, np.zeros(12, dtype=int), 1)
        proj = fit_pca(ds, 2)
        batch = apply_pca_matrix(proj, ds.features)
        rows = np.concatenate([apply_pca_matrix(proj, ds.features[i]) for i in range(12)])
        assert np.abs(batch - rows).max() < 1e-10
        assert np.abs(batch - (X - proj.mean) @ proj.components.T).max() < 1e-10

    def test_dimension_mismatch(self):
        proj = PcaProjection(np.zeros(4), np.eye(2, 4), np.ones(2))
        with pytest.raises(DataError):
            apply_pca_matrix(proj, csr_row([1.0, 0.0]))


class TestSplit:
    def test_ten_percent(self, rng):
        ds = dataset_from_dense(rng.standard_normal((10, 3)), np.zeros(10, dtype=int), 1)
        tr, va = split(ds, 0.1, seed=7)
        assert (tr.num_examples, va.num_examples) == (9, 1)

    def test_deterministic(self, rng):
        ds = dataset_from_dense(rng.standard_normal((20, 3)), rng.integers(0, 2, 20), 2)
        a = split(ds, 0.25, seed=3)
        b = split(ds, 0.25, seed=3)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.abs((a[1].features - b[1].features)).nnz == 0

    def test_half_of_four(self, rng):
        ds = dataset_from_dense(rng.standard_normal((4, 2)), [0, 1, 0, 1], 2)
        tr, va = split(ds, 0.5, seed=0)
        assert (tr.num_examples, va.num_examples) == (2, 2)

    def test_disjoint_exhaustive(self, rng):
        X = np.arange(30, dtype=float).reshape(15, 2)
        ds = dataset_from_dense(X, np.zeros(15, dtype=int), 1)
        tr, va = split(ds, 0.2, seed=1)
        seen = np.concatenate([tr.features.toarray()[:, 0], va.features.toarray()[:, 0]])
        assert sorted(seen) == list(X[:, 0])

    def test_empty_side_errors(self, rng):
        ds = dataset_from_dense(rng.standard_normal((5, 2)), np.zeros(5, dtype=int), 1)
        with pytest.raises(DataError):
            split(ds, 0.01, seed=0)


class TestRoundTrip:
    def test_dataset_cache(self, tmp_path, rng):
        ds = dataset_from_dense(rng.standard_normal((8, 5)), rng.integers(0, 3, 8), 3)
        save_dataset(tmp_path / "c.npz", ds)
        back = load_dataset(tmp_path / "c.npz")
        assert back.num_labels == ds.num_labels
        assert np.array_equal(back.labels, ds.labels)
        assert (back.features != ds.features).nnz == 0

    def test_load_serialize_load(self, tmp_path):
        text = "0,2 0:1.5 3:2.0\n1 1:0.5\n2 \n"
        raw = load_svmlight(write(tmp_path, text))
        ds = reduce_multilabel(raw)
        save_dataset(tmp_path / "c.npz", ds)
        back = load_dataset(tmp_path / "c.npz")
        assert np.array_equal(back.labels, ds.labels)
        assert (back.features != ds.features).nnz == 0

    def test_pca_cache(self, tmp_path, rng):
        ds = dataset_from_dense(rng.standard_normal((20, 6)), np.zeros(20, dtype=int), 1)
        proj = fit_pca(ds, 2)
        save_pca(tmp_path / "p.npz", proj)
        back = load_pca(tmp_path / "p.npz")
        assert np.array_equal(back.components, proj.components)
        assert np.array_equal(back.mean, proj.mean)

    @pytest.mark.parametrize("change", [
        dict(indices=np.array([0, 5, 1])),  # column >= K
        dict(indices=np.array([0, -1, 1])),
        dict(indptr=np.array([0, 2, 1, 3])),  # decreasing
        dict(indptr=np.array([0, 3])),  # wrong length
        dict(shape=np.array([3, 5])),  # no label count
        dict(labels=np.array([0, 1])),
        dict(indices=np.array([0, 3, 1])),  # unsorted within a row
        dict(indices=np.array([0, 1, 1])),  # repeated within a row
    ])
    def test_corrupt_dataset_cache_rejected(self, tmp_path, change):
        ds = dataset_from_dense([[1.0, 0, 0, 0, 0], [0, 2.0, 0, 3.0, 0], [0, 0, 0, 0, 0]],
                                [0, 1, 1], 2)
        save_dataset(tmp_path / "c.npz", ds)
        with np.load(tmp_path / "c.npz") as z:
            parts = {**{k: z[k] for k in z.files}, **change}
        np.savez(tmp_path / "c.npz", **parts)
        with pytest.raises(DataError):
            load_dataset(tmp_path / "c.npz")

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04 truncated", b"text\n"])
    def test_unreadable_caches_rejected(self, tmp_path, content):
        # and the file is closed again: no ResourceWarning once it is collected
        (tmp_path / "c.npz").write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for load in (load_dataset, load_pca):
                with pytest.raises(DataError):
                    load(tmp_path / "c.npz")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_npy_file_rejected(self, tmp_path):
        np.save(tmp_path / "c.npy", np.zeros(3))
        with pytest.raises(DataError):
            load_dataset(tmp_path / "c.npy")

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.npz")

    def test_wrong_magic(self, tmp_path, rng):
        ds = dataset_from_dense(rng.standard_normal((4, 2)), np.zeros(4, dtype=int), 1)
        save_dataset(tmp_path / "c.npz", ds)
        with pytest.raises(DataError):
            load_pca(tmp_path / "c.npz")
