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
    Csr,
    CsrRows,
    PcaProjection,
    RawDataset,
    SparseDataset,
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

import numpy_oracle
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
    return RawDataset(features, labels, label_ptr)


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN", "+nan", "-INF",
                                       "Infinity", "-iNfInItY"])
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

    def test_non_ascii_byte_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"0 1:1.0\n1 2:\xff\n")
        with pytest.raises(ParseError, match=r"line 2: non-ASCII byte '\\xff'"):
            load_svmlight(path)

    def test_indices_compared_not_subtracted(self, tmp_path):
        # 5 - (-2^63) wraps around in int64 arithmetic; the negative index
        # must not pass as the larger one
        with pytest.raises(ParseError, match="line 1: feature indices not strictly"):
            load_svmlight(write(tmp_path, "0 5:1 -9223372036854775808:1\n"))

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_svmlight(tmp_path)


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
# malformed rows
MALFORMED_ROWS = ["0 7", "0 1:2:3", "0 :1.0", "0 1:", "0 2:1 2:1", "0 3:1 1:1", "0 0:nan",
                  "0 1:inf", "0 1:-inf", "0 1:1e999", "0 99999999999999999999:1.0", "0 1:1e",
                  "0 1:.", "0 1:--1", "0 1:0x10", "0 0:1 :", "a 1:1", "1;2 0:1",
                  "99999999999999999999 0:1", "0 5:1 -9223372036854775807:1",
                  "0 0:1.5"]  # the last: negative when one-based
# valid rows with signs, blanks other than ' ' and a lone '\r' line end
VALID_ROWS = ["0 +3:1 40:2.5", "0 39:1.5\t40:2", "0 39:1.5\f40:2", "0 39:1.5\r40:2", "-1 40:2"]
# rows with a non-ASCII byte or a '_' digit separator
REJECTED_ROWS = ["0 1_0:2 40:2.5", "0 \u0663:1.0 40:2.5", "0 4:\u0661.5 40:2.5", "1_2 3:1",
                 "0 3:1_0", "0 3:1\u00a040:2", "\u0663 3:1"]
BLANKS = [" ", " ", "  ", "\t", "\f", "\v", "\x1f"]


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
    """The outcomes of load_svmlight and of the line-by-line oracle."""
    result = []
    for read in (load_svmlight, numpy_oracle.load_svmlight):
        try:
            result.append(read(path, one_based=one_based))
        except ParseError as exc:
            result.append(exc)
    return result


@st.composite
def svmlight_files(draw):
    """(text, one_based, twist): a file of valid rows with at most one twist,
    "" (none) or "malformed" (a malformed or rejected row). Lines end in
    '\n', '\r\n' or '\r'; blanks, signed labels and signed indices vary."""
    one_based = draw(st.booleans())
    blank = st.sampled_from(BLANKS)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "unlabelled", "label_only"]))
        if kind == "blank":
            lines.append("".join(draw(st.lists(blank, max_size=2))))
            continue
        labels = draw(st.lists(st.integers(-1, 60), max_size=3))
        field = ",".join(draw(st.sampled_from(["{}", "{:+d}"])).format(lab) for lab in labels)
        field += "," * draw(st.integers(0, 1))
        if kind == "label_only":
            lines.append(field or "0")
            continue
        cols = sorted(draw(st.sets(st.integers(one_based, 40), max_size=6)))
        feats = [f"{draw(st.sampled_from(['', '+']))}{j}:"
                 f"{draw(st.sampled_from(VALUE_FORMATS))(draw(st.floats(-1e30, 1e30)))}"
                 for j in cols]
        sep = draw(blank)
        head = draw(st.sampled_from([" ", "\t"])) if kind == "unlabelled" else field + sep
        lines.append(head + sep.join(feats) + draw(st.sampled_from(["", *BLANKS])))
    twist = draw(st.sampled_from(["", "", "malformed"]))
    at = draw(st.integers(0, len(lines) - 1))
    if twist:
        lines[at] = draw(st.sampled_from(MALFORMED_ROWS + REJECTED_ROWS))
        one_based = one_based or lines[at] == "0 0:1.5"
    if draw(st.booleans()):
        # K=30 may lie below an index, which makes the file malformed
        k = draw(st.sampled_from([60, 41, 30, "+60"]))
        lines.insert(0, f"{draw(st.integers(0, 9))} {k} {draw(st.integers(0, 9))}")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline * draw(st.integers(0, 1)), one_based, twist


class TestFastReaderMatchesReference:
    """The compiled reader against the line-by-line oracle: the same
    dataset bit for bit, or the same ParseError and line number."""

    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(svmlight_files())
    def test_generated_files(self, tmp_path, case):
        text, one_based, twist = case
        fast, reference = outcomes(write(tmp_path, text), one_based)
        assert_same_outcome(fast, reference)
        if twist:
            assert isinstance(fast, ParseError)

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text("0123456789::,,.  \n\n\r-+eE_\t\v\f\x1cnaifNIty\u0663", max_size=40),
           st.booleans())
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

    @pytest.mark.parametrize("one_based", [False, True])
    @pytest.mark.parametrize("head", ["9223372036854775807", "9223372036854775808",
                                      "-9223372036854775808", "-9223372036854775807", "-1"])
    def test_index_range_after_shift(self, tmp_path, head, one_based):
        # the int64 range applies to the index after the one-based shift
        fast, reference = outcomes(write(tmp_path, f"0 1:1\n1 {head}:1\n"), one_based)
        assert isinstance(reference, ParseError) and reference.line_number == 2
        assert_same_outcome(fast, reference)

    def test_largest_feature_count_accepted(self, tmp_path):
        text = f"2 {MAX_FEATURES} 3\n0 {MAX_FEATURES - 1}:1\n"
        fast, reference = outcomes(write(tmp_path, text), False)
        assert reference.num_features == MAX_FEATURES
        assert_same_outcome(fast, reference)

    @pytest.mark.parametrize("text", [*VALID_ROWS, *REJECTED_ROWS, "1 2:+.5e-3 3:7. 4:-0"])
    def test_reader_choice(self, tmp_path, text):
        # a row with a non-ASCII byte or a '_' is a ParseError at its line;
        # the other rows parse
        fast, reference = outcomes(write(tmp_path, f"3 1:1\n{text}\n5 2:2\n"), False)
        assert_same_outcome(fast, reference)
        if text in REJECTED_ROWS:
            assert isinstance(fast, ParseError) and fast.line_number == 2
        else:
            assert not isinstance(fast, ParseError)

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
        assert_same_outcome(fast, reference)

    def test_without_kernel_same_output(self, tmp_path):
        # the oracle, which needs no kernel
        path = write(tmp_path, "3 50 9\n4,2 0:1.5 7:-2e-05\n\n 3:0.25\n1,\n")
        fast, slow = outcomes(path, False)
        assert not isinstance(slow, ParseError)
        assert_same_outcome(fast, slow)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([b"\n", b"\r", b",", b":", b"7", b" ", b"\x00", b"\x8a",
                                 b"\x8d", b"\xac", b"\xba", b"\xff"]), max_size=70).map(b"".join))
def test_sizing_counts_match_bytes_count(data):
    # the compiled reader's capacities; bytes that differ from a counted one
    # only in the high bit, and lengths that are not a multiple of 8
    counts = np.empty(3, dtype=np.int64)
    kernel.load().advsamp_count_svmlight(data, len(data), counts.ctypes.data)
    assert counts.tolist() == [data.count(b"\n") + data.count(b"\r"), data.count(b","),
                               data.count(b":")]


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


@st.composite
def csr_arrays(draw):
    """Small CSR arrays, valid or not: rows of column indices in [-1, K],
    and an indptr that may be disturbed but ends at the nonzero count."""
    K = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-1, K), max_size=5), max_size=6))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    if draw(st.booleans()) and len(rows) > 1:
        i = draw(st.integers(1, len(rows) - 1))
        indptr[i] = draw(st.integers(0, indptr[-1]))
    indices = np.array([j for r in rows for j in r], dtype=np.int64)
    return Csr(indptr, indices, np.ones(indices.size), (len(rows), K))


class TestCsrRows:
    """The datasets' CSR arrays: the one check, the row selection, the dense
    forms and the constructor from a dense array, each against scipy."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csr_arrays())
    def test_check_agrees_with_scipy(self, arrays):
        # accepted exactly when scipy's full format check passes and the
        # rows are in its canonical form (sorted, no repeated column)
        try:
            mat = sp.csr_matrix((arrays.data, arrays.indices, arrays.indptr), shape=arrays.shape)
            mat.check_format(full_check=True)
            valid = mat.has_canonical_format
        except ValueError:
            valid = False
        try:
            rows = CsrRows(arrays)
        except DataError:
            assert not valid
        else:
            assert valid
            assert rows.shape == arrays.shape and rows.nnz == arrays.indices.size
            assert rows.indptr.dtype == rows.indices.dtype == np.int64
            assert rows.data.dtype == np.float64
            assert all(a.flags.c_contiguous for a in (rows.indptr, rows.indices, rows.data))

    @pytest.mark.parametrize("change,why", [
        (dict(indptr=np.array([1, 2, 3])), "CSR"),
        (dict(indptr=np.array([0, 2])), "CSR"),
        (dict(indptr=np.array([0, 2, 2])), "CSR"),  # ends before the last nonzero
        (dict(data=np.ones(2)), "CSR"),
        (dict(indices=np.array([0, 2, 3])), "CSR"),
        (dict(indices=np.array([1, 0, 2])), "sorted"),
    ])
    def test_check_messages(self, change, why):
        good = Csr(np.array([0, 2, 3]), np.array([0, 1, 2]), np.ones(3), (2, 3))
        CsrRows(good)
        with pytest.raises(DataError, match=why):
            CsrRows(good._replace(**change))

    def test_rows_match_scipy(self, rng):
        X = rng.standard_normal((9, 5)) * (rng.random((9, 5)) < 0.5)
        X[[2, 5]] = 0.0
        ds = dataset_from_dense(X, rng.integers(0, 3, 9), 3)
        for idx in ([], [4], [8, 0, 2, 2, 5], np.arange(9)):
            got, want = ds.rows(idx), ds.features[np.asarray(idx, dtype=np.int64)]
            assert got.labels.tolist() == ds.labels[idx].tolist() and got.num_labels == 3
            assert got.shape == want.shape
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.indices.tolist() == want.indices.tolist()
            assert got.data.tobytes() == want.data.tobytes()
        for idx in ([9], [-1]):
            with pytest.raises(DataError, match="row numbers"):
                ds.rows(idx)

    def test_dense_rows_match_toarray(self, rng):
        mat = sp.csr_matrix(rng.standard_normal((7, 4)) * (rng.random((7, 4)) < 0.6))
        rows = CsrRows(mat)
        assert rows.dense().tobytes() == mat.toarray().tobytes()
        for lo, hi in ((0, 7), (2, 5), (3, 3), (6, 7)):
            assert rows.dense(lo, hi).tobytes() == mat[lo:hi].toarray().tobytes()

    def test_from_dense_matches_scipy(self):
        # exact zeros, negative zero included, are dropped; nan and inf stay
        X = np.array([[0.0, -0.0, 1.5, np.nan], [0.0, 0.0, 0.0, 0.0], [np.inf, 0.0, -2.0, 1e-300]])
        got = SparseDataset.from_dense(X, [0, 1, 0], 2)
        want = sp.csr_matrix(X)
        assert got.shape == want.shape
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tobytes() == want.data.tobytes()

    def test_features_view_shares_the_data(self, rng):
        ds = dataset_from_dense(rng.standard_normal((3, 2)), [0, 1, 0], 2)
        view = ds.features
        assert isinstance(view, sp.csr_matrix) and view.shape == ds.shape
        assert np.shares_memory(view.data, ds.data)


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
        dict(indices=np.array([0.0, 1.0, 3.0])),  # not integers
        dict(data=np.ones(2)),  # fewer values than indices
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

    def test_int32_index_cache_loads(self, tmp_path, rng):
        # caches written while datasets held scipy matrices have int32
        # indices; they load as int64
        ds = dataset_from_dense(rng.standard_normal((6, 4)), rng.integers(0, 3, 6), 3)
        save_dataset(tmp_path / "c.npz", ds)
        with np.load(tmp_path / "c.npz") as z:
            parts = {k: z[k] for k in z.files}
        for key in ("indices", "indptr"):
            parts[key] = parts[key].astype(np.int32)
        np.savez(tmp_path / "c.npz", **parts)
        back = load_dataset(tmp_path / "c.npz")
        assert back.indices.dtype == back.indptr.dtype == np.int64
        assert (back.features != ds.features).nnz == 0

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
