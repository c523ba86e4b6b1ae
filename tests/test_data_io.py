import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advsamp.data_io import (
    PcaProjection,
    RawDataset,
    RawExample,
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
    path.write_text(text)
    return path


class TestLoadSvmlight:
    def test_single_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "3 0:0.5 7:1.2\n"))
        ex = raw.examples[0]
        assert ex.labels == (3,)
        assert list(ex.indices) == [0, 7]
        assert list(ex.values) == [0.5, 1.2]
        assert raw.num_features == 8

    def test_multi_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "1,4 2:1.0\n"))
        assert raw.examples[0].labels == (1, 4)
        assert list(raw.examples[0].indices) == [2]

    def test_empty_feature_list(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "5 \n"))
        assert raw.examples[0].labels == (5,)
        assert raw.examples[0].indices.size == 0

    def test_no_label_line(self, tmp_path):
        raw = load_svmlight(write(tmp_path, " 0:1.0 3:2.0\n"))
        assert raw.examples[0].labels == ()

    def test_header(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "2 100 7\n0 1:1.0\n1 2:1.0\n"))
        assert raw.num_features == 100
        assert len(raw.examples) == 2

    def test_one_based(self, tmp_path):
        raw = load_svmlight(write(tmp_path, "0 1:2.0 3:1.0\n"), one_based=True)
        assert list(raw.examples[0].indices) == [0, 2]

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "0 0:1.0\n1 junk\n")
        with pytest.raises(ParseError, match="line 2"):
            load_svmlight(path)

    def test_non_monotone_indices(self, tmp_path):
        with pytest.raises(ParseError, match="increasing"):
            load_svmlight(write(tmp_path, "0 3:1.0 1:1.0\n"))


class TestReduceMultilabel:
    def raw(self, label_lists):
        examples = [
            RawExample(tuple(labs), np.array([0], dtype=np.int64), np.array([1.0]))
            for labs in label_lists
        ]
        return RawDataset(examples, 4)

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
        # exact covariance R diag(spec) R^T: four near-tied top eigenvalues,
        # then a gap below the 2k-column block
        n, K, k = 200, 20, 4
        spec = np.concatenate([[1.0, 0.999, 0.998, 0.997], 0.5 * 0.9 ** np.arange(K - 4)])
        A = rng.standard_normal((n, K))
        U = np.linalg.qr(A - A.mean(axis=0))[0]  # orthonormal, zero-mean columns
        R = np.linalg.qr(rng.standard_normal((K, K)))[0]
        X = np.sqrt(n) * U * np.sqrt(spec) @ R.T + 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj = fit_pca(dataset_from_dense(X, np.zeros(n, dtype=int), 1), k)
        mu = X.mean(axis=0)
        vals = np.linalg.eigh((X - mu).T @ (X - mu) / n)[0][::-1][:k]
        assert np.abs(proj.eigenvalues - vals).max() <= 1e-10 * vals.min()

    def test_same_seed_bit_identical(self, rng):
        X = rng.standard_normal((40, 12)) * np.arange(1, 13)
        ds = dataset_from_dense(X, np.zeros(40, dtype=int), 1)
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
        (tmp_path / "c.npz").write_bytes(content)
        for load in (load_dataset, load_pca):
            with pytest.raises(DataError):
                load(tmp_path / "c.npz")

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
