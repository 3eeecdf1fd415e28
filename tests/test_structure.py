import numpy as np
import pytest
import scipy.sparse as sp

from tagcomplete.core import (
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
)
from tagcomplete.structure import (
    build_feature_structure,
    build_tag_structure,
    combined_feature_rows,
    feature_structure_kkt,
    knn_index,
    reinitialize,
    tag_structure_kkt,
)

from oracles import knn_by_full_scan, lasso_by_enumeration, lasso_objective


def row_objective(vectors, weights_row, item, l1_weight):
    recon = weights_row @ vectors
    resid = vectors[item] - recon
    return float(resid @ resid + l1_weight * np.abs(weights_row).sum())


class TestKnnIndex:
    def test_three_points_on_a_line(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        idx = knn_index(pts, k=1)
        assert idx.neighbors[0].tolist() == [1]
        assert idx.neighbors[1].tolist() == [0]
        assert idx.neighbors[2].tolist() == [1]

    def test_k_at_least_population_gives_full_complement(self):
        pts = np.arange(8.0).reshape(4, 2)
        idx = knn_index(pts, k=10)
        for i in range(4):
            assert sorted(idx.neighbors[i].tolist()) == [j for j in range(4) if j != i]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 5))
        idx = knn_index(pts, k=5)
        for i in range(50):
            assert idx.neighbors[i].tolist() == knn_by_full_scan(pts, i, 5)

    def test_ties_broken_by_ascending_index(self):
        pts = np.array([[0.0], [1.0], [1.0], [1.0]])
        idx = knn_index(pts, k=2)
        assert idx.neighbors[0].tolist() == [1, 2]

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(20, 3))
        idx = knn_index(pts, k=7)
        for d in idx.distances:
            assert np.all(np.diff(d) >= 0)

    def test_rejects_single_vector(self):
        with pytest.raises(ValidationError):
            knn_index(np.zeros((1, 3)), k=1)

class TestBuildFeatureStructure:
    def test_duplicate_rows_reconstruct_each_other(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, -1.0], [4.0, 4.0]])
        hp = Hyperparams(alpha=1e-6, knn_k=1)
        S = build_feature_structure(FeatureMatrix(X), hp)
        np.testing.assert_allclose(S.matrix[0, 1], 1.0, atol=1e-5)
        np.testing.assert_allclose(S.matrix[1, 0], 1.0, atol=1e-5)

    def test_large_penalty_gives_zero_matrix(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 3))
        hp = Hyperparams(alpha=1e6, knn_k=3)
        S = build_feature_structure(FeatureMatrix(X), hp)
        assert S.matrix.nnz == 0

    def test_rows_match_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(10, 4))
        hp = Hyperparams(alpha=0.1, knn_k=3)
        S = build_feature_structure(FeatureMatrix(X), hp)
        vectors = combined_feature_rows(FeatureMatrix(X), None)
        idx = knn_index(vectors, 3)
        dense = S.matrix.toarray()
        for n in range(10):
            nb = idx.neighbors[n]
            A = vectors[nb]
            b = vectors[n]
            _, best = lasso_by_enumeration(A @ A.T, A @ b, float(b @ b), 0.1)
            got = lasso_objective(
                A @ A.T, A @ b, float(b @ b), 0.1, dense[n, nb]
            )
            assert got <= best + 1e-6

    def test_diagonal_and_sparsity_invariants(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(15, 6))
        hp = Hyperparams(alpha=0.05, knn_k=4)
        S = build_feature_structure(FeatureMatrix(X), hp)
        assert np.all(S.matrix.diagonal() == 0)
        row_nnz = np.diff(S.matrix.indptr)
        assert np.all(row_nnz <= 4)
        # no support outside the recomputed neighborhoods
        residuals = feature_structure_kkt(FeatureMatrix(X), S, hp)
        assert np.all(residuals <= hp.lasso_tol)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(12, 5))
        hp = Hyperparams(alpha=0.2, knn_k=3)
        a = build_feature_structure(FeatureMatrix(X), hp)
        b = build_feature_structure(FeatureMatrix(X), hp)
        assert (a.matrix != b.matrix).nnz == 0
        np.testing.assert_array_equal(a.matrix.data, b.matrix.data)

    def test_tags_as_features_changes_neighborhoods(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 4))
        D = TaggingMatrix.from_dense((rng.random((10, 6)) < 0.4).astype(float))
        hp = Hyperparams(alpha=0.1, knn_k=3)
        plain = build_feature_structure(FeatureMatrix(X), hp)
        fused = build_feature_structure(FeatureMatrix(X), hp, tags=D)
        assert fused.size == plain.size == 10
        combined = combined_feature_rows(FeatureMatrix(X), D)
        assert combined.shape == (10, 10)
        residuals = feature_structure_kkt(FeatureMatrix(X), fused, hp, tags=D)
        assert np.all(residuals <= hp.lasso_tol)

    def test_tags_as_features_rejects_row_mismatch(self):
        X = FeatureMatrix(np.zeros((4, 2)))
        D = TaggingMatrix.from_dense(np.ones((5, 3)))
        with pytest.raises(ValidationError):
            combined_feature_rows(X, D)


class TestBuildTagStructure:
    def test_duplicate_columns_reconstruct_each_other(self):
        D = np.zeros((6, 4))
        D[:, 0] = [1, 1, 0, 1, 0, 0]
        D[:, 1] = D[:, 0]
        D[:, 2] = [0, 0, 1, 0, 1, 1]
        D[:, 3] = [1, 0, 1, 0, 0, 1]
        hp = Hyperparams(mu=1e-6, knn_k=1)
        T = build_tag_structure(TaggingMatrix.from_dense(D), hp)
        np.testing.assert_allclose(T.matrix[1, 0], 1.0, atol=1e-5)
        np.testing.assert_allclose(T.matrix[0, 1], 1.0, atol=1e-5)

    def test_large_penalty_gives_zero_matrix(self):
        rng = np.random.default_rng(14)
        D = (rng.random((8, 6)) < 0.5).astype(float)
        hp = Hyperparams(mu=1e6, knn_k=3)
        T = build_tag_structure(TaggingMatrix.from_dense(D), hp)
        assert T.matrix.nnz == 0

    def test_columns_match_enumeration_oracle(self):
        rng = np.random.default_rng(15)
        D = (rng.random((8, 6)) < 0.5).astype(float)
        D[0, :] = 1.0  # no all-zero columns
        hp = Hyperparams(mu=0.1, knn_k=3)
        T = build_tag_structure(TaggingMatrix.from_dense(D), hp)
        cols = D.T
        idx = knn_index(cols, 3)
        dense = T.matrix.toarray()
        for m in range(6):
            nb = idx.neighbors[m]
            A = cols[nb]
            b = cols[m]
            _, best = lasso_by_enumeration(A @ A.T, A @ b, float(b @ b), 0.1)
            got = lasso_objective(A @ A.T, A @ b, float(b @ b), 0.1, dense[nb, m])
            assert got <= best + 1e-6

    def test_column_nnz_and_diagonal_invariants(self):
        rng = np.random.default_rng(16)
        D = (rng.random((12, 9)) < 0.4).astype(float)
        D[0, :] = 1.0
        hp = Hyperparams(mu=0.05, knn_k=4)
        T = build_tag_structure(TaggingMatrix.from_dense(D), hp)
        assert np.all(T.matrix.diagonal() == 0)
        col_nnz = np.diff(T.matrix.tocsc().indptr)
        assert np.all(col_nnz <= 4)
        residuals = tag_structure_kkt(TaggingMatrix.from_dense(D), T, hp)
        assert np.all(residuals <= hp.lasso_tol)

    def test_unused_tag_gets_zero_column_and_warning(self):
        D = np.zeros((5, 4))
        D[:, 0] = [1, 1, 0, 0, 1]
        D[:, 1] = [0, 1, 1, 0, 1]
        D[:, 2] = [1, 0, 1, 1, 0]
        hp = Hyperparams(mu=0.01, knn_k=2)
        with pytest.warns(UserWarning, match="all-zero"):
            T = build_tag_structure(TaggingMatrix.from_dense(D), hp)
        assert T.matrix.tocsc()[:, 3].nnz == 0


class TestReinitialize:
    def test_zero_structures_reject_nonzero_matrix(self):
        D = TaggingMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError, match="all zeros.*--no-reinit"):
            reinitialize(D, StructureMatrix.zeros(3), StructureMatrix.zeros(3))

    def test_two_by_two_hand_example(self):
        D = TaggingMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = StructureMatrix(sp.csr_matrix(flip))
        T = StructureMatrix(sp.csr_matrix(flip))
        out = reinitialize(D, S, T)
        np.testing.assert_allclose(out.to_dense(), flip)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            Dd = (rng.random((6, 5)) < 0.5).astype(float)
            Sd = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.4)
            np.fill_diagonal(Sd, 0.0)
            Td = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.4)
            np.fill_diagonal(Td, 0.0)
            out = reinitialize(
                TaggingMatrix.from_dense(Dd),
                StructureMatrix(sp.csr_matrix(Sd)),
                StructureMatrix(sp.csr_matrix(Td)),
            )
            want = (Sd @ Dd + Dd @ Td) / 2.0
            np.testing.assert_allclose(out.to_dense(), want, atol=1e-12)

    def test_input_unchanged(self):
        Dd = np.eye(4)
        D = TaggingMatrix.from_dense(Dd)
        flip = np.zeros((4, 4))
        flip[0, 1] = 1.0
        S = StructureMatrix(sp.csr_matrix(flip))
        reinitialize(D, S, StructureMatrix.zeros(4))
        np.testing.assert_array_equal(D.to_dense(), Dd)

    def test_dimension_mismatch(self):
        D = TaggingMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            reinitialize(
                D,
                StructureMatrix.zeros(4),
                StructureMatrix.zeros(3),
            )

