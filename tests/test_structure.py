import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcomplete.core import (
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
)
from tagcomplete.lasso import LassoProblem, kkt_residual
from tagcomplete.structure import (
    build_feature_structure,
    build_tag_structure,
    combined_feature_rows,
    feature_structure_kkt,
    knn_index,
    reinitialize,
    tag_structure_kkt,
)
from tagcomplete.synth import SynthConfig, delete_tags, generate

from oracles import (
    knn_by_einsum_scan,
    knn_by_full_scan,
    lasso_by_enumeration,
    lasso_objective,
)


def row_objective(vectors, weights_row, item, l1_weight):
    recon = weights_row @ vectors
    resid = vectors[item] - recon
    return float(resid @ resid + l1_weight * np.abs(weights_row).sum())


class TestKnnIndex:
    def test_three_points_on_a_line(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        idx = knn_index(pts, k=1)
        assert idx[0].tolist() == [1]
        assert idx[1].tolist() == [0]
        assert idx[2].tolist() == [1]

    def test_k_at_least_population_gives_full_complement(self):
        pts = np.arange(8.0).reshape(4, 2)
        idx = knn_index(pts, k=10)
        for i in range(4):
            assert sorted(idx[i].tolist()) == [j for j in range(4) if j != i]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 5))
        idx = knn_index(pts, k=5)
        for i in range(50):
            assert idx[i].tolist() == knn_by_full_scan(pts, i, 5)

    def test_ties_broken_by_ascending_index(self):
        pts = np.array([[0.0], [1.0], [1.0], [1.0]])
        idx = knn_index(pts, k=2)
        assert idx[0].tolist() == [1, 2]

    def test_rejects_single_vector(self):
        with pytest.raises(ValidationError):
            knn_index(np.zeros((1, 3)), k=1)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 90),
        dim=st.integers(1, 8),
        kind=st.sampled_from(["unit", "zero_one", "small_ints", "duplicates", "huge"]),
        n_zero_rows=st.integers(0, 3),
        k=st.integers(1, 45),
    )
    def test_equals_einsum_scan_bitwise(self, seed, n, dim, kind, n_zero_rows, k):
        # exact ties come from 0/1 and small-integer entries and from
        # duplicated and all-zero rows; k may reach or pass the population;
        # "huge" entries overflow the squared distances to inf
        rng = np.random.default_rng(seed)
        if kind == "huge":
            pts = rng.normal(size=(n, dim)) * 1e160
        elif kind == "unit":
            pts = rng.normal(size=(n, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        elif kind == "zero_one":
            pts = (rng.random((n, dim)) < 0.3).astype(float)
        elif kind == "small_ints":
            pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            distinct = rng.normal(size=(int(rng.integers(1, 4)), dim))
            pts = distinct[rng.integers(0, distinct.shape[0], n)]
        pts[rng.integers(0, n, n_zero_rows)] = 0.0
        self.assert_equals_scan(pts, k)

    @pytest.mark.parametrize("n, dim, k", [(600, 12, 40), (300, 500, 200)])
    def test_equals_einsum_scan_across_blocks(self, n, dim, k):
        # more items than one block of query rows; the wide 0/1 case is the
        # tag-column shape, where the k-th distance ties with many items
        rng = np.random.default_rng(n)
        if dim > n:
            pts = (rng.random((n, dim)) < 0.02).astype(float)
        else:
            pts = rng.normal(size=(n, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts[::7] = pts[1::7][: pts[::7].shape[0]]
        self.assert_equals_scan(pts, k)

    @staticmethod
    def assert_equals_scan(pts, k):
        for got, want in zip(knn_index(pts, k), knn_by_einsum_scan(pts, k)):
            assert np.array_equal(got, want)

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
            nb = idx[n]
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
            nb = idx[m]
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


def with_weight(structure, row, col, value):
    m = structure.matrix.tolil()
    m[row, col] = value
    return StructureMatrix(m.tocsr())


class TestRecertification:
    def test_feature_weight_outside_neighborhood_is_inf(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(12, 5))
        hp = Hyperparams(alpha=0.1, knn_k=3)
        S = build_feature_structure(FeatureMatrix(X), hp)
        nb = knn_index(combined_feature_rows(FeatureMatrix(X), None), 3)[4]
        outside = next(j for j in range(12) if j != 4 and j not in nb)
        residuals = feature_structure_kkt(
            FeatureMatrix(X), with_weight(S, 4, outside, 0.5), hp
        )
        assert residuals[4] == np.inf
        assert np.all(np.delete(residuals, 4) <= hp.lasso_tol)

    def test_tag_weight_outside_neighborhood_is_inf(self):
        rng = np.random.default_rng(18)
        D = (rng.random((12, 9)) < 0.4).astype(float)
        D[0, :] = 1.0
        D[:, 8] = 0.0  # unused tag: its lasso target is zero
        hp = Hyperparams(mu=0.05, knn_k=3)
        tags = TaggingMatrix.from_dense(D)
        with pytest.warns(UserWarning, match="all-zero"):
            T = build_tag_structure(tags, hp)
        neighbors = knn_index(D.T, 3)
        outside = next(j for j in range(9) if j != 2 and j not in neighbors[2])
        residuals = tag_structure_kkt(tags, with_weight(T, outside, 2, 0.5), hp)
        assert residuals[2] == np.inf
        assert residuals[8] == 0.0
        assert np.all(np.delete(residuals, 2) <= hp.lasso_tol)
        assert tag_structure_kkt(tags, T, hp.with_overrides(mu=0.0))[8] == 0.0
        # weight inside the unused tag's neighborhood is certified like any
        # other: its lasso, with target zero, is not solved by it
        nb = neighbors[8]
        residuals = tag_structure_kkt(tags, with_weight(T, nb[0], 8, 0.5), hp)
        A = D.T[nb]
        problem = LassoProblem(A @ A.T, np.zeros(nb.size), 0.0, hp.mu)
        want = kkt_residual(problem, np.where(nb == nb[0], 0.5, 0.0))
        assert residuals[8] > hp.lasso_tol
        assert residuals[8] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestResidualFormCertificate:
    """The certificate's gradient A (A'w - b) against kkt_residual of the
    gram-form LassoProblem, for built weights and for weights moved off the
    optimum (so that the residuals are far from zero)."""

    @staticmethod
    def gram_form(vectors, weights, l1_weight, k):
        out = np.zeros(vectors.shape[0])
        for i, nb in enumerate(knn_index(vectors, k)):
            A, b = vectors[nb], vectors[i]
            problem = LassoProblem(A @ A.T, A @ b, float(b @ b), l1_weight)
            out[i] = kkt_residual(problem, weights[i, nb])
        return out

    @pytest.mark.parametrize("scale", [1.0, 1.3])
    def test_feature_rows(self, scale):
        rng = np.random.default_rng(31)
        features = FeatureMatrix(rng.normal(size=(40, 6)))
        hp = Hyperparams(alpha=0.05, knn_k=8)
        S = StructureMatrix(build_feature_structure(features, hp).matrix * scale)
        got = feature_structure_kkt(features, S, hp)
        want = self.gram_form(
            combined_feature_rows(features, None), S.matrix.toarray(), hp.alpha, 8
        )
        assert np.abs(got - want).max() <= 1e-12
        assert (got.max() > 0.01) == (scale != 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1.3])
    def test_tag_columns(self, scale):
        rng = np.random.default_rng(32)
        D = (rng.random((30, 12)) < 0.3).astype(float)
        D[0] = 1.0
        tags = TaggingMatrix.from_dense(D)
        hp = Hyperparams(mu=0.05, knn_k=5)
        T = StructureMatrix(build_tag_structure(tags, hp).matrix * scale)
        got = tag_structure_kkt(tags, T, hp)
        want = self.gram_form(D.T.copy(), T.matrix.toarray().T, hp.mu, 5)
        assert np.abs(got - want).max() <= 1e-12
        assert (got.max() > 0.01) == (scale != 1.0)


class TestPinnedSupports:
    # nnz and sha256 of the sorted (row, col) pairs of each structure built on
    # the acceptance gate's structure-invariants instance, as cyclic
    # coordinate descent found them; any exact lasso solver must keep them
    PINNED = {
        "image": (
            499, "51ed88ed40b51663a79d1f35cb6306b04fe40f36a878af9796469d35d2da8034"
        ),
        "image+tags": (
            452, "1febe19ee4267bf9a37b481d34bb833a5be5452b5e053e8aa10dc52512f89200"
        ),
        "tag": (
            83, "cedabadbc4494ee86c75b8d5b92b3122272b2d651b9e5d2441736685f3d6af1a"
        ),
    }

    def test_structure_invariants_instance(self):
        cfg = SynthConfig(
            n_images=150,
            n_tags=24,
            n_topics=4,
            tags_per_image=4,
            feature_dim=12,
            feature_noise=0.25,
            delete_fraction=0.4,
            rng_seed=11,
            off_topic_prob=0.1,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(knn_k=9)
        built = {
            "image": build_feature_structure(instance.features, hp),
            "image+tags": build_feature_structure(
                instance.features, hp, tags=split.observed
            ),
            "tag": build_tag_structure(split.observed, hp),
        }
        for name, structure in built.items():
            coo = structure.matrix.tocoo()
            pairs = np.array(
                sorted(zip(coo.row.tolist(), coo.col.tolist())), dtype="<i8"
            )
            got = (structure.matrix.nnz, hashlib.sha256(pairs.tobytes()).hexdigest())
            assert got == self.PINNED[name], name


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

