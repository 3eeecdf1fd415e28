import hashlib
import tracemalloc
import weakref

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
from tagcomplete import lasso, structure
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

from helpers import zero_structure
from oracles import (
    knn_by_einsum_scan,
    knn_by_full_scan,
    lasso_by_enumeration,
    lasso_objective,
    structure_by_item_loop,
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

    @pytest.mark.parametrize("n, k", [(2, 1), (7, 3), (7, 6), (7, 7), (7, 20), (130, 5)])
    def test_returns_one_integer_array(self, n, k):
        idx = knn_index(np.random.default_rng(n).normal(size=(n, 3)), k)
        assert type(idx) is np.ndarray and np.issubdtype(idx.dtype, np.integer)
        assert idx.shape == (n, min(k, n - 1))

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


    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 1e-300])
    def test_non_binary_tagging_matrix_rejected(self, value):
        # every entry of D'D must be an exact integer
        D = np.zeros((4, 3))
        D[:, 0] = 1.0
        D[2, 1] = value
        tags = TaggingMatrix.from_dense(D)
        message = (
            "the tag structure needs a binary tagging matrix, "
            f"but D stores {value!r} at image 2, tag 1"
        )
        with pytest.raises(ValidationError) as exc:
            build_tag_structure(tags, Hyperparams(knn_k=2))
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            tag_structure_kkt(tags, zero_structure(3), Hyperparams(knn_k=2))
        assert str(exc.value) == message

    def test_stored_zeros_accepted(self):
        rng = np.random.default_rng(18)
        D = (rng.random((10, 6)) < 0.5).astype(float)
        stored = sp.csr_matrix(D)
        stored.data[::3] = 0.0  # kept as stored entries
        hp = Hyperparams(mu=0.05, knn_k=3)
        T = build_tag_structure(TaggingMatrix(stored), hp)
        want = build_tag_structure(TaggingMatrix(sp.csr_matrix(stored.toarray())), hp)
        assert (T.matrix != want.matrix).nnz == 0
        assert np.all(tag_structure_kkt(TaggingMatrix(stored), T, hp) <= hp.lasso_tol)

    def test_fewer_than_two_tags_rejected(self):
        tags = TaggingMatrix.from_dense(np.ones((3, 1)))
        with pytest.raises(ValidationError, match="^need at least 2 vectors"):
            build_tag_structure(tags, Hyperparams(knn_k=2))
        with pytest.raises(ValidationError, match="^need at least 2 vectors"):
            tag_structure_kkt(tags, zero_structure(1), Hyperparams(knn_k=2))
        with pytest.raises(ValidationError, match="^k must be >= 1$"):
            structure._tag_neighbors(np.eye(3), 0)

    def test_zero_row_tagging_matrix(self):
        tags = TaggingMatrix.from_dense(np.zeros((0, 4)))
        hp = Hyperparams(knn_k=2)
        with pytest.warns(UserWarning, match="^4 tag column"):
            T = build_tag_structure(tags, hp)
        assert T.matrix.shape == (4, 4) and T.matrix.nnz == 0
        assert tag_structure_kkt(tags, T, hp).tolist() == [0.0] * 4


class TestTagNeighbors:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_images=st.integers(0, 30),
        n_tags=st.integers(2, 40),
        density=st.sampled_from([0.0, 0.1, 0.4, 0.9]),
        n_copies=st.integers(0, 5),
        n_zero=st.integers(0, 3),
        k=st.integers(1, 45),
    )
    def test_equal_knn_index(self, seed, n_images, n_tags, density, n_copies, n_zero, k):
        # duplicate and all-zero columns tie exactly; k may reach or pass
        # the population, and D may have no rows
        rng = np.random.default_rng(seed)
        D = (rng.random((n_images, n_tags)) < density).astype(float)
        D[:, rng.integers(0, n_tags, n_copies)] = D[:, rng.integers(0, n_tags, n_copies)]
        D[:, rng.integers(0, n_tags, n_zero)] = 0.0
        got = structure._tag_neighbors(structure._tag_gram(TaggingMatrix.from_dense(D)), k)
        assert got.shape == (n_tags, min(k, n_tags - 1))
        for mine, want in zip(got, knn_index(D.T, k), strict=True):
            assert np.array_equal(mine, want)


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        width=st.integers(0, 6),
        kind=st.sampled_from(["features", "tags"]),
        k=st.integers(1, 12),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        n_stray=st.integers(0, 6),
    )
    def test_random_weights_against_gram_form(self, seed, n, width, kind, k, density, n_stray):
        # items span several blocks of the certificate; "tags" are 0/1 columns
        # of width images with duplicate and all-zero columns, and "features"
        # may have zero width.  Weight outside an item's neighborhood, at
        # several items at once, must give inf at exactly those items.
        rng = np.random.default_rng(seed)
        if kind == "tags":
            D = (rng.random((width, n)) < 0.4).astype(float)
            D[:, rng.integers(0, n, 3)] = D[:, rng.integers(0, n, 3)]
            D[:, rng.integers(0, n, 2)] = 0.0
            vectors = D.T.copy()
        else:
            features = FeatureMatrix(rng.normal(size=(n, width)))
            vectors = combined_feature_rows(features, None)
        neighbors = knn_index(vectors, k)
        weights = np.zeros((n, n))
        rows = np.arange(n)[:, None]
        weights[rows, neighbors] = rng.uniform(-1, 1, neighbors.shape) * (
            rng.random(neighbors.shape) < density
        )
        outside = np.ones((n, n), dtype=bool)
        outside[rows, neighbors] = False
        outside[np.arange(n), np.arange(n)] = False
        stray = rng.choice(n, min(n_stray, n), replace=False)
        stray = stray[outside[stray].any(axis=1)]
        for i in stray:
            weights[i, rng.choice(np.flatnonzero(outside[i]))] = 0.5
        if kind == "tags":
            hp = Hyperparams(mu=0.05, knn_k=k)
            got = tag_structure_kkt(
                TaggingMatrix.from_dense(D), StructureMatrix(sp.csr_matrix(weights.T)), hp
            )
        else:
            hp = Hyperparams(alpha=0.05, knn_k=k)
            got = feature_structure_kkt(features, StructureMatrix(sp.csr_matrix(weights)), hp)
        want = self.gram_form(vectors, weights, 0.05, k)
        is_stray = np.isin(np.arange(n), stray)
        assert np.array_equal(np.isinf(got), is_stray)
        assert np.abs(got - want)[~is_stray].max(initial=0.0) <= 1e-12

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


def random_instance(seed, n_images, n_tags, dim):
    """Gaussian features and a 0/1 tagging matrix in which every tag is used."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_images, n_tags)) < 0.3).astype(float)
    dense[np.arange(n_tags) % n_images, np.arange(n_tags)] = 1.0
    return FeatureMatrix(rng.normal(size=(n_images, dim))), TaggingMatrix.from_dense(dense)


def near_width(k, width):
    """W: the image builder first solves each item on its nearest
    min(k, width) neighbors, or on all k when the rows have width 0."""
    return min(k, width) or k


def chunk_size(k, width):
    return max(1, structure._ROW_BUDGET // (8 * near_width(k, width) * max(width, 1)))


def set_chunk(monkeypatch, per_chunk, k, width):
    """Lower the row budget so that image chunks hold per_chunk items."""
    monkeypatch.setattr(structure, "_ROW_BUDGET", per_chunk * 8 * near_width(k, width) * width)
    assert chunk_size(k, width) == per_chunk


def csr_bytes(matrix):
    return (matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes())


# S weights built over the feature rows agree with those of explicit grams to
# this relative bound: the gram entries differ in the last bits, and the
# face solves amplify that by the face grams' conditioning.
ROUNDING_RTOL = 1e-9


def assert_rounding_equal(S, want, features, hp):
    """S has the support of the dense item-loop weights `want`, weights within
    ROUNDING_RTOL of them, and every recomputed KKT residual within lasso_tol."""
    dense = S.matrix.toarray()
    np.testing.assert_array_equal(dense != 0.0, want != 0.0)
    np.testing.assert_allclose(dense, want, rtol=ROUNDING_RTOL, atol=0.0)
    assert feature_structure_kkt(features, S, hp).max() <= hp.lasso_tol


class TestLockstepChunks:
    # The image builder solves the lassos of one chunk of items in lockstep
    # over the pooled feature rows, each on its nearest W = min(k, width)
    # neighbors, checks KKT at the k - W far ones, and solves again at full k
    # the items that violate it there.  No round or check gathers more than
    # structure._ROW_BUDGET bytes of neighbor rows.  Its structure is bitwise
    # the same at every chunk width, and equal to the explicit-gram item loop
    # up to rounding.  The tag builder solves every tag in one batch over
    # D'D at full k, bitwise equal to the item loop.
    def assert_widths_agree(self, monkeypatch, features, hp, widths):
        """The image structure is bitwise equal at the default chunk width and
        at each of `widths`, and rounding-equal to the item loop; returns it."""
        S = build_feature_structure(features, hp)
        vectors = combined_feature_rows(features, None)
        k = min(hp.knn_k, vectors.shape[0] - 1)
        for per_chunk in widths:
            with monkeypatch.context() as patch:
                set_chunk(patch, per_chunk, k, vectors.shape[1])
                assert csr_bytes(build_feature_structure(features, hp).matrix) == csr_bytes(S.matrix)
        want, failed = structure_by_item_loop(vectors, hp.alpha, hp.knn_k, hp.lasso_tol)
        assert not failed
        assert_rounding_equal(S, want, features, hp)
        return S

    def assert_tags_match_item_loop(self, D, hp):
        T = build_tag_structure(D, hp).matrix.toarray()
        want_T, failed = structure_by_item_loop(D.to_dense().T, hp.mu, hp.knn_k, hp.lasso_tol)
        assert not failed and np.array_equal(T, want_T.T)

    def test_item_counts_not_a_multiple_of_the_chunk(self, monkeypatch):
        # k = 50 rows of width 120 give chunks of 43: 151 images are three
        # chunks and a final 22, or 50 chunks of 3 and a final 1; the 130
        # tags run in one batch
        features, D = random_instance(61, n_images=151, n_tags=130, dim=120)
        assert chunk_size(50, 120) == 43
        hp = Hyperparams(knn_k=50, alpha=0.1, mu=0.1)
        S = self.assert_widths_agree(monkeypatch, features, hp, [3])
        assert S.matrix.nnz > 151
        self.assert_tags_match_item_loop(D, hp)

    def test_one_item_per_chunk(self, monkeypatch):
        # one item's 20 neighbor rows of width 7,000 fill more than half the
        # budget; the rows lie near a plane, so neighbors carry weight
        assert chunk_size(20, 7000) == 1 and chunk_size(20, 6553) == 2
        rng = np.random.default_rng(62)
        X = rng.normal(size=(24, 2)) @ rng.normal(size=(2, 7000))
        features = FeatureMatrix(X + 0.1 * rng.normal(size=X.shape))
        hp = Hyperparams(knn_k=20, alpha=0.1)
        S = self.assert_widths_agree(monkeypatch, features, hp, [3])
        assert S.matrix.nnz > 24

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_small_budgets(self, monkeypatch, per_chunk):
        # 11 images in one default chunk, or in chunks of per_chunk
        features, D = random_instance(63, n_images=11, n_tags=10, dim=4)
        hp = Hyperparams(knn_k=6, alpha=0.1, mu=0.1)
        assert chunk_size(6, 4) >= 11
        self.assert_widths_agree(monkeypatch, features, hp, [per_chunk])
        self.assert_tags_match_item_loop(D, hp)

    @pytest.mark.parametrize(
        "n_items, k, dim", [(366, 363, 2), (250, 50, 8), (300, 60, 40), (250, 50, 120)]
    )
    def test_batches_hold_each_items_products(self, monkeypatch, n_items, k, dim):
        # W = 2, 8, 40 and 50: one chunk of 366 and one of 250, each followed
        # by re-solves at full k in batches of at most 361 and 655; chunks of
        # 163 and 137 with re-solves in batches of at most 109; and at W = k,
        # chunks of 43 whose last holds 35.  Every item's gram entries,
        # correlations and gradient, formed over the pooled rows, are its own
        # A A', A b and A A' x - A b up to rounding, and its gradient is
        # bitwise that of its batch of one.  The solves here return zero
        # weights, so an item is solved again at full k exactly when
        # 2 |a . b| > alpha + tol for one of its far rows a.
        features = FeatureMatrix(np.random.default_rng(64).normal(size=(n_items, dim)))
        vectors = combined_feature_rows(features, None)
        neighbors = knn_index(vectors, k)
        near, hp = near_width(k, dim), Hyperparams(knn_k=k, alpha=0.1)
        x = np.random.default_rng(65).normal(size=(n_items, k))
        x[:, ::3] = 0.0
        done, chunk, widths = 0, None, []

        def items_of(batch):
            """The items a batch solves: the next chunk, or some of its items."""
            nonlocal done, chunk
            n, width = batch.index.shape
            widths.append((n, width))
            if width == near:
                assert n == min(chunk_size(k, dim), n_items - done)
                chunk = np.arange(done, done + n)
                done += n
                return chunk
            assert width == k > near and n <= chunk_size(k, dim)
            items = np.array([
                chunk[np.flatnonzero((neighbors[chunk] == row).all(axis=1)).item()]
                for row in batch.index
            ])
            far = np.einsum("ijd,id->ij", vectors[neighbors[chunk, near:]], vectors[chunk])
            redo = chunk[2.0 * np.abs(far).max(axis=1) - hp.alpha > hp.lasso_tol]
            assert np.isin(items, redo).all() and np.all(np.diff(items) > 0)
            return items

        def check(batch, tol):
            items = items_of(batch)
            n, width = batch.index.shape
            assert np.array_equal(batch.pool.vectors, vectors)
            assert np.array_equal(batch.index, neighbors[items, :width])
            # one neighbor list per item indexes both sides of its gram
            assert batch._fields == ("pool", "index", "corr", "l1_weight")
            diagonal = lasso._diagonal(batch)
            grad = lasso._gradients(batch, np.arange(n), x[items, :width])
            for b, i in enumerate(items):
                rows = vectors[neighbors[i, :width]]
                gram = rows @ rows.T
                face = lasso.pool_gram(batch.pool, batch.index[b:b + 1])[0]
                assert np.array_equal(face, face.T)
                np.testing.assert_allclose(face, gram, rtol=0.0, atol=1e-14)
                np.testing.assert_allclose(diagonal[b], np.diagonal(gram), rtol=0.0, atol=1e-15)
                np.testing.assert_allclose(batch.corr[b], rows @ vectors[i], rtol=0.0, atol=1e-15)
                want = gram @ x[i, :width] - rows @ vectors[i]
                np.testing.assert_allclose(
                    grad[b], want, rtol=0.0, atol=1e-13 * np.abs(x[i, :width]).sum()
                )
                alone = batch._replace(index=batch.index[b:b + 1], corr=batch.corr[b:b + 1])
                got = lasso._gradients(alone, np.arange(1), x[i:i + 1, :width])[0]
                assert got.tobytes() == grad[b].tobytes()
            return lasso.LassoSolution(np.zeros((n, width)), 0.0)

        monkeypatch.setattr(structure, "solve_lasso", check)
        build_feature_structure(features, hp)
        assert done == n_items
        # every item with a far violation was solved again, once
        resolved = sum(n for n, width in widths if width > near)
        far = np.einsum("ijd,id->ij", vectors[neighbors[:, near:]], vectors)
        assert resolved == np.count_nonzero(2.0 * np.abs(far).max(axis=1, initial=-np.inf)
                                            - hp.alpha > hp.lasso_tol)
        assert (resolved > 0) == (near < k)

    def test_rounds_gather_within_the_budget(self, monkeypatch):
        # chunks of 16 items gather 16 x 6 neighbor rows of width 2,000
        # (1.5 MB) per round; the 40 items in one batch would gather 3.8 MB
        self.assert_gathers_within_budget(monkeypatch, 40, 6, 2000)

    def test_far_checks_and_full_k_solves_gather_within_the_budget(self, monkeypatch):
        # at k = 50 and width 20, chunks of 16 gather 16 x 20 near rows, the
        # full-k check the 30 far rows in slices of 20, and the items solved
        # again at full k go in batches of 6, each within the budget
        self.assert_gathers_within_budget(monkeypatch, 60, 50, 20)

    @staticmethod
    def assert_gathers_within_budget(monkeypatch, n_items, k, dim):
        """No round, correlation, face gram or far check of an image build in
        chunks of 16 allocates more than 1.5 times the row budget."""
        set_chunk(monkeypatch, 16, k, dim)
        budget = structure._ROW_BUDGET
        features = FeatureMatrix(np.random.default_rng(65).normal(size=(n_items, dim)))
        peaks = {}

        def traced(function):
            def run(*args):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = function(*args)
                peak = tracemalloc.get_traced_memory()[1] - start
                peaks.setdefault(function.__name__, []).append(peak)
                return result
            return run

        # each round's gradient, each face gram, each batch's correlations,
        # and each chunk's full-k check
        monkeypatch.setattr(lasso, "_gradients", traced(lasso._gradients))
        monkeypatch.setattr(lasso, "pool_gram", traced(lasso.pool_gram))
        monkeypatch.setattr(structure, "pool_gram", traced(structure.pool_gram))
        monkeypatch.setattr(structure, "_far_violations", traced(structure._far_violations))
        tracemalloc.start()
        try:
            S = build_feature_structure(features, Hyperparams(knn_k=k, alpha=0.01))
        finally:
            tracemalloc.stop()
        assert S.matrix.nnz > 0 and len(peaks["_gradients"]) > 3
        # the far rows are checked only past W = min(k, width)
        assert len(peaks.get("_far_violations", [])) == (len(range(0, n_items, 16)) if dim < k else 0)
        # the gathered rows, plus the round's (items, width) and (items, k) arrays
        assert max(max(p) for p in peaks.values()) <= 1.5 * budget

    def test_peak_grows_with_the_budget_alone(self, monkeypatch):
        # widening the chunks from 2 to 64 items adds at most the wider
        # chunks' budget of gathered rows, and their (items, k) arrays, to
        # the peak of the whole build
        features = FeatureMatrix(np.random.default_rng(66).normal(size=(128, 64)))
        hp = Hyperparams(knn_k=20, alpha=0.05)
        peaks = {}
        for per_chunk in (2, 64):
            set_chunk(monkeypatch, per_chunk, 20, 64)
            tracemalloc.start()
            try:
                build_feature_structure(features, hp)
                peaks[per_chunk] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] - peaks[2] <= 1.5 * 62 * 8 * 20 * 64

    def test_build_holds_one_batch_at_a_time(self, monkeypatch):
        # each batch's arrays are freed when its solve returns, before the
        # next is formed; the pooled rows are shared by all of them.  Rows of
        # width 4 put 14 images in chunks of 4, 4, 4 and 2 on their nearest
        # 4 of 6 neighbors, and a chunk's items with a far violation are
        # solved again at full k, in batches of at most 2 (the budget's 512
        # bytes over 6 rows of width 4)
        set_chunk(monkeypatch, 4, 6, 4)
        formed, widths = [], []
        pool_gram, solve_lasso = structure.pool_gram, structure.solve_lasso

        def correlations(*args):
            assert all(ref() is None for ref in formed)
            entries = pool_gram(*args)
            formed.append(weakref.ref(entries))
            return entries

        def solve(batch, tol):
            formed.append(weakref.ref(batch.corr))
            widths.append(batch.index.shape)
            return solve_lasso(batch, tol)

        monkeypatch.setattr(structure, "pool_gram", correlations)
        monkeypatch.setattr(structure, "solve_lasso", solve)
        features, _ = random_instance(67, n_images=14, n_tags=3, dim=4)
        build_feature_structure(features, Hyperparams(knn_k=6, alpha=0.1))
        assert len(formed) == 2 * len(widths) and all(ref() is None for ref in formed)
        chunks = []  # [items, items solved again] per chunk
        for n, width in widths:
            if width == 4:
                chunks.append([n, 0])
            else:
                assert width == 6 and n <= 2
                chunks[-1][1] += n
        assert [n for n, _ in chunks] == [4, 4, 4, 2]
        assert all(again <= n for n, again in chunks) and any(again for _, again in chunks)

    @staticmethod
    def clustered_rows(seed, n_images, dim, noise):
        """Rows around 6 random centers, so that most neighbors are near."""
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(6, dim))[np.arange(n_images) % 6]
        return FeatureMatrix(centers + noise * rng.normal(size=(n_images, dim)))

    def test_supports_past_the_near_rows_are_solved_again(self, monkeypatch):
        # 90 rows of width 4 and k = 30, so W = 4: the item loop puts weight
        # past the nearest 4 neighbors for 45 items, and exactly those are
        # solved again at full k, to the item loop's weights and a full-k
        # certificate, bitwise alike in one chunk and in chunks of 1 and 3
        features = self.clustered_rows(70, 90, 4, 0.2)
        hp = Hyperparams(knn_k=30, alpha=0.5)
        vectors = combined_feature_rows(features, None)
        want, failed = structure_by_item_loop(vectors, hp.alpha, hp.knn_k, hp.lasso_tol)
        neighbors = knn_index(vectors, hp.knn_k)
        past = np.flatnonzero((np.take_along_axis(want, neighbors[:, 4:], axis=1) != 0.0).any(axis=1))
        assert not failed and past.size == 45 and chunk_size(30, 4) >= 90
        again = []
        solve = structure._solve

        def spy(pool, nb, items, l1_weight, tol):
            if nb.shape[1] == hp.knn_k:
                again.extend(items.tolist())
            return solve(pool, nb, items, l1_weight, tol)

        monkeypatch.setattr(structure, "_solve", spy)
        S = self.assert_widths_agree(monkeypatch, features, hp, [1, 3])
        assert again == past.tolist() * 3  # in each of the three builds
        assert feature_structure_kkt(features, S, hp)[past].max() <= hp.lasso_tol

    def test_error_in_a_full_k_solve_names_the_build_item(self, monkeypatch):
        # with full-k solves capped at 6 rounds, items 6, 18, ... of the 45
        # solved again fail; the error names item 6, which is item 4 of its
        # batch, with the message of its own solve.  Item 1 would fail at
        # full k too, but its lasso is never posed there: its support lies
        # within its nearest 4 neighbors
        features = self.clustered_rows(70, 90, 4, 0.2)
        hp = Hyperparams(knn_k=30, alpha=0.5)
        vectors = combined_feature_rows(features, None)
        _, failed = structure_by_item_loop(vectors, hp.alpha, hp.knn_k, hp.lasso_tol, max_iters=6)
        first, error = failed[1]
        assert failed[0][0] == 1 and first == 6
        cap = {hp.knn_k: {"max_iters": 6}}
        monkeypatch.setattr(
            structure, "solve_lasso",
            lambda batch, tol: lasso.solve_lasso(batch, tol, **cap.get(batch.index.shape[1], {})),
        )
        with pytest.raises(lasso.LassoConvergenceError) as exc:
            build_feature_structure(features, hp)
        assert exc.value.item == first and exc.value.__cause__.item == 4
        assert str(exc.value) == (
            f"reconstruction subproblem for item {first} did not converge "
            f"(KKT residual {error.kkt_residual:g})"
        )

    def test_zero_width_vectors(self):
        # rows of width 0 have zero norms, and every weight is 0
        S = build_feature_structure(FeatureMatrix(np.zeros((5, 0))), Hyperparams(knn_k=2))
        assert S.matrix.shape == (5, 5) and S.matrix.nnz == 0
        with pytest.warns(UserWarning, match="all-zero"):
            T = build_tag_structure(TaggingMatrix.from_dense(np.zeros((0, 4))), Hyperparams(knn_k=2))
        assert T.matrix.shape == (4, 4) and T.matrix.nnz == 0

    @pytest.mark.parametrize("mode, seed, cap", [("image", 66, 4), ("tag", 91, 6)])
    def test_build_error_names_the_first_failing_item(self, monkeypatch, mode, seed, cap):
        # under a lowered round cap some items fail; the error names the
        # first in build order, with the message of its own solve, although
        # a later item of its batch fails too and earlier items succeed
        features, D = random_instance(seed, n_images=14, n_tags=14, dim=4)
        hp = Hyperparams(knn_k=6, alpha=0.1, mu=0.1)
        vectors = combined_feature_rows(features, None) if mode == "image" else D.to_dense().T
        _, failed = structure_by_item_loop(vectors, 0.1, hp.knn_k, hp.lasso_tol, max_iters=cap)
        first, error = failed[0]
        if mode == "image":  # chunks of 4, and the chunk before succeeds
            assert first >= 4 and failed[1][0] < (first // 4 + 1) * 4
        else:  # the 14 tags run in one batch
            assert first >= 1 and len(failed) >= 2
        set_chunk(monkeypatch, 4, 6, 4)
        monkeypatch.setattr(
            structure, "solve_lasso",
            lambda problem, tol: lasso.solve_lasso(problem, tol, max_iters=cap),
        )
        with pytest.raises(lasso.LassoConvergenceError) as exc:
            if mode == "image":
                build_feature_structure(features, hp)
            else:
                build_tag_structure(D, hp)
        assert exc.value.item == first
        assert str(exc.value) == (
            f"reconstruction subproblem for item {first} did not converge "
            f"(KKT residual {error.kkt_residual:g})"
        )


class TestReinitialize:
    def test_zero_structures_reject_nonzero_matrix(self):
        D = TaggingMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError, match="all zeros.*--no-reinit"):
            reinitialize(D, zero_structure(3), zero_structure(3))

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
        reinitialize(D, S, zero_structure(4))
        np.testing.assert_array_equal(D.to_dense(), Dd)

    def test_dimension_mismatch(self):
        D = TaggingMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            reinitialize(
                D,
                zero_structure(4),
                zero_structure(3),
            )

