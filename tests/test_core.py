import numpy as np
import pytest
import scipy.sparse as sp

from tagcomplete.core import (
    DimensionMismatchError,
    FactorModel,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
    check_structure_sizes,
    normalize_rows,
)

from helpers import zero_structure
from oracles import dense_objective, objective_from_arrays


def random_instance(rng, n_images=7, n_tags=5, k=3):
    D = (rng.random((n_images, n_tags)) < 0.4).astype(float)
    S = rng.normal(size=(n_images, n_images)) * (rng.random((n_images, n_images)) < 0.3)
    np.fill_diagonal(S, 0.0)
    T = rng.normal(size=(n_tags, n_tags)) * (rng.random((n_tags, n_tags)) < 0.3)
    np.fill_diagonal(T, 0.0)
    U = rng.normal(size=(n_images, k))
    U /= np.maximum(np.linalg.norm(U, axis=0, keepdims=True), 1.0)
    V = rng.normal(size=(k, n_tags)) * (rng.random((k, n_tags)) < 0.5)
    E = rng.normal(size=(n_images, n_tags)) * (rng.random((n_images, n_tags)) < 0.2)
    return D, S, T, U, V, E


class TestTaggingMatrix:
    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((6, 9)) < 0.3).astype(float)
        m = TaggingMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.to_dense(), dense)
        assert m.n_images == 6
        assert m.n_tags == 9

    def test_tags_of(self):
        dense = np.zeros((2, 5))
        dense[1, [0, 3]] = 1.0
        m = TaggingMatrix.from_dense(dense)
        assert m.tags_of(0).tolist() == []
        assert m.tags_of(1).tolist() == [0, 3]

    def test_tags_of_skips_stored_zeros(self):
        # canonical form keeps explicitly stored zeros of either sign
        data, indices, indptr = [0.0, 1.0, -0.0, 2.0], [0, 1, 2, 4], [0, 0, 4]
        m = TaggingMatrix(sp.csr_matrix((data, indices, indptr), shape=(2, 5)))
        assert m.nnz == 4
        assert m.tags_of(0).tolist() == []
        assert m.tags_of(1).tolist() == [1, 4]

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            TaggingMatrix.from_dense(np.array([[np.nan, 0.0]]))


class TestFeatureMatrix:
    def test_normalize_rows_zero_row_left_alone(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = normalize_rows(X)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(out[1]), 1.0)


class TestStructureMatrix:
    def test_rejects_nonzero_diagonal(self):
        bad = sp.csr_matrix(np.array([[0.5, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            StructureMatrix(bad)

    def test_accepts_structural_zero_diagonal(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        sm = StructureMatrix(mat)
        assert sm.size == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            StructureMatrix(sp.csr_matrix((2, 3)))

    def test_zeros(self):
        sm = zero_structure(4)
        assert sm.matrix.nnz == 0
        assert sm.size == 4


class TestFactorModel:
    def test_validate_catches_column_norm(self):
        with pytest.raises(ValidationError):
            FactorModel(
                U=np.ones((3, 2)), V=sp.csr_matrix((2, 4)), E=sp.csr_matrix((3, 4))
            )

    def test_validate_catches_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FactorModel(
                U=np.zeros((3, 2)), V=sp.csr_matrix((5, 4)), E=sp.csr_matrix((3, 4))
            )

    def test_completed_is_product(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(4, 2))
        U /= np.maximum(np.linalg.norm(U, axis=0, keepdims=True), 1.0)
        V = rng.normal(size=(2, 6))
        model = FactorModel(U=U, V=sp.csr_matrix(V), E=sp.csr_matrix((4, 6)))
        model.validate()
        np.testing.assert_allclose(model.completed(), U @ V, atol=1e-12)


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert hp.beta == 0.7
        assert hp.gamma == 1.0
        assert hp.lambda_ == 0.5
        assert hp.eta == 1.0
        assert hp.alpha == 1.0
        assert hp.mu == 1.0
        assert hp.K == 100
        assert hp.knn_k == 200

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            Hyperparams(beta=-0.1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValidationError):
            Hyperparams(K=0)

    def test_with_overrides(self):
        hp = Hyperparams().with_overrides(eta=2.5, K=7)
        assert hp.eta == 2.5
        assert hp.K == 7
        assert hp.beta == 0.7

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ValidationError):
            Hyperparams().with_overrides(not_a_param=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["alpha", "mu", "beta", "gamma", "lambda_", "eta", "rel_tol", "lasso_tol"],
    )
    def test_rejects_non_finite_float_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rel_tol", 0.0, "rel_tol must be > 0"),
            ("lasso_tol", 0.0, "lasso_tol must be > 0"),
            ("lasso_tol", -1e-8, "lasso_tol must be > 0"),
        ],
    )
    def test_rejects_non_positive_tolerance_or_round_cap(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("K", 2.5),
            ("knn_k", 3.7),
            ("K", 7.0),
            ("max_outer_iters", True),
            ("rng_seed", False),
            ("max_outer_iters", np.float64(5.0)),
            ("knn_k", "2"),
            ("alpha", True),
            ("eta", np.bool_(True)),
            ("beta", "0.7"),
            ("rel_tol", None),
        ],
    )
    def test_rejects_wrongly_typed_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            Hyperparams(**{field: value})

    def test_accepts_numpy_scalars_and_int_weights(self):
        hp = Hyperparams(
            K=np.int64(7), knn_k=np.int32(3), alpha=np.float64(0.5), beta=1
        )
        assert (hp.K, hp.knn_k, hp.alpha, hp.beta) == (7, 3, 0.5, 1)


class TestObjective:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        hp = Hyperparams(eta=0.3, beta=0.7, gamma=1.2, lambda_=0.5)
        for _ in range(25):
            D, S, T, U, V, E = random_instance(rng)
            got = objective_from_arrays(
                D, U, V, E, sp.csr_matrix(S), sp.csr_matrix(T), hp
            )
            want = dense_objective(D, S, T, U, V, E, hp)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_model_is_pure_data_plus_error_terms(self):
        zero = sp.csr_matrix((3, 3))
        got = objective_from_arrays(
            np.eye(3), np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((3, 3)),
            zero, zero, Hyperparams(),
        )
        np.testing.assert_allclose(got, 3.0)

    def test_dimension_mismatch_names_pair(self):
        D = TaggingMatrix.from_dense(np.zeros((3, 4)))
        model = FactorModel(
            U=np.zeros((3, 2)), V=sp.csr_matrix((2, 4)), E=sp.csr_matrix((3, 4))
        )
        with pytest.raises(DimensionMismatchError) as exc:
            check_structure_sizes(
                D,
                zero_structure(5),
                zero_structure(4),
                model,
            )
        assert "image structure" in str(exc.value)

    def test_model_shape_mismatch_names_model(self):
        D = TaggingMatrix.from_dense(np.zeros((3, 4)))
        model = FactorModel(
            U=np.zeros((3, 2)), V=sp.csr_matrix((2, 5)), E=sp.csr_matrix((3, 5))
        )
        message = "^model is 3x5 but D is 3x4$"
        with pytest.raises(DimensionMismatchError, match=message) as exc:
            check_structure_sizes(
                D,
                zero_structure(3),
                zero_structure(4),
                model,
            )
        assert isinstance(exc.value, ValidationError)
