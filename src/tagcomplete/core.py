"""Core domain types and the objective function shared by all other modules.

The completion model represents an N x M image-tag score matrix D as

    D = U V + E

with a basis matrix U (N x K, columns confined to the unit L2 ball), a sparse
coefficient matrix V (K x M) and a sparse error matrix E (N x M).  Two square
structure matrices steer the factorization: an N x N matrix whose rows
reconstruct each image from its neighbors, and an M x M matrix whose columns
reconstruct each tag from related tags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp


class TagCompleteError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(TagCompleteError, ValueError):
    """Two operands have incompatible shapes; the message names the pair."""


class ValidationError(TagCompleteError, ValueError):
    """A domain object violates one of its invariants."""


def _as_csr(matrix, shape=None) -> sp.csr_matrix:
    """Canonical CSR: duplicates summed, indices sorted, explicit zeros kept out."""
    m = sp.csr_matrix(matrix, shape=shape)
    m.sum_duplicates()
    m.sort_indices()
    return m


def _check_finite(name: str, data: np.ndarray) -> None:
    if data.size and not np.all(np.isfinite(data)):
        raise ValidationError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class TaggingMatrix:
    """Sparse N x M matrix of image-tag scores.

    Freshly loaded assignments are binary (every stored value is 1.0 and
    absent entries mean 0).  After structure re-initialization the values are
    arbitrary finite reals.  Treat the underlying matrix as read-only.
    """

    matrix: sp.csr_matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_csr(self.matrix))
        _check_finite("tagging matrix", self.matrix.data)

    @classmethod
    def from_dense(cls, array) -> "TaggingMatrix":
        return cls(sp.csr_matrix(np.asarray(array, dtype=float)))

    @property
    def n_images(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_tags(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def tags_of(self, image: int) -> np.ndarray:
        """Column indices of the stored (nonzero) entries in one image row."""
        row = self.matrix.getrow(image)
        return row.indices[row.data != 0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense N x L feature matrix, one row per image."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got ndim={arr.ndim}")
        _check_finite("feature matrix", arr)
        object.__setattr__(self, "data", arr)

    @property
    def n_images(self) -> int:
        return self.data.shape[0]


def normalize_rows(arr: np.ndarray) -> np.ndarray:
    """Scale every nonzero row to unit L2 norm; zero rows are left zero."""
    norms = np.linalg.norm(arr, axis=1)
    out = arr.copy()
    nz = norms > 0
    out[nz] /= norms[nz, None]
    return out


@dataclass(frozen=True)
class StructureMatrix:
    """Square sparse matrix of local linear reconstruction coefficients.

    The diagonal is structurally zero: an item never participates in its own
    reconstruction.  Row/column support is confined to the k nearest neighbors
    of the item by construction.
    """

    matrix: sp.csr_matrix

    def __post_init__(self):
        m = _as_csr(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"structure matrix must be square, got {m.shape}")
        _check_finite("structure matrix", m.data)
        diag = m.diagonal()
        if np.any(diag != 0):
            raise ValidationError("structure matrix has nonzero diagonal entries")
        # drop explicitly stored zeros so the zero diagonal is structural
        m.eliminate_zeros()
        object.__setattr__(self, "matrix", m)

    @classmethod
    def zeros(cls, size: int) -> "StructureMatrix":
        return cls(sp.csr_matrix((size, size)))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class FactorModel:
    """Factorization state: basis U (N x K), coefficients V (K x M), error E (N x M).

    The completed score matrix is the product U @ V; it is always derived,
    never stored.  Every column of U stays inside the unit L2 ball.
    """

    U: np.ndarray
    V: sp.csr_matrix
    E: sp.csr_matrix

    COLUMN_NORM_SLACK = 1e-12

    def __post_init__(self):
        self.U = np.ascontiguousarray(np.asarray(self.U, dtype=float))
        self.V = _as_csr(self.V)
        self.E = _as_csr(self.E)
        self.validate()

    def validate(self) -> None:
        if self.U.ndim != 2:
            raise ValidationError("U must be a 2-D array")
        n, k = self.U.shape
        if self.V.shape[0] != k:
            raise DimensionMismatchError(
                f"U has {k} columns but V has {self.V.shape[0]} rows"
            )
        if self.E.shape != (n, self.V.shape[1]):
            raise DimensionMismatchError(
                f"E is {self.E.shape} but U@V is {(n, self.V.shape[1])}"
            )
        _check_finite("U", self.U)
        _check_finite("V", self.V.data)
        _check_finite("E", self.E.data)
        norms = np.linalg.norm(self.U, axis=0)
        if np.any(norms > 1.0 + self.COLUMN_NORM_SLACK):
            raise ValidationError(
                f"U column norm {norms.max():.17g} exceeds unit ball"
            )

    @property
    def n_images(self) -> int:
        return self.U.shape[0]

    @property
    def n_factors(self) -> int:
        return self.U.shape[1]

    @property
    def n_tags(self) -> int:
        return self.V.shape[1]

    def completed(self) -> np.ndarray:
        """Dense completed score matrix U @ V."""
        return self.U @ self.V.toarray()


@dataclass(frozen=True)
class Hyperparams:
    """All tuning knobs in one immutable bundle.

    alpha / mu        L1 weights of the image / tag structure subproblems
    beta              L1 weight on the error matrix E
    gamma / lambda_   weights of the image / tag structure penalty terms
    eta               L1 weight on V (the objective carries it as 2*eta*||V||_1)
    K                 number of basis columns
    knn_k             neighborhood size for structure building
    lasso_tol         KKT residual every structure lasso must reach
    lasso_max_iters   rounds each structure lasso may take: one active-set
                      step, or one scalar step when no active-set step helps
    """

    alpha: float = 1.0
    mu: float = 1.0
    beta: float = 0.7
    gamma: float = 1.0
    lambda_: float = 0.5
    eta: float = 1.0
    K: int = 100
    knn_k: int = 200
    max_outer_iters: int = 500
    rel_tol: float = 1e-5
    rng_seed: int = 0
    inner_sweeps: int = 1
    lasso_tol: float = 1e-8
    lasso_max_iters: int = 10_000

    def __post_init__(self):
        for name in ("alpha", "mu", "beta", "gamma", "lambda_", "eta"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.K < 1:
            raise ValidationError("K must be >= 1")
        if self.knn_k < 1:
            raise ValidationError("knn_k must be >= 1")
        if self.rel_tol <= 0:
            raise ValidationError("rel_tol must be > 0")
        if self.max_outer_iters < 1:
            raise ValidationError("max_outer_iters must be >= 1")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        if self.inner_sweeps < 1:
            raise ValidationError("inner_sweeps must be >= 1")

    def with_overrides(self, **kwargs) -> "Hyperparams":
        unknown = sorted(set(kwargs) - set(self.field_names()))
        if unknown:
            raise ValidationError(f"unknown hyperparameter(s): {', '.join(unknown)}")
        return replace(self, **kwargs)

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def _require_same(label_a: str, a, label_b: str, b) -> None:
    if a != b:
        raise DimensionMismatchError(f"{label_a} = {a} but {label_b} = {b}")


def objective(
    D: TaggingMatrix,
    S: StructureMatrix,
    T: StructureMatrix,
    model: FactorModel,
    hp: Hyperparams,
) -> float:
    """Value of the completion objective at the given state.

    Pure function; all inputs are read-only.  Raises DimensionMismatchError
    naming the offending pair when shapes disagree.  See objective_from_arrays
    for the formula.
    """
    _require_same("D image count", D.n_images, "model image count", model.n_images)
    _require_same("D tag count", D.n_tags, "model tag count", model.n_tags)
    _require_same("image structure size", S.size, "image count", D.n_images)
    _require_same("tag structure size", T.size, "tag count", D.n_tags)
    return objective_from_arrays(
        D.to_dense(), model.U, model.V.toarray(), model.E.toarray(),
        S.matrix, T.matrix, hp,
    )


def objective_from_arrays(data, U, V, E, S, T, hp: Hyperparams) -> float:
    """The completion objective on raw arrays:

    ||D - E - UV||_F^2 + gamma ||U - SU||_F^2 + lambda ||V - VT||_F^2
        + 2 eta ||V||_1 + beta ||E||_1

    data, U, V and E are dense; S and T are the sparse structure matrices.
    Shapes are not checked and non-finite values propagate to the result
    instead of raising, so a solver can detect blow-ups from the value.
    """
    residual = data - E - U @ V
    value = float(np.sum(residual * residual))
    if hp.gamma != 0.0:
        u_res = U - S @ U
        value += hp.gamma * float(np.sum(u_res * u_res))
    if hp.lambda_ != 0.0:
        v_res = V - V @ T
        value += hp.lambda_ * float(np.sum(v_res * v_res))
    value += 2.0 * hp.eta * float(np.abs(V).sum())
    value += hp.beta * float(np.abs(E).sum())
    return value
