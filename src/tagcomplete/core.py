"""Core domain types and the objective's terms, shared by all other modules.

The completion model represents an N x M image-tag score matrix D as

    D = U V + E

with a basis matrix U (N x K, columns confined to the unit L2 ball), a sparse
coefficient matrix V (K x M) and a sparse error matrix E (N x M).  Two square
structure matrices steer the factorization: an N x N matrix whose rows
reconstruct each image from its neighbors, and an M x M matrix whose columns
reconstruct each tag from related tags.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp


class TagCompleteError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(TagCompleteError, ValueError):
    """A domain object violates one of its invariants."""


class DimensionMismatchError(ValidationError):
    """Two operands have incompatible shapes; the message names the pair."""


def _as_csr(matrix) -> sp.csr_matrix:
    """Canonical float64 CSR: duplicates summed and indices sorted.  Explicitly
    stored zeros are kept (with their sign), so readers of nonzeros filter
    them.  Canonical float64 input keeps its data array; any other dtype is
    converted, and non-canonical CSR input is copied before it is summed,
    so the caller's arrays are never rewritten."""
    m = sp.csr_matrix(matrix, dtype=np.float64)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return m


def _check_finite(name: str, data: np.ndarray) -> None:
    # NaN propagates through min and max, so no mask of data is formed
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
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

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def tags_of(self, image: int) -> np.ndarray:
        """Column indices of the stored (nonzero) entries in one image row."""
        start, stop = self.matrix.indptr[image], self.matrix.indptr[image + 1]
        return self.matrix.indices[start:stop][self.matrix.data[start:stop] != 0]


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
    of the item by construction.  The stored matrix is canonical float64 CSR
    with no stored zeros; the caller's arrays are never rewritten.
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
        # drop stored zeros, on a copy, so the zero diagonal is structural
        if not m.data.all():
            m = m.copy()
            m.eliminate_zeros()
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def check_structure_sizes(
    D: TaggingMatrix, S: StructureMatrix, T: StructureMatrix, model=None
) -> None:
    """Raise DimensionMismatchError unless S is N x N, T is M x M and the
    model (a FactorModel), if given, is N x M for the N x M D."""
    for side, structure, size in (("image", S, D.n_images), ("tag", T, D.n_tags)):
        if structure.size != size:
            raise DimensionMismatchError(
                f"{side} structure is {structure.size}x{structure.size} "
                f"but D has {size} {side}s"
            )
    if model is not None and (model.n_images, model.n_tags) != D.matrix.shape:
        raise DimensionMismatchError(
            f"model is {model.n_images}x{model.n_tags} but D is {D.n_images}x{D.n_tags}"
        )


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
        # no N x K temporary, which np.linalg.norm(U, axis=0) would form
        norms = np.sqrt(np.einsum("ij,ij->j", self.U, self.U))
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
    max_outer_iters   cap on the solver's outer iterations
    rel_tol           the solver stops once an outer iteration lowers the
                      objective by at most rel_tol times its previous value
    rng_seed          seed of the random basis columns beyond the data's rank
    lasso_tol         KKT residual every structure lasso must reach within
                      lasso.DEFAULT_MAX_ITERS rounds

    Int fields take integers (Python or numpy, not bool) and float fields
    real numbers (not bool); each is stored as a Python int or float, so
    write_model can encode it.  Every float field is finite; the six weights
    are >= 0, rel_tol and lasso_tol > 0, rng_seed >= 0 and the other int
    fields >= 1.
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
    lasso_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = (int, np.integer) if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
        for name in ("alpha", "mu", "beta", "gamma", "lambda_", "eta"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("rel_tol", "lasso_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        for name in ("K", "knn_k", "max_outer_iters"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")

    def with_overrides(self, **kwargs) -> "Hyperparams":
        unknown = sorted(set(kwargs) - set(self.field_names()))
        if unknown:
            raise ValidationError(f"unknown hyperparameter(s): {', '.join(unknown)}")
        return replace(self, **kwargs)

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def residual_term(residual: np.ndarray) -> float:
    """||residual||_F^2, for residual = D - E - UV; it overwrites residual."""
    return float(np.sum(np.multiply(residual, residual, out=residual)))


def block_residual_term(square, residual, positions, values) -> float:
    """||R - E||_F^2 on a block of rows, from R = D - UV on the block, its
    elementwise square, and E's values at their flat positions in the
    block: the sum of square with those entries replaced by (R - E)^2.
    square is left as it was."""
    flat, kept = square.ravel(), square.ravel()[positions]
    at_error = residual.ravel()[positions] - values
    flat[positions] = at_error * at_error
    total = float(np.sum(square))
    flat[positions] = kept
    return total


def basis_term(U, S, hp: Hyperparams) -> float:
    """gamma ||U - SU||_F^2."""
    return hp.gamma * residual_term(U - S @ U) if hp.gamma != 0.0 else 0.0


def coeff_terms(V, T, hp: Hyperparams) -> tuple[float, float]:
    """lambda ||V - VT||_F^2 and 2 eta ||V||_1."""
    smooth = hp.lambda_ * residual_term(V - V @ T) if hp.lambda_ != 0.0 else 0.0
    return smooth, 2.0 * hp.eta * float(np.abs(V).sum())


def error_term(E, hp: Hyperparams) -> float:
    """beta ||E||_1, for a dense or a sparse E."""
    return hp.beta * float(np.abs(E.data if sp.issparse(E) else E).sum())


def objective_from_terms(residual, basis, coeffs, error) -> float:
    """The completion objective

    ||D - E - UV||_F^2 + gamma ||U - SU||_F^2 + lambda ||V - VT||_F^2
        + 2 eta ||V||_1 + beta ||E||_1

    as the sum of the terms above, in one fixed order.  No term is -0.0, so
    the 0.0 of a term whose weight is 0 changes no bit of the sum."""
    smooth, sparse = coeffs
    return residual + basis + smooth + sparse + error
