"""L1-regularized least squares in Gram form, with a KKT certificate.

Every structure subproblem here shares one design matrix restricted to a
small neighborhood, so problems are posed directly in terms of the Gram
matrix A'A and the correlation vector A'b.  The solver is cyclic coordinate
descent with soft-thresholding; any minimizer it returns is certified by the
stationarity conditions, which is what downstream code relies on (the exact
descent path is interchangeable because the minimizer of a convex problem is
characterized by its KKT residual, not by the algorithm that found it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TagCompleteError, ValidationError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000

# Active-set refinement: between full cyclic sweeps, re-sweep only the
# currently nonzero coordinates.  Cannot change the fixed point since the
# final full sweep re-checks stationarity over all coordinates.
_MAX_INNER_SWEEPS = 200


class LassoConvergenceError(TagCompleteError, RuntimeError):
    """Coordinate descent exhausted max_iters; carries the last KKT residual."""

    def __init__(self, message: str, kkt_residual: float):
        super().__init__(message)
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class LassoProblem:
    """min_w  ||b - A w||^2 + l1_weight * ||w||_1, posed via gram = A'A, corr = A'b.

    target_sq_norm is ||b||^2 so objective values can be recovered without b.
    """

    gram: np.ndarray
    corr: np.ndarray
    target_sq_norm: float
    l1_weight: float

    def __post_init__(self):
        gram = np.ascontiguousarray(np.asarray(self.gram, dtype=float))
        corr = np.ascontiguousarray(np.asarray(self.corr, dtype=float)).ravel()
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValidationError(f"gram must be square, got shape {gram.shape}")
        if corr.shape[0] != gram.shape[0]:
            raise ValidationError(
                f"corr has {corr.shape[0]} entries for a {gram.shape[0]}-variable gram"
            )
        if not np.all(np.isfinite(gram)) or not np.all(np.isfinite(corr)):
            raise ValidationError("lasso problem has non-finite gram or corr")
        if not np.isfinite(self.target_sq_norm) or self.target_sq_norm < 0:
            raise ValidationError("target_sq_norm must be finite and >= 0")
        if not np.isfinite(self.l1_weight) or self.l1_weight < 0:
            raise ValidationError("l1_weight must be finite and >= 0")
        scale = max(float(np.abs(gram).max(initial=0.0)), 1.0)
        if np.abs(gram - gram.T).max(initial=0.0) > 1e-8 * scale:
            raise ValidationError("gram matrix is not symmetric")
        _check_psd(gram, scale)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "corr", corr)

    @property
    def n_vars(self) -> int:
        return self.gram.shape[0]

    def objective_at(self, weights: np.ndarray) -> float:
        """||b - A w||^2 + l1_weight ||w||_1 expanded through the Gram form."""
        w = np.asarray(weights, dtype=float)
        quad = float(w @ self.gram @ w)
        return (
            self.target_sq_norm
            - 2.0 * float(self.corr @ w)
            + quad
            + self.l1_weight * float(np.abs(w).sum())
        )


def _check_psd(gram: np.ndarray, scale: float) -> None:
    # Cheap PSD certificate: Cholesky after a 1e-8-scaled diagonal shift.
    if gram.shape[0] == 0:
        return
    try:
        np.linalg.cholesky(gram + (1e-8 * scale) * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError:
        raise ValidationError("gram matrix is not positive semidefinite") from None


@dataclass(frozen=True)
class LassoSolution:
    weights: np.ndarray
    objective_value: float
    kkt_residual: float


def _kkt_residual(problem: LassoProblem, weights: np.ndarray, grad: np.ndarray) -> float:
    """Max stationarity violation; grad must equal gram @ weights - corr."""
    lam = problem.l1_weight
    active = weights != 0.0
    zero = ~active
    residual = 0.0
    if active.any():
        residual = float(
            np.abs(2.0 * grad[active] + lam * np.sign(weights[active])).max()
        )
    if zero.any():
        slack = np.abs(2.0 * grad[zero]) - lam
        residual = max(residual, float(max(slack.max(), 0.0)))
    return residual


def solve_lasso(
    problem: LassoProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> LassoSolution:
    """Minimize the lasso objective by cyclic coordinate descent.

    Each scalar step is the closed-form soft-threshold minimizer of the
    one-variable restriction.  Iterates until the KKT residual (recomputed
    from scratch at the end of every full sweep) drops to `tol`:

        active j:  |2 (gram w - corr)_j + l1_weight sign(w_j)| <= tol
        zero j:    |2 (gram w - corr)_j| <= l1_weight + tol

    Raises LassoConvergenceError after `max_iters` full sweeps.  Deterministic:
    coordinates are visited in fixed ascending order.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    gram, corr, lam = problem.gram, problem.corr, problem.l1_weight
    p = problem.n_vars
    w = np.zeros(p)
    if p == 0:
        return LassoSolution(w, problem.objective_at(w), 0.0)
    grad = -corr.copy()  # gram @ w - corr
    half = 0.5 * lam
    diag = np.diagonal(gram)
    order = [j for j in range(p) if diag[j] > 0.0]

    def sweep(indices) -> None:
        nonlocal grad
        for j in indices:
            z = diag[j] * w[j] - grad[j]
            w_new = np.sign(z) * max(abs(z) - half, 0.0) / diag[j]
            if w_new != w[j]:
                grad += (w_new - w[j]) * gram[:, j]
                w[j] = w_new

    kkt = np.inf
    for _ in range(max_iters):
        sweep(order)
        grad = gram @ w - corr  # exact refresh kills incremental drift
        kkt = _kkt_residual(problem, w, grad)
        if kkt <= tol:
            return LassoSolution(w, problem.objective_at(w), kkt)
        for _ in range(_MAX_INNER_SWEEPS):
            before = w.copy()
            sweep([j for j in order if w[j] != 0.0])
            if np.abs(w - before).max(initial=0.0) <= 0.1 * tol:
                break
    raise LassoConvergenceError(
        f"lasso did not reach KKT residual {tol:g} within {max_iters} sweeps "
        f"(last residual {kkt:g})",
        kkt_residual=float(kkt),
    )


def kkt_residual(problem: LassoProblem, weights: np.ndarray) -> float:
    """Stationarity residual of arbitrary weights, recomputed from problem data.

    Independent of the solver path, so it doubles as an after-the-fact
    certificate.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != problem.n_vars:
        raise ValidationError(
            f"got {w.shape[0]} weights for a {problem.n_vars}-variable problem"
        )
    grad = problem.gram @ w - problem.corr
    return _kkt_residual(problem, w, grad)


def verify_kkt(problem: LassoProblem, solution: LassoSolution, tol: float) -> bool:
    """True iff the solution satisfies the stationarity conditions within tol."""
    return kkt_residual(problem, solution.weights) <= tol
