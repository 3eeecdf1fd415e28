"""L1-regularized least squares in Gram form, with a KKT certificate.

Every structure subproblem here shares one design matrix restricted to a
small neighborhood, so problems are posed directly in terms of the Gram
matrix A'A and the correlation vector A'b.  The solver is feature-sign
search (Lee, Battle, Raina & Ng, NIPS 2006), an exact active-set method:
on a fixed sign pattern the objective is a quadratic minimized by one
Cholesky solve.  Numerically singular patterns fall back to soft-threshold
coordinate descent (Friedman, Hastie & Tibshirani, JSS 2010).  Any minimizer
returned is certified by the stationarity conditions, which is what
downstream code relies on: the minimizer of a convex problem is
characterized by its KKT residual, not by the algorithm that found it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TagCompleteError, ValidationError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000

# An active gram whose smallest squared Cholesky pivot is at most this
# fraction of the largest gram diagonal entry counts as singular: its face
# solve would amplify rounding error past any useful tolerance.
_SINGULAR_PIVOT = 1e-12

# Coordinate-descent round: after the full sweep, re-sweep only the nonzero
# coordinates, at most this many times, until they settle.
_MAX_INNER_SWEEPS = 200


class LassoConvergenceError(TagCompleteError, RuntimeError):
    """The solver ran out of rounds; carries the last KKT residual."""

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
    """Minimize the lasso objective by guarded feature-sign search.

    Starting from w = 0, each round recomputes grad = gram @ w - corr and
    stops once the KKT residual is at most `tol`:

        active j:  |2 grad_j + l1_weight sign(w_j)| <= tol
        zero j:    |2 grad_j| <= l1_weight + tol

    Otherwise, if the active coordinates are stationary, the zero coordinate
    with the largest violation joins them, with the sign that lowers the
    objective, provided |2 grad_j| - l1_weight > tol (so an exact duplicate
    of an active column never joins).  Then the face system
    gram[A, A] x = corr[A] - (l1_weight / 2) sign[A] is solved by Cholesky,
    and w moves to the lowest-objective point among x and the zero
    crossings on the segment from w to x; a crossing coordinate is set to
    exactly 0 and leaves the active set.  When gram[A, A] is numerically
    singular (Cholesky fails or a squared pivot is at most 1e-12 times the
    largest diagonal entry), or that step would not lower the objective,
    the round is one round of cyclic soft-threshold coordinate descent
    instead: a full sweep, then sweeps over the nonzero coordinates.

    No round raises the objective; zero-diagonal coordinates never get
    weight.  `max_iters` counts rounds.  LassoConvergenceError carries the
    last KKT residual when they run out, or at once when only zero-diagonal
    coordinates violate the conditions.  Deterministic for fixed inputs.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    gram, corr, lam = problem.gram, problem.corr, problem.l1_weight
    w = np.zeros(problem.n_vars)
    diag = np.diagonal(gram)
    usable = diag > 0.0
    order = np.flatnonzero(usable).tolist()
    pivot_floor = _SINGULAR_PIVOT * float(diag.max(initial=0.0))
    grad = gram @ w - corr
    kkt = _kkt_residual(problem, w, grad)
    rounds = 0
    while kkt > tol and rounds < max_iters:
        rounds += 1
        theta = np.sign(w)
        nonzero = theta != 0.0
        if np.abs(2.0 * grad[nonzero] + lam * theta[nonzero]).max(initial=0.0) <= tol:
            slack = np.where(nonzero | ~usable, -np.inf, np.abs(2.0 * grad) - lam)
            j = int(np.argmax(slack))
            if slack[j] <= tol:
                break  # only zero-diagonal coordinates violate: no step helps
            theta[j] = -np.sign(grad[j])
        if not _feature_sign_step(problem, w, theta, pivot_floor):
            _descent_round(problem, w, grad, order, tol)
        grad = gram @ w - corr
        kkt = _kkt_residual(problem, w, grad)
    if kkt > tol:
        raise LassoConvergenceError(
            f"lasso did not reach KKT residual {tol:g} "
            f"(last residual {kkt:g} after {rounds} rounds)",
            kkt_residual=float(kkt),
        )
    return LassoSolution(w, problem.objective_at(w), kkt)


def _feature_sign_step(problem, w, theta, pivot_floor) -> bool:
    """Move w, in place, toward the minimizer on the sign face `theta`.

    Returns False and leaves w as it was when the active gram is numerically
    singular or no candidate point lowers the objective.
    """
    face = np.flatnonzero(theta)
    gram = problem.gram[np.ix_(face, face)]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    if float(np.diagonal(chol).min()) ** 2 <= pivot_floor:
        return False
    corr = problem.corr[face]
    rhs = corr - 0.5 * problem.l1_weight * theta[face]
    target = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))  # L L' x = rhs
    x = w[face]
    crossing = np.flatnonzero(x * target < 0.0)
    # candidate points: row 0 is w itself, then each zero crossing, then target
    steps = np.concatenate(
        ([0.0], x[crossing] / (x[crossing] - target[crossing]), [1.0])
    )
    points = x + steps[:, None] * (target - x)
    points[np.arange(1, crossing.size + 1), crossing] = 0.0
    values = (
        np.einsum("ij,ij->i", points @ gram, points)
        - 2.0 * (points @ corr)
        + problem.l1_weight * np.abs(points).sum(axis=1)
    )
    best = 1 + int(np.argmin(values[1:]))
    if values[best] >= values[0]:
        return False
    w[face] = points[best]
    return True


def _descent_round(problem, w, grad, order, tol) -> None:
    """One round of cyclic soft-threshold coordinate descent, in place.

    `grad` must equal gram @ w - corr on entry; it is updated in place.
    """
    gram, half = problem.gram, 0.5 * problem.l1_weight
    _sweep(gram, half, w, grad, order)
    grad[:] = gram @ w - problem.corr  # exact refresh kills incremental drift
    for _ in range(_MAX_INNER_SWEEPS):
        before = w.copy()
        _sweep(gram, half, w, grad, [j for j in order if w[j] != 0.0])
        if np.abs(w - before).max(initial=0.0) <= 0.1 * tol:
            break


def _sweep(gram, half, w, grad, indices) -> None:
    """Closed-form soft-threshold minimizer of each coordinate in turn."""
    for j in indices:
        z = gram[j, j] * w[j] - grad[j]
        w_new = np.sign(z) * max(abs(z) - half, 0.0) / gram[j, j]
        if w_new != w[j]:
            grad += (w_new - w[j]) * gram[:, j]
            w[j] = w_new


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
