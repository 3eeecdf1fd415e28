"""L1-regularized least squares in Gram form, with a KKT certificate.

Every structure subproblem here shares one design matrix restricted to a
small neighborhood, so problems are posed directly in terms of the Gram
matrix A'A and the correlation vector A'b.  The solver is feature-sign
search (Lee, Battle, Raina & Ng, NIPS 2006), an exact active-set method:
on a fixed sign pattern the objective is a quadratic minimized by one
Cholesky solve.  On a numerically singular pattern a LARS-style swap step
(Efron et al., 2004) trades one active coordinate for the joining one,
which makes the next pattern nonsingular again.  Any minimizer returned is
certified by the stationarity conditions, which is what downstream code
relies on: the minimizer of a convex problem is characterized by its KKT
residual, not by the algorithm that found it.
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


def _row_problem(rows: np.ndarray, target: np.ndarray, l1_weight: float) -> LassoProblem:
    """The lasso rebuilding `target` from the finite `rows`, without the
    constructor's checks: the gram rows @ rows.T is PSD by construction."""
    problem = object.__new__(LassoProblem)  # frozen: fill its fields directly
    problem.__dict__.update(gram=rows @ rows.T, corr=rows @ target,
                            target_sq_norm=float(target @ target), l1_weight=l1_weight)
    return problem


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
    """Minimizing weights and their KKT residual (see kkt_residual)."""

    weights: np.ndarray
    kkt_residual: float


def _violations(weights: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray:
    """Stationarity violation per coordinate; grad must equal gram @ weights - corr."""
    theta = np.sign(weights)
    return np.where(
        theta != 0.0, np.abs(2.0 * grad + lam * theta), np.abs(2.0 * grad) - lam
    )


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
    largest diagonal entry), the joining column j is a combination c of the
    other active ones, and w takes a LARS swap step instead: along
    (-sign_j c, sign_j), which keeps gram @ w and lowers the L1 term, to the
    first zero crossing, which leaves the active set.  A round where neither
    step lowers the objective (rounding dust, such as a weight of 1e-16 that
    should be 0) exactly minimizes the worst KKT violator alone.

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
    pivot_floor = _SINGULAR_PIVOT * float(diag.max(initial=0.0))
    rounds = 0
    while True:
        grad = gram @ w - corr
        violation = _violations(w, grad, lam)
        kkt = float(violation.max(initial=0.0))
        if kkt <= tol or rounds >= max_iters:
            break
        rounds += 1
        theta = np.sign(w)
        nonzero = theta != 0.0
        violation[~usable] = -np.inf
        joining = None
        if violation[nonzero].max(initial=0.0) <= tol:
            joining = int(np.argmax(violation))
            if violation[joining] <= tol:
                break  # only zero-diagonal coordinates violate: no step helps
            theta[joining] = -np.sign(grad[joining])
        if not _face_step(problem, w, theta, joining, pivot_floor):
            j = int(np.argmax(violation))
            z = diag[j] * w[j] - grad[j]
            w[j] = np.sign(z) * max(abs(z) - 0.5 * lam, 0.0) / diag[j]
    if kkt > tol:
        raise LassoConvergenceError(
            f"lasso did not reach KKT residual {tol:g} "
            f"(last residual {kkt:g} after {rounds} rounds)",
            kkt_residual=kkt,
        )
    return LassoSolution(w, kkt)


def _cholesky(gram, pivot_floor):
    """Cholesky factor of gram, or None when it is numerically singular."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    if float(np.diagonal(chol).min(initial=np.inf)) ** 2 <= pivot_floor:
        return None
    return chol


def _face_step(problem, w, theta, joining, pivot_floor) -> bool:
    """Move w, in place, toward a lower objective on the sign face `theta`.

    The target is the face minimizer, or on a singular face the swap step's
    first zero crossing.  Returns False and leaves w as it was when there is
    no target or no candidate point lowers the objective.
    """
    face = np.flatnonzero(theta)
    gram = problem.gram[np.ix_(face, face)]
    x = w[face]
    chol = _cholesky(gram, pivot_floor)
    if chol is not None:
        rhs = problem.corr[face] - 0.5 * problem.l1_weight * theta[face]
        target = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))  # L L' x = rhs
    elif joining is None:
        return False
    else:
        rest = face != joining
        chol = _cholesky(gram[np.ix_(rest, rest)], pivot_floor)
        if chol is None:
            return False
        # the joining column is (numerically) this combination of the others
        column = problem.gram[face[rest], joining]
        combo = np.linalg.solve(chol.T, np.linalg.solve(chol, column))
        direction = np.full(face.size, theta[joining])
        direction[rest] *= -combo
        heading = np.flatnonzero(x * direction < 0.0)
        if heading.size == 0:
            return False
        ratios = -x[heading] / direction[heading]
        first = int(np.argmin(ratios))
        target = x + ratios[first] * direction
        target[heading[first]] = 0.0
    crossing = np.flatnonzero(x * target < 0.0)
    # candidate points: row 0 is w itself, then each zero crossing, then target
    steps = np.concatenate(
        ([0.0], x[crossing] / (x[crossing] - target[crossing]), [1.0])
    )
    points = x + steps[:, None] * (target - x)
    points[np.arange(1, crossing.size + 1), crossing] = 0.0
    values = (
        np.einsum("ij,ij->i", points @ gram, points)
        - 2.0 * (points @ problem.corr[face])
        + problem.l1_weight * np.abs(points).sum(axis=1)
    )
    best = 1 + int(np.argmin(values[1:]))
    if values[best] >= values[0]:
        return False
    w[face] = points[best]
    return True


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
    return float(_violations(w, grad, problem.l1_weight).max(initial=0.0))


def verify_kkt(problem: LassoProblem, solution: LassoSolution, tol: float) -> bool:
    """True iff the solution satisfies the stationarity conditions within tol."""
    return kkt_residual(problem, solution.weights) <= tol
