"""L1-regularized least squares over pooled grams or rows, with a KKT certificate.

Every structure subproblem here shares one design matrix restricted to a
small neighborhood, so problems are posed through the correlation vector
A'b, a pool that holds the design once, and the neighborhood's index into
it: the pool is either one Gram matrix whose entries the neighborhoods
index (the tags' D'D), or the design's rows themselves, whose dot products
are the gram entries (the image features).  Only this module reads gram
entries out of a pool.  Over rows, the solver forms just the face grams and
gradient A(A'x) - A'b it needs, and no neighborhood's whole gram.  The
solver is feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006), an
exact active-set method: on a fixed sign pattern the objective is a
quadratic minimized by one Cholesky solve.  On a numerically singular pattern a LARS-style swap step
(Efron et al., 2004) trades one active coordinate for the joining one,
which makes the next pattern nonsingular again.  The problems of a batch
with one size run their rounds in lockstep, so that stacked factorizations
and line searches replace one small call per problem.  Any minimizer
returned is certified by the stationarity conditions, which is what
downstream code relies on: the minimizer of a convex problem is
characterized by its KKT residual, not by the algorithm that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import TagCompleteError, ValidationError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000

# An active gram whose smallest squared Cholesky pivot is at most this
# fraction of the largest gram diagonal entry counts as singular: its face
# solve would amplify rounding error past any useful tolerance.
_SINGULAR_PIVOT = 1e-12


class LassoConvergenceError(TagCompleteError, RuntimeError):
    """An item's rounds ran out; carries its batch index and last KKT residual."""

    def __init__(self, message: str, kkt_residual: float, item: int = 0):
        super().__init__(message)
        self.kkt_residual = kkt_residual
        self.item = item


@dataclass(frozen=True)
class LassoProblem:
    """min_w  ||b - A w||^2 + l1_weight * ||w||_1, posed via gram = A'A, corr = A'b.

    target_sq_norm is ||b||^2 so objective values can be recovered without b.
    Like LassoBatch it checks nothing: gram must be a symmetric PSD float
    array and corr a vector of the same size.
    """

    gram: np.ndarray
    corr: np.ndarray
    target_sq_norm: float
    l1_weight: float


class RowPool(NamedTuple):
    """The rows of one design matrix, as the pool of a LassoBatch: the gram
    entry of members i and j is vectors[i] . vectors[j]."""

    vectors: np.ndarray


class LassoBatch(NamedTuple):
    """B lassos with k variables each, whose grams are read out of one pool.

    For an index array of shape (B, k), item b's gram is
    pool[index[b]][:, index[b]] when pool is an array of gram entries, and
    A A' for its rows A = pool.vectors[index[b]] when pool is a RowPool;
    its correlations are corr[b].  So what items share, such as
    neighborhoods of one matrix D'D or of one set of feature rows, is
    stored once.  It checks nothing, so every gram it indexes must be
    symmetric PSD by construction, as products of finite rows are.
    """

    pool: np.ndarray | RowPool
    index: np.ndarray
    corr: np.ndarray
    l1_weight: float


@dataclass(frozen=True)
class LassoSolution:
    """Minimizing weights and their KKT residual (see kkt_residual); for a
    LassoBatch, weights (B, k) and the largest item residual."""

    weights: np.ndarray
    kkt_residual: float


def _violations(weights: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray:
    """Stationarity violation per coordinate; grad must equal gram @ weights - corr."""
    theta = np.sign(weights)
    return np.where(
        theta != 0.0, np.abs(2.0 * grad + lam * theta), np.abs(2.0 * grad) - lam
    )


def solve_lasso(
    problem: LassoProblem | LassoBatch,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> LassoSolution:
    """Minimize the lasso objective of every item by guarded feature-sign search.

    A LassoProblem is solved as a batch of one, with index arange(k) over
    its gram.  The items of a LassoBatch run their rounds in lockstep, and
    each leaves the batch at its own stop, so its weights are bitwise those
    of its own batch of one.  The rounds read what they need of each item's
    gram (the diagonal, the gradient's product and the face grams) out of
    the pool through its index; over a row pool no whole gram is formed.

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
    weight.  `max_iters` counts each item's rounds.  Returns the weights
    shaped like `corr` and, as kkt_residual, the largest item residual.
    LassoConvergenceError names the first item, in batch order, whose rounds
    ran out, or that stopped at once because only zero-diagonal coordinates
    violate the conditions, and carries its last KKT residual.  Deterministic
    for fixed inputs.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValidationError(f"max_iters must be an int >= 0, got {max_iters!r}")
    single = isinstance(problem, LassoProblem)
    if single:
        at = np.arange(problem.corr.shape[0])[None]
        problem = LassoBatch(problem.gram, at, problem.corr[None], problem.l1_weight)
    corr, lam = problem.corr, problem.l1_weight
    w = np.zeros(corr.shape)
    kkt = np.zeros(corr.shape[0])
    failed_after = np.full(corr.shape[0], -1)  # rounds at an item's failure
    diag = _diagonal(problem)
    unusable = ~(diag > 0.0)
    pivot_floor = _SINGULAR_PIVOT * diag.max(axis=1, initial=0.0)
    live = np.arange(corr.shape[0])
    rounds = 0
    while live.size:
        x = w[live]
        grad = _gradients(problem, live, x)
        violation = _violations(x, grad, lam)
        kkt[live] = violation.max(axis=1, initial=0.0)
        going = kkt[live] > tol
        if not going.all():
            live, x, grad, violation = live[going], x[going], grad[going], violation[going]
            if not live.size:
                break
        if rounds >= max_iters:
            failed_after[live] = rounds
            break
        rounds += 1
        violation[unusable[live]] = -np.inf
        best = np.argmax(violation, axis=1)
        theta = np.sign(x)
        joins = np.where(theta != 0.0, violation, 0.0).max(axis=1) <= tol
        # only zero-diagonal coordinates violate: no step helps
        stuck = joins & (violation[np.arange(live.size), best] <= tol)
        if stuck.any():
            failed_after[live[stuck]] = rounds
            # items after the first failure cannot change the outcome
            keep = ~stuck & (live < np.flatnonzero(failed_after >= 0)[0])
            live, x, grad, theta, best, joins = (
                a[keep] for a in (live, x, grad, theta, best, joins)
            )
        at = np.flatnonzero(joins)
        theta[at, best[at]] = -np.sign(grad[at, best[at]])
        moved = _face_steps(problem, w, live, x, theta, np.where(joins, best, -1), pivot_floor)
        if not moved.all():
            # rounding dust: exactly minimize the worst violator alone
            at = np.flatnonzero(~moved)
            b, j = live[at], best[at]
            z = diag[b, j] * x[at, j] - grad[at, j]
            w[b, j] = np.sign(z) * np.maximum(np.abs(z) - 0.5 * lam, 0.0) / diag[b, j]
    failed = np.flatnonzero(failed_after >= 0)
    if failed.size:
        item = int(failed[0])
        raise LassoConvergenceError(
            f"lasso did not reach KKT residual {tol:g} "
            f"(last residual {kkt[item]:g} after {failed_after[item]} rounds)",
            kkt_residual=float(kkt[item]),
            item=item,
        )
    return LassoSolution(w[0] if single else w, float(kkt.max(initial=0.0)))


def _groups(counts):
    """(count, rows) for each distinct count; rows is a slice when all agree."""
    distinct = sorted(set(counts.tolist()))
    if len(distinct) == 1:
        return [(distinct[0], slice(None))]
    return [(count, np.flatnonzero(counts == count)) for count in distinct]


# The two pool kinds differ only in how pool_gram, _diagonal and _gradients
# form gram entries and products.

def pool_gram(pool, left, right=None) -> np.ndarray:
    """(..., m, n) gram entries between the pool members left (..., m) and
    right (..., n), by default left itself: over a RowPool, one product of
    one gather, which numpy forms exactly symmetric."""
    if isinstance(pool, RowPool):
        rows = pool.vectors[left]
        return rows @ (rows if right is None else pool.vectors[right]).swapaxes(-1, -2)
    return pool[left[..., :, None], (left if right is None else right)[..., None, :]]


def _diagonal(batch) -> np.ndarray:
    """(B, k) gram diagonals: pool entries, or squared norms of pooled rows."""
    if isinstance(batch.pool, RowPool):
        vectors = batch.pool.vectors
        return np.einsum("ij,ij->i", vectors, vectors)[batch.index]
    return batch.pool[batch.index, batch.index]


def _gradients(batch, live, x) -> np.ndarray:
    """gram @ x - corr for the live items, formed from their active coordinates.

    Over a gram pool the product sums the gram's active columns.  Over a row
    pool it is A (A'x): A'x sums the active rows, and one stacked product
    with each item's k rows of width d takes k d per item, with no gram
    formed.  Items with one number of active coordinates are done together,
    so each item's arithmetic is that of its own.
    """
    grad = -batch.corr[live]
    counts = (x != 0.0).sum(axis=1)
    rowpool = isinstance(batch.pool, RowPool)
    if rowpool:
        vectors = batch.pool.vectors
        half = np.zeros((live.size, vectors.shape[1]))  # A'x
    for count, rows in _groups(counts):
        if count == 0:
            continue
        items, xr = live[rows], x[rows]
        active = np.nonzero(xr)[1].reshape(items.size, count)
        xa = xr[np.arange(items.size)[:, None], active][:, None, :]
        members = batch.index[items[:, None], active]
        if rowpool:  # (items, count, d): the active rows
            half[rows] = np.matmul(xa, vectors[members])[:, 0]
        else:  # (items, count, k): row c holds the gram's row active[:, c]
            grad[rows] += np.matmul(xa, pool_gram(batch.pool, members, batch.index[items]))[:, 0]
    if rowpool:
        moving = np.flatnonzero(counts)
        gathered = vectors[batch.index[live[moving]]]  # (moving items, k, d)
        grad[moving] += np.matmul(gathered, half[moving, :, None])[:, :, 0]
    return grad


def _face_steps(batch, w, live, x, theta, joining, pivot_floor) -> np.ndarray:
    """Move each live item's weights toward a lower objective on its sign face.

    Row r is item live[r], with weights x[r] (a copy of w[live[r]]), signs
    theta[r] and joining coordinate joining[r] (-1 for none).  The target
    is the face minimizer, or on a singular face the swap step's first zero
    crossing.  Items with one face size share one stacked Cholesky
    factorization, so each item's arithmetic is that of its own.  Writes the
    moved items' weights into w and returns which rows moved; a row without
    a target, or where no candidate point lowers the objective, keeps its
    weights.
    """
    moved = np.zeros(live.size, dtype=bool)
    for size, rows in _groups((theta != 0.0).sum(axis=1)):
        rows = np.arange(live.size)[rows]
        items = live[rows]
        face = np.nonzero(theta[rows])[1].reshape(rows.size, size)
        fgram = pool_gram(batch.pool, batch.index[items[:, None], face])
        fx = x[rows[:, None], face]
        fcorr = batch.corr[items[:, None], face]
        rhs = fcorr - 0.5 * batch.l1_weight * theta[rows[:, None], face]
        chol, found = _cholesky(fgram, pivot_floor[items])
        if found.all():
            target = _cholesky_solve(chol, rhs)
        else:
            target = np.zeros_like(fx)
            target[found] = _cholesky_solve(chol[found], rhs[found])
            for i in np.flatnonzero(~found & (joining[rows] >= 0)):
                swap = _swap_target(fgram[i], face[i] == joining[rows[i]], fx[i],
                                    theta[rows[i], joining[rows[i]]], pivot_floor[items[i]])
                if swap is not None:
                    target[i], found[i] = swap, True
            rows, items, face, fgram, fcorr, fx, target = (
                a[found] for a in (rows, items, face, fgram, fcorr, fx, target)
            )
        points, lower = _line_search(fgram, fcorr, batch.l1_weight, fx, target)
        moved[rows] = lower
        w[items[lower, None], face[lower]] = points[lower]
    return moved


def _cholesky(grams, pivot_floor):
    """Cholesky factors of stacked grams, and which are numerically nonsingular."""
    try:
        chol = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:  # some gram is not positive definite
        chol = np.zeros(grams.shape)
        for i, gram in enumerate(grams):
            try:
                chol[i] = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                pass  # zero pivots mark it singular
    pivots = np.diagonal(chol, axis1=1, axis2=2).min(axis=1, initial=np.inf)
    return chol, pivots**2 > pivot_floor


def _cholesky_solve(chol, rhs):
    """x with L L' x = rhs, for stacked factors L and right-hand sides."""
    half = np.linalg.solve(chol, rhs[:, :, None])
    return np.linalg.solve(np.swapaxes(chol, 1, 2), half)[:, :, 0]


def _swap_target(fgram, joins, x, sign, pivot_floor):
    """First zero crossing of the swap step on a singular face, or None.

    `joins` marks the joining coordinate, which enters with `sign`, among
    the face's coordinates `x`.
    """
    rest = ~joins
    chol, found = _cholesky(fgram[np.ix_(rest, rest)][None], pivot_floor)
    if not found[0]:
        return None
    # the joining column is (numerically) this combination of the others
    combo = _cholesky_solve(chol, fgram[rest][:, joins].T)[0]
    direction = np.full(x.size, sign)
    direction[rest] *= -combo
    heading = np.flatnonzero(x * direction < 0.0)
    if heading.size == 0:
        return None
    ratios = -x[heading] / direction[heading]
    first = int(np.argmin(ratios))
    target = x + ratios[first] * direction
    target[heading[first]] = 0.0
    return target


def _line_search(fgram, fcorr, lam, x, target):
    """Per row, the lowest-objective candidate on the segment from x to
    target, and whether it is lower than x's.

    The candidates are the target and each zero crossing on the way, where
    the crossing coordinate is exactly 0.  Rows with one number of crossings
    are evaluated together, so each row's values are those of its own.
    """
    crossing = x * target < 0.0
    best_points, lower = np.empty_like(x), np.empty(x.shape[0], dtype=bool)
    for count, rows in _groups(crossing.sum(axis=1)):
        xs, ts = x[rows], target[rows]
        at = np.arange(xs.shape[0])[:, None]
        # candidate points: 0 is x itself, then each zero crossing, then target
        cross = np.nonzero(crossing[rows])[1].reshape(xs.shape[0], count)
        steps = np.zeros((xs.shape[0], count + 2))
        steps[:, 1:-1] = xs[at, cross] / (xs[at, cross] - ts[at, cross])
        steps[:, -1] = 1.0
        points = xs[:, None, :] + steps[:, :, None] * (ts - xs)[:, None, :]
        points[at, np.arange(1, count + 1), cross] = 0.0
        values = (
            np.einsum("bij,bij->bi", points @ fgram[rows], points)
            - 2.0 * (points @ fcorr[rows][:, :, None])[:, :, 0]
            + lam * np.abs(points).sum(axis=2)
        )
        best = 1 + np.argmin(values[:, 1:], axis=1)
        best_points[rows] = points[at[:, 0], best]
        lower[rows] = values[at[:, 0], best] < values[:, 0]
    return best_points, lower


def kkt_residual(problem: LassoProblem, weights: np.ndarray) -> float:
    """Stationarity residual of arbitrary weights, recomputed from problem data.

    Independent of the solver path, so it doubles as an after-the-fact
    certificate.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != problem.corr.shape[0]:
        raise ValidationError(
            f"got {w.shape[0]} weights for a {problem.corr.shape[0]}-variable problem"
        )
    grad = problem.gram @ w - problem.corr
    return float(_violations(w, grad, problem.l1_weight).max(initial=0.0))


def verify_kkt(problem: LassoProblem, solution: LassoSolution, tol: float) -> bool:
    """True iff the solution satisfies the stationarity conditions within tol."""
    return kkt_residual(problem, solution.weights) <= tol
