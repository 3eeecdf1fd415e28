"""L1-regularized least squares over pooled grams or rows, with a KKT certificate.

Every structure subproblem here shares one design matrix restricted to a
small neighborhood, so problems are posed through the correlation vector
A'b, a pool that holds the design once, and the neighborhood's index into
it: the pool is either one Gram matrix whose entries the neighborhoods
index (the tags' D'D), or the design's rows themselves, whose dot products
are the gram entries (the image features).  pool_gram reads gram entries
out of either pool; structure._far_violations multiplies a row pool's
vectors itself, for gradients A(A'w - b) with no gram entry.  Over a gram
pool, a round's gradients are one sparse product of the live items'
weights with the whole pool.  Over rows,
the solver forms just the face grams and gradient A(A'x) - A'b it needs,
and no neighborhood's whole gram; it gathers the rows in slices of items
that hold at most half of _ROW_BUDGET each, so a batch of any size gathers
no more at once than that.  The
solver is feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006), an
exact active-set method: on a fixed sign pattern the objective is a
quadratic minimized by one Cholesky solve.  On a numerically singular pattern a LARS-style swap step
(Efron et al., 2004) trades one active coordinate for the joining one,
which makes the next pattern nonsingular again.  The problems of a batch
with one size run their rounds in lockstep, so that stacked factorizations
and line searches replace one small call per problem.  Each problem keeps
its active coordinates as a short sorted row of a padded array, and a round
reads its weights only there: the gradient's operands, the violations on
the active set and the next face come from those rows, and only the
gradient, with the gathers that form it, and the violations span all k
coordinates.  Any minimizer
returned is certified by the stationarity conditions, which is what
downstream code relies on: the minimizer of a convex problem is
characterized by its KKT residual, not by the algorithm that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The kernel that scipy's csr_matrix @ ndarray runs: a round's gradient calls
# it on the CSR arrays of the live items' active weights, skipping the
# matrix's construction and dispatch, about 30 us a round.
from scipy.sparse._sparsetools import csr_matvecs

from .core import TagCompleteError, ValidationError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10_000

# An active gram whose smallest squared Cholesky pivot is at most this
# fraction of the largest gram diagonal entry counts as singular: its face
# solve would amplify rounding error past any useful tolerance.
_SINGULAR_PIVOT = 1e-12

# Bytes that a lockstep batch over a RowPool holds in one kind of array.
# Callers size a batch with _batch_size, so that each of its (items, k)
# arrays and its (items, d) sums A'x fit the budget; each gather of rows
# takes the batch's items in slices of at most half of it (see _slices).
# So what a batch holds in all is a fixed number of budget-sized arrays and
# one gather, whatever its number of items.
_ROW_BUDGET = 2 << 20


def _batch_size(k: int, d: int) -> int:
    """How many items, at least 1, a lockstep batch on k neighbors over rows
    of width d holds: their (items, max(k, d)) arrays of 8-byte entries fit
    _ROW_BUDGET."""
    return max(1, _ROW_BUDGET // (8 * max(k, d)))


class LassoConvergenceError(TagCompleteError, RuntimeError):
    """An item's rounds ran out; carries its last KKT residual and its index:
    in the batch, or in the whole build when a structure builder re-raises it."""

    def __init__(self, message: str, kkt_residual: float, item: int):
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
    """Stationarity violation per coordinate, |2 grad + lam theta| less lam
    where theta = 0, for theta = sign(weights); grad must equal
    gram @ weights - corr."""
    theta = np.sign(weights)
    violation = 2.0 * grad
    violation += lam * theta
    np.abs(violation, out=violation)
    return np.subtract(violation, lam, out=violation, where=theta == 0.0)


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
    gram (the diagonal and the face grams) out of the pool through its
    index, and form the gradients from the whole pool (see _gradients);
    over a row pool no whole gram is formed.

    Each live item's active coordinates are kept in ascending order in one
    row of a small padded array, with pads equal to k, and its weights are
    read only there.  A round forms the gradient from those rows and
    weights, takes the violations as |2 grad| - l1_weight over all k
    coordinates and patches the active ones, and reads the joining
    coordinate, its sign and the items that stop before it filters the
    live items, so that it filters only per-item values and the compact
    rows.  The face is the active row with the joining coordinate sorted
    in, and the face step writes back its nonzero coordinates as the next
    active row.  Every sum runs in coordinate order, so the weights are
    bitwise those of rounds that read each active set off the whole row.

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
    k = corr.shape[1]
    w = np.zeros(corr.shape)
    kkt = np.zeros(corr.shape[0])
    failed_after = np.full(corr.shape[0], -1)  # rounds at an item's failure
    diag = _diagonal(problem)
    unusable = ~(diag > 0.0)
    any_unusable = unusable.any()
    pivot_floor = _SINGULAR_PIVOT * diag.max(axis=1, initial=0.0)
    del diag  # an (items, k) array: the rounding-dust step reads its few entries again
    live = np.arange(corr.shape[0])
    # row r of act: item live[r]'s active coordinates in ascending order,
    # among pads equal to k; the last column is a pad
    act = np.full((live.size, 1), k)
    rounds = 0
    while live.size:
        filled = act < k
        (at, _), coords = filled.nonzero(), act[filled]
        count = np.bincount(at, minlength=live.size)
        held = w[live[at], coords]
        grad = _gradients(problem, live, count, coords, held)
        violation = np.multiply(grad, 2.0)  # |2 grad| - lam off the active set
        np.abs(violation, out=violation)
        violation -= lam
        on = 2.0 * grad[at, coords]  # |2 grad + lam sign(w)| on it
        on += lam * np.sign(held)
        violation[at, coords] = np.abs(on, out=on)
        kkt[live] = top = violation.max(axis=1, initial=0.0)
        going = top > tol
        if not going.any():
            break
        if rounds >= max_iters:
            failed_after[live[going]] = rounds
            break
        rounds += 1
        keep = going
        if any_unusable:
            violation[unusable[live]] = -np.inf
        best = np.argmax(violation, axis=1)
        lead = grad[np.arange(live.size), best]
        joins = np.bincount(at[on > tol], minlength=live.size) == 0  # the active set is stationary
        if any_unusable:
            # only zero-diagonal coordinates violate: no step helps
            stuck = joins & going & (violation[np.arange(live.size), best] <= tol)
            if stuck.any():
                failed_after[live[stuck]] = rounds
                # items after the first failure cannot change the outcome
                keep = going & ~stuck & (live < np.flatnonzero(failed_after >= 0)[0])
        del grad, violation, filled, coords, at, held, on  # the round's arrays, before the step's
        if not keep.all():
            live, act, count, best, lead, joins = (
                a[keep] for a in (live, act, count, best, lead, joins)
            )
        act[:, -1] = np.where(joins, best, k)  # the joining coordinate into the pad
        act.sort(axis=1)
        moved = _face_steps(problem, w, live, act, count + joins, -np.sign(lead), pivot_floor)
        if not moved.all():
            # rounding dust: exactly minimize the worst violator alone
            at = np.flatnonzero(~moved)
            b, j = live[at], best[at]
            diag = _diagonal(problem._replace(index=problem.index[b, j][:, None]))[:, 0]
            z = diag * w[b, j] - lead[at]
            w[b, j] = np.sign(z) * np.maximum(np.abs(z) - 0.5 * lam, 0.0) / diag
            # j may lie outside the face: look for its weight there too
            act = np.concatenate([act, np.full((live.size, 1), k)], axis=1)
            act[at, -1] = np.where((act[at] == j[:, None]).any(axis=1), k, j)
            act[at] = np.where(w[b[:, None], np.minimum(act[at], k - 1)] != 0.0, act[at], k)
        if act[:, -1].min(initial=k) < k:
            act = np.concatenate([act, np.full((live.size, 1), k)], axis=1)
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

def _slices(pool, count: int, rows: int):
    """Slices of `count` stacked items, each item gathering `rows` rows of a
    RowPool, such that one slice's gather holds at most half of _ROW_BUDGET
    (at least one item per slice); all items in one slice over a gram pool.
    Each item's products are formed on its own rows, so they do not depend
    on the slicing."""
    step = count
    if isinstance(pool, RowPool):
        step = _ROW_BUDGET // 2 // (8 * max(rows * pool.vectors.shape[1], 1))
    step = max(step, 1)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def pool_gram(pool, left, right=None) -> np.ndarray:
    """(..., m, n) gram entries between the pool members left (..., m) and
    right (..., n), by default left itself: over a RowPool, one product of
    one gather, which numpy forms exactly symmetric.  Callers that pose a
    whole batch take its items in slices (see _slices)."""
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


def _gradients(batch, live, count, coords, weights) -> np.ndarray:
    """gram @ w - corr for the live items, formed from their active weights.

    Row r's active set is count[r] entries of coords and weights, in row
    order and ascending coordinate order within a row: the CSR form of the
    live items' weights.  Over a gram pool the gradient is one sparse
    product for all items, whatever their active counts: that CSR matrix,
    with each coordinate's pool member as its column and its row pointers
    the running sums of count, times the pool by scipy's csr_matvecs, read
    at each item's index with one flat take.  Each item's sum runs over its
    active coordinates in order, so its arithmetic is that of its own.
    Over a row pool it is A (A'x): A'x sums the active rows, and a stacked
    product with each item's k rows of width d takes k d per item, with no
    gram formed.  There, items with one number of active coordinates are
    done together, for the same reason, and both gathers, the active rows
    and the k neighbor rows, are taken in slices of items within half of
    _ROW_BUDGET (see _slices).  The sums A'x are one (items, d) array,
    which fits the budget in a batch of _batch_size items.
    """
    if not coords.size:
        return -batch.corr[live]
    members = batch.index[np.repeat(live, count), coords]
    if not isinstance(batch.pool, RowPool):
        size = batch.pool.shape[0]
        starts = np.zeros(live.size + 1, dtype=np.int32)
        np.cumsum(count, out=starts[1:])
        product = np.zeros((live.size, size))
        csr_matvecs(live.size, size, size, starts, members.astype(np.int32), weights,
                    batch.pool.ravel(), product.ravel())
        near = batch.index[live]
        near += np.arange(0, live.size * size, size)[:, None]  # into the flat product
        grad = product.take(near)
        del product  # before the correlations are gathered
        grad -= batch.corr[live]  # bitwise -corr + product: x - y is x + (-y)
        return grad
    grad = -batch.corr[live]
    pool, vectors = batch.pool, batch.pool.vectors
    half = np.zeros((live.size, vectors.shape[1]))  # A'x
    starts = np.cumsum(count) - count
    for active, rows in _groups(count):
        if active == 0:
            continue
        rows = np.arange(live.size)[rows]
        at = starts[rows, None] + np.arange(active)
        xa, rows_of = weights[at][:, None, :], members[at]
        for part in _slices(pool, rows.size, active):
            half[rows[part]] = np.matmul(xa[part], vectors[rows_of[part]])[:, 0]
    moving = np.flatnonzero(count)
    for at in _slices(pool, moving.size, batch.index.shape[1]):
        part = moving[at]  # gathers (items, k, d), freed with the statement
        grad[part] += np.matmul(vectors[batch.index[live[part]]], half[part, :, None])[:, :, 0]
    return grad


def _face_steps(batch, w, live, face, size, signs, pivot_floor) -> np.ndarray:
    """Move each live item's weights toward a lower objective on its sign face.

    Row r is item live[r], whose face is its active set and, where one
    joins, the joining coordinate: size[r] coordinates, ascending in the
    first columns of face[r].  The face signs are those of the weights w,
    and signs[r] at the joining coordinate, the face's one zero weight.
    The target is the face minimizer, or on a singular face the swap step's
    first zero crossing.  Items with one face size share one stacked
    Cholesky factorization, so each item's arithmetic is that of its own;
    over a row pool they go in slices whose face rows fit half of
    _ROW_BUDGET (see _slices), so that the face grams and every array
    formed from them stay within it too.  Writes the moved items' face
    weights into w, and into face[r] their nonzero coordinates, in order,
    with k in place of each zero: row r's next active set.  Returns which
    rows moved; a row without a target, or where no candidate point lowers
    the objective, keeps its weights and its face.
    """
    moved, k = np.zeros(live.size, dtype=bool), batch.index.shape[1]
    for width, group in _groups(size):
        group = np.arange(live.size)[group]
        for part in _slices(batch.pool, group.size, width):
            rows = group[part]
            items = live[rows]
            on = face[rows, :width]
            fgram = pool_gram(batch.pool, batch.index[items[:, None], on])
            fx = w[items[:, None], on]
            fcorr = batch.corr[items[:, None], on]
            joining = fx == 0.0
            theta = np.sign(fx)
            np.copyto(theta, signs[rows, None], where=joining)
            rhs = fcorr - 0.5 * batch.l1_weight * theta
            chol, found = _cholesky(fgram, pivot_floor[items])
            if found.all():
                target = _cholesky_solve(chol, rhs)
            else:
                target = np.zeros_like(fx)
                target[found] = _cholesky_solve(chol[found], rhs[found])
                for i in np.flatnonzero(~found & joining.any(axis=1)):
                    swap = _swap_target(fgram[i], joining[i], fx[i], signs[rows[i]],
                                        pivot_floor[items[i]])
                    if swap is not None:
                        target[i], found[i] = swap, True
                rows, items, on, fgram, fcorr, fx, target = (
                    a[found] for a in (rows, items, on, fgram, fcorr, fx, target)
                )
            points, lower = _line_search(fgram, fcorr, batch.l1_weight, fx, target)
            moved[rows] = lower
            if not lower.all():
                rows, items, on, points = rows[lower], items[lower], on[lower], points[lower]
            w[items[:, None], on] = points
            face[rows, :width] = np.where(points != 0.0, on, k)
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
