"""Local linear reconstruction structures over images and tags.

Each image row (or tag column) is approximated as a sparse combination of its
k nearest neighbors by solving a small L1-regularized least-squares problem;
the learned weights populate one row of the image structure matrix (or one
column of the tag structure matrix).  Both sides pose their lassos the same
way, as a lasso pool (the feature rows, or the tags' gram D'D) and one
neighbor list per item.  The completion solver then penalizes
factorizations that break these reconstructions.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .core import (
    DimensionMismatchError,
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
    check_structure_sizes,
    normalize_rows,
)
from .lasso import (
    LassoBatch,
    LassoConvergenceError,
    RowPool,
    _batch_size,
    _slices,
    _violations,
    pool_gram,
    solve_lasso,
)

_BLOCK = 64  # items per _BLOCK x n product: knn preselection, KKT gradients


def _check_neighbors(neighbors, size: int, side: str) -> None:
    """DimensionMismatchError unless the neighbor lists hold one row per
    item, a `side` ("image" or "tag"), and ValidationError naming the first
    item with an entry outside [0, size) and that entry, or else the first
    item listed among its own neighbors, or else the first item with an
    entry listed twice and that entry."""
    if len(neighbors) != size:
        raise DimensionMismatchError(
            f"neighbors has {len(neighbors)} rows but there are {size} {side}s"
        )
    outside = (neighbors < 0) | (neighbors >= size)
    if outside.any():
        item = int(np.flatnonzero(outside.any(axis=1))[0])
        raise ValidationError(
            f"neighbors of {side} {item} include {neighbors[item][outside[item]][0]}, "
            f"outside 0..{size - 1}"
        )
    own = neighbors == np.arange(size)[:, None]
    if own.any():
        item = int(np.flatnonzero(own.any(axis=1))[0])
        raise ValidationError(f"neighbors of {side} {item} include {side} {item} itself")
    ordered = np.sort(neighbors, axis=1)
    repeated = ordered[:, 1:] == ordered[:, :-1]
    if repeated.any():
        item = int(np.flatnonzero(repeated.any(axis=1))[0])
        entry = ordered[item, 1:][repeated[item]][0]
        raise ValidationError(f"neighbors of {side} {item} include {side} {entry} twice")


def _check_population(n: int, k: int) -> None:
    if n < 2:
        raise ValidationError("need at least 2 vectors to build a neighbor index")
    if k < 1:
        raise ValidationError("k must be >= 1")


@np.errstate(over="ignore", invalid="ignore")  # overflow makes delta inf, below
def knn_index(vectors, k: int) -> np.ndarray:
    """Exact euclidean k-nearest-neighbor lists, self excluded, as the rows
    of an integer array of shape (population, min(k, population - 1)).

    Each row is sorted by ascending distance with ties broken by ascending
    index.  A matrix product per block of query rows gives approximate
    squared distances |x|^2 + |y|^2 - 2 x.y.  A row whose k + 1 smallest
    are finite and lie more than a rounding margin apart takes its order
    from them.  In any other row, the items within the margin of its k-th
    smallest are ranked by the exact sqrt(sum((y - x)^2)).  So the lists
    equal those of a full exact scan."""
    pts = np.ascontiguousarray(np.asarray(vectors, dtype=float))
    if pts.ndim != 2:
        raise ValidationError(f"vectors must be 2-D, got ndim={pts.ndim}")
    n, dim = pts.shape
    _check_population(n, k)
    if not np.all(np.isfinite(pts)):
        raise ValidationError("vectors contain non-finite values")

    take = min(k, n - 1)
    sq = np.einsum("ij,ij->i", pts, pts)
    # Rounding puts the approximate squared distance, and the einsum of the
    # difference, each within delta/4 of the true squared distance, which
    # is at most 4 max|x|^2.  For the approximation, the two squared norms
    # and the doubled product carry at most 4 dim eps max|x|^2, and each of
    # the two additions, in either order, one rounding of a partial sum
    # within 4 max|x|^2.  delta is inf when the product could overflow.
    fp = np.finfo(float)
    delta = 4 * (dim + 2) * (fp.eps * (4.0 * sq.max()) + fp.smallest_subnormal)
    neighbors = np.empty((n, take), dtype=np.intp)
    approx = np.empty((min(_BLOCK, n), n))  # every block's distances, in turn
    for start in range(0, n, _BLOCK):
        neighbors[start:start + _BLOCK] = _block_neighbors(pts, sq, start, take, delta, approx)
    return neighbors


def _block_neighbors(pts, sq, start, take, delta, approx) -> np.ndarray:
    """knn_index's lists for the _BLOCK query rows from pts[start], with
    their approximate squared distances formed in the buffer `approx`.

    A row whose `head` = take + 1 smallest approximations (all others when
    take = n - 1) are finite and more than 4 delta apart is settled: as
    each approximation and each computed exact squared distance lies
    within delta/4 of the true one, the exact ones keep gaps above 3 delta.
    So no other item enters its first `take`, their order is that of the
    approximations, and since 3 delta is far above the spacing at which two
    squared distances' roots could round to one value, the roots do not tie
    and index tie-breaking never applies.  Any other row, with near or
    exact ties or with delta inf, ranks by exact distance the items within
    2 delta of its take-th smallest approximation.
    """
    stop = min(start + _BLOCK, pts.shape[0])
    approx = np.matmul(pts[start:stop], pts.T, out=approx[:stop - start])
    approx *= -2.0
    approx += sq[start:stop, None]
    approx += sq
    np.fill_diagonal(approx[:, start:], np.inf)
    head = min(take + 1, pts.shape[0] - 1)
    near = np.argpartition(approx, head - 1, axis=1)[:, :head]
    dist = np.take_along_axis(approx, near, axis=1)
    order = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=1)
    lists = np.take_along_axis(near, order[:, :take], axis=1)
    settled = np.isfinite(dist).all(axis=1) & (np.diff(dist, axis=1) > 4.0 * delta).all(axis=1)
    cutoff = dist[:, take - 1] + 2.0 * delta
    for at in np.flatnonzero(~settled):
        lists[at] = _exact_rank(pts, start + at, ~(approx[at] > cutoff[at]), take)
    return lists


def _exact_rank(pts, item, keep, take) -> np.ndarray:
    """The first `take` of the candidates `keep` (a mask over pts) ranked by
    exact distance from pts[item], ties broken by ascending index."""
    keep[item] = False
    cand = np.flatnonzero(keep)
    diff = pts[cand]
    diff -= pts[item]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return cand[np.lexsort((cand, dist))[:take]]


def _reconstruction_matrix(vectors, neighbors, l1_weight, tol) -> sp.csr_matrix:
    """Row i holds the weights of the lasso that rebuilds vectors[i] from its
    k neighbors, KKT-certified within tol over all k.

    `neighbors` is (items, k).  Items are solved in lockstep batches of
    lasso._batch_size(k, d) on their nearest W = min(k, d) neighbors (all k
    when d = 0), each batch then checked at its k - W far neighbors.  After
    the last, the far violators of every batch are solved again at full k,
    in ascending order and batches of the same size.  Every gather of rows
    takes slices within half of lasso._ROW_BUDGET (see lasso._slices).
    Each solve keeps only its nonzero triples, and the CSR matrix is formed
    from them once, after the last.
    """
    size, k = neighbors.shape
    width = min(k, vectors.shape[1]) or k
    step = _batch_size(k, vectors.shape[1])
    pool, again, parts = RowPool(vectors), np.zeros(size, dtype=bool), []
    for start in range(0, size, step):
        items = np.arange(start, min(start + step, size))
        parts.append(_near_entries(pool, neighbors[start:start + step], items,
                                   width, l1_weight, tol, again))
    redo = np.flatnonzero(again)
    for start in range(0, redo.size, step):
        items = redo[start:start + step]
        parts.append(_entries(_solve(pool, neighbors[items], items, l1_weight, tol),
                              neighbors[items], items))
    data, cols, counts, items = (np.concatenate(part) for part in zip(*parts))
    return sp.csr_matrix((data, (np.repeat(items, counts), cols)), shape=(size, size))


def _near_entries(pool, nb, items, width, l1_weight, tol, again):
    """_entries of `items` solved on their nearest `width` neighbors in nb,
    the batch's arrays dropped on return.  When width < k, the items with a
    far KKT violation above tol are marked in `again` and keep no entries."""
    weights = _solve(pool, nb[:, :width], items, l1_weight, tol)
    if width < nb.shape[1]:
        again[items] = far = _far_violations(pool, items, nb, weights, l1_weight) > tol
        weights[far] = 0.0
    return _entries(weights, nb[:, :width], items)


def _entries(weights, nb, items):
    """One solve's triples: its nonzero weights in row order, their neighbor
    indices out of nb, the count per row, and the rows' item ids."""
    nz = weights != 0.0
    return weights[nz], nb[nz], nz.sum(axis=1), items


def _solve(pool, nb, items, l1_weight, tol) -> np.ndarray:
    """Weights of the lassos that rebuild pool members `items` from their
    neighbor lists nb, as one LassoBatch with the gram entries between each
    item's neighbors and itself as correlations.  An item whose rounds run
    out is re-raised as a LassoConvergenceError whose `item` counts over the
    whole build.  Over rows, the correlations are formed in slices of items
    (see lasso._slices)."""
    corr = np.empty(nb.shape)
    for at in _slices(pool, items.size, nb.shape[1] + 1):
        corr[at] = pool_gram(pool, nb[at], items[at, None])[:, :, 0]
    try:
        return solve_lasso(LassoBatch(pool, nb, corr, l1_weight), tol).weights
    except LassoConvergenceError as exc:
        item = int(items[exc.item])
        raise LassoConvergenceError(
            f"reconstruction subproblem for item {item} did not converge "
            f"(KKT residual {exc.kkt_residual:g})",
            exc.kkt_residual,
            item,
        ) from exc


def _far_violations(pool, items, nb, near, l1_weight) -> np.ndarray:
    """Per item, the largest KKT violation at its neighbors past the
    near.shape[1] nearest, where its weights are zero.

    Item i's weights `near` on its nearest rows A give the residual
    r = A'w - vectors[i], and each far row a its gradient a.r and violation
    |2 a.r| - l1_weight.  The items are taken in slices whose k neighbor
    rows fit half of lasso._ROW_BUDGET (see lasso._slices), the near rows
    gathered and freed before the far ones.
    """
    vectors, width = pool.vectors, near.shape[1]
    worst = np.empty(items.size)
    for at in _slices(pool, items.size, nb.shape[1]):
        resid = np.matmul(near[at, None, :], vectors[nb[at, :width]])[:, 0] - vectors[items[at]]
        grad = np.matmul(vectors[nb[at, width:]], resid[:, :, None])[:, :, 0]
        worst[at] = np.abs(2.0 * grad).max(axis=1) - l1_weight
    return worst


def combined_feature_rows(features: FeatureMatrix, tags: TaggingMatrix | None):
    """Row vectors the image structure is built on.

    Rows are L2-normalized so euclidean nearness is rank-equivalent to cosine
    similarity and insensitive to feature scale.  When a tagging matrix is
    supplied its 0/1 rows are appended to the raw features first (the
    tags-as-features variant), then the combined rows are normalized.
    """
    X = features.data
    if tags is not None:
        if tags.n_images != features.n_images:
            raise ValidationError(
                f"tagging matrix has {tags.n_images} images "
                f"but feature matrix has {features.n_images}"
            )
        X = np.hstack([X, tags.to_dense()])
    return normalize_rows(X)


def build_feature_structure(
    features: FeatureMatrix,
    hp: Hyperparams,
    tags: TaggingMatrix | None = None,
    *,
    neighbors: np.ndarray | None = None,
) -> StructureMatrix:
    """Learn the image-side reconstruction matrix.

    Row n holds the lasso coefficients (L1 weight hp.alpha) that rebuild
    image n's feature row from its hp.knn_k nearest neighbors; all other
    entries, including the diagonal, are structurally zero.  `neighbors`,
    when given, must be knn_index(combined_feature_rows(features, tags),
    hp.knn_k); by default it is computed here.  Passed-in lists without one
    row per image raise DimensionMismatchError, and an entry outside the
    image indices, an image among its own neighbors or an entry listed
    twice, ValidationError naming the image.

    Rows of width d have rank at most d, so each lasso is first solved on
    the nearest W = min(k, d) neighbors (all k when d = 0), and solved
    again at full k only when a farther neighbor violates its KKT
    conditions.  Every row's solution is KKT-certified over all k neighbors.
    Deterministic for fixed inputs.  The build solves every image on its
    near neighbors first, in one lockstep batch unless the (images, k) or
    (images, d) entries outgrow lasso._ROW_BUDGET, then the full-k
    re-solves in ascending item order; a LassoConvergenceError names the
    first failing item in that order.
    """
    vectors = combined_feature_rows(features, tags)
    if neighbors is None:
        neighbors = knn_index(vectors, hp.knn_k)
    else:
        _check_neighbors(neighbors, vectors.shape[0], "image")
    return StructureMatrix(_reconstruction_matrix(vectors, neighbors, hp.alpha, hp.lasso_tol))


def _tag_gram(D: TaggingMatrix) -> np.ndarray:
    """G = D'D, M x M, of a binary tagging matrix; every entry is an exact
    integer, so G holds every tag gram, correlation and distance exactly."""
    data = D.matrix.data
    bad = np.flatnonzero((data != 0.0) & (data != 1.0))
    if bad.size:
        row = np.searchsorted(D.matrix.indptr, bad[0], side="right") - 1
        raise ValidationError(
            f"the tag structure needs a binary tagging matrix, but D stores "
            f"{float(data[bad[0]])!r} at image {row}, tag {D.matrix.indices[bad[0]]}"
        )
    return (D.matrix.T.tocsr() @ D.matrix).toarray()  # C order, as _gradients reads it


def _tag_neighbors(G: np.ndarray, k: int) -> np.ndarray:
    """knn_index(D.T, k), an (M, min(k, M - 1)) array, read from G = D'D.

    The squared distances g_ii + g_jj - 2 g_ij are exact integers, and a
    stable sort breaks their ties by ascending index, as knn_index does."""
    _check_population(G.shape[0], k)
    sq = np.diagonal(G)
    dist = sq[:, None] + sq - 2.0 * G
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :min(k, G.shape[0] - 1)]


def tag_neighbors(D: TaggingMatrix, k: int) -> np.ndarray:
    """The k nearest tag columns of each tag of a binary tagging matrix,
    knn_index(D.T, k), read from G = D'D as build_tag_structure reads them."""
    return _tag_neighbors(_tag_gram(D), k)


def build_tag_structure(
    D: TaggingMatrix, hp: Hyperparams, *, neighbors: np.ndarray | None = None
) -> StructureMatrix:
    """Learn the tag-side reconstruction matrix.

    Column m holds the lasso coefficients (L1 weight hp.mu) that rebuild tag
    column m of the tagging matrix from its hp.knn_k nearest tag columns.
    D must be binary (ValidationError otherwise).  Neighbors, grams and
    correlations are all read out of one G = D'D, and every tag's lasso runs
    in one lockstep batch with G as its pool; T is formed from its nonzero
    weights with each tag's neighbors as the rows.  `neighbors`, when
    given, must be tag_neighbors(D, hp.knn_k); by default they are read
    from G here, and passed-in lists are checked as build_feature_structure
    checks them.  Tags that no image carries get a warning and, since their
    lasso target is zero, an all-zero column.
    """
    G = _tag_gram(D)
    if neighbors is None:
        neighbors = _tag_neighbors(G, hp.knn_k)
    else:
        _check_neighbors(neighbors, G.shape[0], "tag")
    empty = np.diagonal(G) == 0.0
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} tag column(s) are all-zero; "
            "their reconstruction weights are set to zero",
            stacklevel=2,
        )
    tags = np.arange(G.shape[0])
    weights = _solve(G, neighbors, tags, hp.mu, hp.lasso_tol)
    data, rows, counts, _ = _entries(weights, neighbors, tags)
    return StructureMatrix(sp.csr_matrix((data, (rows, np.repeat(tags, counts))), shape=G.shape))


def reinitialize(
    D: TaggingMatrix, S: StructureMatrix, T: StructureMatrix
) -> TaggingMatrix:
    """Blend neighbor-propagated scores: (S @ D + D @ T) / 2.

    Output is real-valued; the input matrix is not modified.  Raises
    ValidationError when a D with nonzero entries blends to all zeros, since
    fitting that blend would report a meaningless all-zero completion.
    """
    check_structure_sizes(D, S, T)
    blended = (S.matrix @ D.matrix + D.matrix @ T.matrix) * 0.5
    if np.any(D.matrix.data) and not np.any(blended.data):
        raise ValidationError(
            "reinitialization blends the nonzero tagging matrix to all zeros: "
            "the structures put no weight on any tagged image or tag; "
            "fit the tagging matrix directly instead (--no-reinit)"
        )
    return TaggingMatrix(blended)


def _kkt_per_item(vectors, weights, l1_weight, neighbors, side):
    """Recomputed KKT residual per item, whose lasso rebuilds vectors[i] from
    vectors[neighbors[i]] with the weights in row i of `weights`, a canonical
    CSR matrix that stores no zeros.  DimensionMismatchError unless weights
    hold one row per item, a `side` ("image" or "tag"); the caller searched
    the neighbor lists or checked them (_check_neighbors).

    The gradient gram @ w - corr is A (A'w - b), formed with no gram: per
    block of _BLOCK items, a sparse product of its slice of rows gives their
    A'w - b, and one product of those with all rows is read at the neighbor
    positions, as are the slice's weights, made dense.  inf when weight sits
    outside the neighborhood: fewer weights are read than the row stores.
    """
    size = vectors.shape[0]
    if weights.shape[0] != size:
        raise DimensionMismatchError(
            f"{side} structure has {weights.shape[0]} rows but there are {size} {side}s"
        )
    stored = np.diff(weights.indptr)
    residuals = np.empty(size)
    for start in range(0, size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block, nb = weights[rows], neighbors[rows]
        resid = block @ vectors - vectors[rows]
        grad = np.take_along_axis(resid @ vectors.T, nb, axis=1)
        w = np.take_along_axis(block.toarray(), nb, axis=1)
        residuals[rows] = _violations(w, grad, l1_weight).max(axis=1, initial=0.0)
        residuals[rows][np.count_nonzero(w, axis=1) < stored[rows]] = np.inf
    return residuals


def feature_structure_kkt(
    features: FeatureMatrix,
    structure: StructureMatrix,
    hp: Hyperparams,
    tags: TaggingMatrix | None = None,
    *,
    neighbors: np.ndarray | None = None,
) -> np.ndarray:
    """Re-certify each row of an image structure matrix from scratch.

    Returns one stationarity residual per image, recomputed from the
    feature rows and the weights alone; rows reconstructed by
    build_feature_structure stay within hp.lasso_tol.  The neighborhoods
    are rebuilt unless `neighbors` passes the build's own, as
    build_feature_structure takes them; then the check covers the weights
    but not the neighbor search.  DimensionMismatchError unless the
    structure has one row per image; passed-in lists are checked as
    build_feature_structure checks them, and lists searched here are not.
    """
    vectors = combined_feature_rows(features, tags)
    if neighbors is None:
        neighbors = knn_index(vectors, hp.knn_k)
    else:
        _check_neighbors(neighbors, vectors.shape[0], "image")
    return _kkt_per_item(vectors, structure.matrix, hp.alpha, neighbors, "image")


def tag_structure_kkt(
    D: TaggingMatrix,
    structure: StructureMatrix,
    hp: Hyperparams,
    *,
    neighbors: np.ndarray | None = None,
) -> np.ndarray:
    """Re-certify each column of a tag structure matrix from scratch.

    The neighbor lists are recomputed from G = D'D, as build_tag_structure
    reads them, unless `neighbors` passes the build's own; then the check
    covers the weights but not the neighbor search.  D must be binary only
    for that search: each gradient is formed from the columns of D, passed
    as rows with T's columns as the rows of the weights, so the certificate
    does not rest on G's grams.  An all-zero tag column with zero weights is
    its lasso's exact answer and reports residual 0.  DimensionMismatchError
    unless the structure has one row per tag; passed-in lists are checked
    as build_tag_structure checks them, and lists searched here are not.
    """
    if neighbors is None:
        neighbors = tag_neighbors(D, hp.knn_k)
    else:
        _check_neighbors(neighbors, D.n_tags, "tag")
    cols = D.matrix.T.toarray(order="C")
    return _kkt_per_item(cols, structure.matrix.T.tocsr(), hp.mu, neighbors, "tag")
