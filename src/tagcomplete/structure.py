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
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
    check_structure_sizes,
    normalize_rows,
)
from .lasso import LassoBatch, LassoConvergenceError, RowPool, _violations, pool_gram, solve_lasso

_BLOCK = 64  # items per _BLOCK x n product: knn preselection, KKT gradients

# Bytes of neighbor rows that one lockstep batch of the image structure build
# gathers in a round.  A chunk holds _batch_size(W, d) items, each solved on
# its W = min(k, d) nearest neighbors of width d; the full-k check after it
# gathers the k - W far rows in slices of at most this size, and items solved
# again at full k go in batches of _batch_size(k, d).  The tag build reads
# its grams out of D'D, in one batch at full k.
_ROW_BUDGET = 2 << 20


def _batch_size(rows: int, dim: int) -> int:
    """How many groups of `rows` rows of width `dim` fit in _ROW_BUDGET, at
    least 1: the items of a batch of lassos on `rows` neighbors, or the far
    neighbors per slice of a chunk of `rows` items."""
    return max(1, _ROW_BUDGET // (8 * rows * max(dim, 1)))


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
    squared distances |x|^2 + |y|^2 - 2 x.y.  The items within a rounding
    margin of a row's k-th smallest are ranked by the exact
    sqrt(sum((y - x)^2)), so the lists equal those of a full exact scan."""
    pts = np.ascontiguousarray(np.asarray(vectors, dtype=float))
    if pts.ndim != 2:
        raise ValidationError(f"vectors must be 2-D, got ndim={pts.ndim}")
    n, dim = pts.shape
    _check_population(n, k)
    if not np.all(np.isfinite(pts)):
        raise ValidationError("vectors contain non-finite values")

    take = min(k, n - 1)
    sq = np.einsum("ij,ij->i", pts, pts)
    # Rounding puts an approximate squared distance at most
    # 4(dim + 2)(eps max|x|^2 + tiny) from the exact one.  delta has fourfold
    # room, which covers squared distances a few ulps apart whose roots tie,
    # and is inf when the product could overflow: then every item is kept.
    fp = np.finfo(float)
    delta = 4 * (dim + 2) * (fp.eps * (4.0 * sq.max()) + fp.smallest_subnormal)
    neighbors = np.empty((n, take), dtype=np.intp)
    for start in range(0, n, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, n))
        approx = -2.0 * (pts[rows] @ pts.T)
        approx += sq[rows, None] + sq
        approx[rows - start, rows] = np.inf
        cutoff = np.partition(approx, take - 1, axis=1)[:, take - 1] + 2.0 * delta
        for i, row, limit in zip(rows, approx, cutoff):
            keep = ~(row > limit)
            keep[i] = False
            cand = np.flatnonzero(keep)
            diff = pts[cand]
            diff -= pts[i]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((cand, dist))[:take]
            neighbors[i] = cand[order]
    return neighbors


def _reconstruction_matrix(pool, neighbors, width, chunk, l1_weight, tol) -> sp.csr_matrix:
    """Row i holds the weights of the lasso that rebuilds pool member i from
    its k neighbors, KKT-certified within tol over all k.

    `neighbors` is (items, k).  Items are solved in lockstep runs of `chunk`
    by _chunk_entries, and each run keeps only its nonzero weights, in row
    order: the CSR data.
    """
    size = neighbors.shape[0]
    data, indices, counts = zip(*(
        _chunk_entries(pool, neighbors[start:start + chunk],
                       np.arange(start, min(start + chunk, size)), width, l1_weight, tol)
        for start in range(0, size, chunk)
    ))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(size, size)
    )


def _chunk_entries(pool, nb, items, width, l1_weight, tol):
    """The nonzero weights of pool members `items`, in row order, their
    neighbor indices out of nb, and their count per item.

    The items are first solved on their nearest `width` neighbors.  When
    width < k, which only a row pool is given, the items whose gradient at
    a far neighbor violates KKT by more than tol (see _far_violations) are
    solved again at full k, in batches of _batch_size(k, d); the others'
    zero far weights already meet the conditions.  A batch is formed as its
    solve starts and is dropped when the solve returns, so the build holds
    one batch at a time, and the chunk's arrays are dropped when this
    returns.
    """
    weights = _solve(pool, nb[:, :width], items, l1_weight, tol)
    k = nb.shape[1]
    if width < k:
        redo = np.flatnonzero(_far_violations(pool.vectors, items, nb, weights, l1_weight) > tol)
        weights = np.pad(weights, ((0, 0), (0, k - width)))
        step = _batch_size(k, pool.vectors.shape[1])
        for lo in range(0, redo.size, step):
            part = redo[lo:lo + step]
            weights[part] = _solve(pool, nb[part], items[part], l1_weight, tol)
    nz = weights != 0.0
    return weights[nz], nb[nz], nz.sum(axis=1)


def _solve(pool, nb, items, l1_weight, tol) -> np.ndarray:
    """Weights of the lassos that rebuild pool members `items` from their
    neighbor lists nb, as one LassoBatch with the gram entries between each
    item's neighbors and itself as correlations.  An item whose rounds run
    out is re-raised as a LassoConvergenceError whose `item` counts over the
    whole build."""
    try:
        return solve_lasso(LassoBatch(
            pool, nb, pool_gram(pool, nb, items[:, None])[:, :, 0], l1_weight
        ), tol).weights
    except LassoConvergenceError as exc:
        item = int(items[exc.item])
        raise LassoConvergenceError(
            f"reconstruction subproblem for item {item} did not converge "
            f"(KKT residual {exc.kkt_residual:g})",
            exc.kkt_residual,
            item,
        ) from exc


def _far_violations(vectors, items, nb, near, l1_weight) -> np.ndarray:
    """Per item, the largest KKT violation at its neighbors past the
    near.shape[1] nearest, where its weights are zero.

    Item i's weights `near` on its nearest rows A give the residual
    r = A'w - vectors[i], and each far row a its gradient a.r and violation
    |2 a.r| - l1_weight.  The far rows are gathered in slices of at most
    _ROW_BUDGET bytes.
    """
    width = near.shape[1]
    resid = np.matmul(near[:, None, :], vectors[nb[:, :width]])[:, 0] - vectors[items]
    worst = np.full(items.size, -np.inf)
    step = _batch_size(items.size, vectors.shape[1])
    for lo in range(width, nb.shape[1], step):
        grad = np.matmul(vectors[nb[:, lo:lo + step]], resid[:, :, None])[:, :, 0]
        worst = np.maximum(worst, np.abs(2.0 * grad).max(axis=1) - l1_weight)
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
    hp.knn_k); by default it is computed here.

    Rows of width d have rank at most d, so each lasso is first solved on
    the nearest W = min(k, d) neighbors (all k when d = 0), and solved
    again at full k only when a farther neighbor violates its KKT
    conditions.  Every row's solution is KKT-certified over all k neighbors.
    Deterministic for fixed inputs.
    """
    vectors = combined_feature_rows(features, tags)
    if neighbors is None:
        neighbors = knn_index(vectors, hp.knn_k)
    k, dim = neighbors.shape[1], vectors.shape[1]
    width = min(k, dim) or k
    chunk = _batch_size(width, dim)
    return StructureMatrix(_reconstruction_matrix(
        RowPool(vectors), neighbors, width, chunk, hp.alpha, hp.lasso_tol
    ))


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
    return (D.matrix.T @ D.matrix).toarray()


def _tag_neighbors(G: np.ndarray, k: int) -> np.ndarray:
    """knn_index(D.T, k), an (M, min(k, M - 1)) array, read from G = D'D.

    The squared distances g_ii + g_jj - 2 g_ij are exact integers, and a
    stable sort breaks their ties by ascending index, as knn_index does."""
    _check_population(G.shape[0], k)
    sq = np.diagonal(G)
    dist = sq[:, None] + sq - 2.0 * G
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :min(k, G.shape[0] - 1)]


def build_tag_structure(D: TaggingMatrix, hp: Hyperparams) -> StructureMatrix:
    """Learn the tag-side reconstruction matrix.

    Column m holds the lasso coefficients (L1 weight hp.mu) that rebuild tag
    column m of the tagging matrix from its hp.knn_k nearest tag columns.
    D must be binary (ValidationError otherwise).  Neighbors, grams and
    correlations are all read out of one G = D'D, and every tag's lasso runs
    in one lockstep batch with G as its pool.  Tags that no image carries
    get a warning and, since their lasso target is zero, an all-zero column.
    """
    G = _tag_gram(D)
    neighbors = _tag_neighbors(G, hp.knn_k)
    empty = np.diagonal(G) == 0.0
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} tag column(s) are all-zero; "
            "their reconstruction weights are set to zero",
            stacklevel=2,
        )
    return StructureMatrix(_reconstruction_matrix(
        G, neighbors, neighbors.shape[1], G.shape[0], hp.mu, hp.lasso_tol
    ).T)


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


def _kkt_per_item(vectors, weights, l1_weight, neighbors):
    """Recomputed KKT residual per item, whose lasso rebuilds vectors[i] from
    vectors[neighbors[i]] with the weights in row i of `weights`, a canonical
    CSR matrix that stores no zeros.

    The gradient gram @ w - corr is A (A'w - b), formed with no gram: per
    block of _BLOCK items, a sparse product gives their A'w - b, and one
    product of those with all rows is read at the neighbor positions.  inf
    when weight sits outside the neighborhood.
    """
    stored = np.diff(weights.indptr)
    size = vectors.shape[0]
    residuals = np.empty(size)
    for start in range(0, size, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, size))
        nb = neighbors[rows]
        resid = weights[rows] @ vectors - vectors[rows]
        grad = np.take_along_axis(resid @ vectors.T, nb, axis=1)
        w = weights[rows[:, None], nb].toarray()
        residuals[rows] = _violations(w, grad, l1_weight).max(axis=1, initial=0.0)
        residuals[rows[np.count_nonzero(w, axis=1) < stored[rows]]] = np.inf
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
    but not the neighbor search.
    """
    vectors = combined_feature_rows(features, tags)
    if neighbors is None:
        neighbors = knn_index(vectors, hp.knn_k)
    return _kkt_per_item(vectors, structure.matrix, hp.alpha, neighbors)


def tag_structure_kkt(
    D: TaggingMatrix, structure: StructureMatrix, hp: Hyperparams
) -> np.ndarray:
    """Re-certify each column of a tag structure matrix from scratch.

    D must be binary, as for build_tag_structure, whose G = D'D neighbor
    lists it recomputes.  Each gradient is still formed from the columns of
    D, passed as rows with T's columns as the rows of the weights, so the
    certificate does not rest on G's grams.  An all-zero tag column with
    zero weights is its lasso's exact answer and reports residual 0.
    """
    neighbors = _tag_neighbors(_tag_gram(D), hp.knn_k)
    cols = D.matrix.T.toarray(order="C")
    return _kkt_per_item(cols, structure.matrix.T.tocsr(), hp.mu, neighbors)
