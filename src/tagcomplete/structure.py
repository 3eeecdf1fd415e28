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
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
    check_structure_sizes,
    normalize_rows,
)
from .lasso import LassoBatch, LassoConvergenceError, RowPool, _violations, pool_gram, solve_lasso

class StructureBuildError(TagCompleteError, RuntimeError):
    """A reconstruction subproblem failed; carries the item index."""

    def __init__(self, message: str, item: int):
        super().__init__(message)
        self.item = item


_BLOCK = 64  # items per _BLOCK x n product: knn preselection, KKT gradients

# Bytes of neighbor rows that one lockstep batch of the image structure build
# gathers at once: a batch holds max(1, _ROW_BUDGET // 8kd) items of k
# neighbors of width d.  The tag build reads its grams out of D'D, in one batch.
_ROW_BUDGET = 2 << 20


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


def _reconstruction_matrix(pool, neighbors, chunk, l1_weight, tol) -> sp.csr_matrix:
    """Row i holds the weights of the lasso that rebuilds pool member i from
    its neighbors, KKT-certified within tol by solve_lasso.

    `neighbors` is (items, k).  Items are solved in lockstep runs of
    `chunk`, each a LassoBatch over `pool` with the gram entries between
    each item's neighbors and itself as correlations.  A batch is formed as
    its solve starts and is dropped when the solve returns, so the build
    holds one batch at a time.  Each batch keeps only its nonzero weights,
    in row order: the CSR data."""
    size = neighbors.shape[0]
    data, indices, counts = [], [], []
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        nb = neighbors[start:stop]
        try:
            weights = solve_lasso(LassoBatch(
                pool, nb, pool_gram(pool, nb, np.arange(start, stop)[:, None])[:, :, 0], l1_weight
            ), tol).weights
        except LassoConvergenceError as exc:
            item = start + exc.item
            raise StructureBuildError(
                f"reconstruction subproblem for item {item} did not converge "
                f"(KKT residual {exc.kkt_residual:g})",
                item=item,
            ) from exc
        nz = weights != 0.0
        data.append(weights[nz])
        indices.append(nb[nz])
        counts.append(nz.sum(axis=1))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(size, size)
    )


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
) -> StructureMatrix:
    """Learn the image-side reconstruction matrix.

    Row n holds the lasso coefficients (L1 weight hp.alpha) that rebuild
    image n's feature row from its hp.knn_k nearest neighbors; all other
    entries, including the diagonal, are structurally zero.  Every row's
    solution is KKT-certified.  Deterministic for fixed inputs.
    """
    vectors = combined_feature_rows(features, tags)
    neighbors = knn_index(vectors, hp.knn_k)
    chunk = max(1, _ROW_BUDGET // (8 * neighbors.shape[1] * max(vectors.shape[1], 1)))
    return StructureMatrix(
        _reconstruction_matrix(RowPool(vectors), neighbors, chunk, hp.alpha, hp.lasso_tol)
    )


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
    return StructureMatrix(_reconstruction_matrix(G, neighbors, G.shape[0], hp.mu, hp.lasso_tol).T)


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
) -> np.ndarray:
    """Re-certify each row of an image structure matrix from scratch.

    Rebuilds the neighborhoods and returns one stationarity residual per
    image; rows reconstructed by build_feature_structure stay within
    hp.lasso_tol.
    """
    vectors = combined_feature_rows(features, tags)
    return _kkt_per_item(vectors, structure.matrix, hp.alpha, knn_index(vectors, hp.knn_k))


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
