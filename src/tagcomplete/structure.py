"""Local linear reconstruction structures over images and tags.

Each image row (or tag column) is approximated as a sparse combination of its
k nearest neighbors by solving a small L1-regularized least-squares problem;
the learned weights populate one row of the image structure matrix (or one
column of the tag structure matrix).  The completion solver then penalizes
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
from .lasso import LassoBatch, LassoConvergenceError, _violations, solve_lasso

class StructureBuildError(TagCompleteError, RuntimeError):
    """A reconstruction subproblem failed; carries the item index."""

    def __init__(self, message: str, item: int):
        super().__init__(message)
        self.item = item


_BLOCK = 64  # query rows per preselecting product, which is _BLOCK x n

# Bytes of grams in one lockstep batch of a structure build, which holds
# max(1, _GRAM_BUDGET // 8k^2) items, and of neighbor rows multiplied at once
_GRAM_BUDGET = 2 << 20


@np.errstate(over="ignore", invalid="ignore")  # overflow makes delta inf, below
def knn_index(vectors, k: int) -> tuple:
    """Exact euclidean k-nearest-neighbor lists, one per item, self excluded.

    Each list is sorted by ascending distance with ties broken by ascending
    index, and has length min(k, population - 1).  A matrix product per
    block of query rows gives approximate squared distances
    |x|^2 + |y|^2 - 2 x.y.  The items within a rounding margin of a row's
    k-th smallest are ranked by the exact sqrt(sum((y - x)^2)), so the lists
    equal those of a full exact scan."""
    pts = np.ascontiguousarray(np.asarray(vectors, dtype=float))
    if pts.ndim != 2:
        raise ValidationError(f"vectors must be 2-D, got ndim={pts.ndim}")
    n, dim = pts.shape
    if n < 2:
        raise ValidationError("need at least 2 vectors to build a neighbor index")
    if k < 1:
        raise ValidationError("k must be >= 1")
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
    neighbors = []
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
            neighbors.append(cand[order])
    return tuple(neighbors)


def _reconstruction_matrix(vectors, l1_weight, hp) -> sp.csr_matrix:
    """Row i holds the lasso weights, KKT-certified within hp.lasso_tol by
    solve_lasso, that rebuild vectors[i] from its hp.knn_k nearest neighbors.

    The lassos run in lockstep, one chunk of items at a time: as many as
    _GRAM_BUDGET holds grams for, all written into one reused buffer."""
    neighbors = knn_index(vectors, hp.knn_k)
    size, k = len(neighbors), neighbors[0].size
    chunk = max(1, _GRAM_BUDGET // (8 * k * k))
    fill = max(1, _GRAM_BUDGET // (8 * k * max(vectors.shape[1], 1)))  # rows per product
    gram, corr = np.empty((min(chunk, size), k, k)), np.empty((min(chunk, size), k, 1))
    counts, indices, data = [], [], []
    for start in range(0, size, chunk):
        nb = np.stack(neighbors[start:start + chunk])
        for lo in range(0, nb.shape[0], fill):
            hi = min(lo + fill, nb.shape[0])
            rows = vectors[nb[lo:hi]]
            np.matmul(rows, rows.transpose(0, 2, 1), out=gram[lo:hi])
            np.matmul(rows, vectors[start + lo:start + hi, :, None], out=corr[lo:hi])
        problem = LassoBatch(gram[:nb.shape[0]], corr[:nb.shape[0], :, 0], l1_weight)
        try:
            weights = solve_lasso(problem, hp.lasso_tol).weights
        except LassoConvergenceError as exc:
            item = start + exc.item
            raise StructureBuildError(
                f"reconstruction subproblem for item {item} did not converge "
                f"(KKT residual {exc.kkt_residual:g})",
                item=item,
            ) from exc
        nz = weights != 0.0
        counts.append(nz.sum(axis=1))
        indices.append(nb[nz])
        data.append(weights[nz])
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
    return StructureMatrix(_reconstruction_matrix(vectors, hp.alpha, hp))


def build_tag_structure(D: TaggingMatrix, hp: Hyperparams) -> StructureMatrix:
    """Learn the tag-side reconstruction matrix.

    Column m holds the lasso coefficients (L1 weight hp.mu) that rebuild tag
    column m of the tagging matrix from its hp.knn_k nearest tag columns.
    Tags that no image carries get a warning and, since their lasso target is
    zero, an all-zero column.
    """
    cols = np.ascontiguousarray(D.to_dense().T)
    empty = ~np.any(cols != 0.0, axis=1)
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} tag column(s) are all-zero; "
            "their reconstruction weights are set to zero",
            stacklevel=2,
        )
    return StructureMatrix(_reconstruction_matrix(cols, hp.mu, hp).T)


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


def _kkt_per_item(vectors, weights, l1_weight, k):
    """Recomputed KKT residual per item, reading item i's weights from the
    i-th compressed row of `weights` (CSR rows, or CSC columns).

    The gradient gram @ w - corr is formed as A (A'w - b), with no gram.  inf
    when weight sits outside the recomputed neighborhood.
    """
    residuals = np.zeros(vectors.shape[0])
    for i, nb in enumerate(knn_index(vectors, k)):
        span = slice(weights.indptr[i], weights.indptr[i + 1])
        cols, vals = weights.indices[span], weights.data[span]
        at, found = np.nonzero(nb[:, None] == cols)
        if found.size < cols.size:
            residuals[i] = np.inf
            continue
        w = np.zeros(nb.size)
        w[at] = vals[found]
        grad = vectors[nb] @ (vals @ vectors[cols] - vectors[i])
        residuals[i] = _violations(w, grad, l1_weight).max(initial=0.0)
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
    return _kkt_per_item(vectors, structure.matrix, hp.alpha, hp.knn_k)


def tag_structure_kkt(
    D: TaggingMatrix, structure: StructureMatrix, hp: Hyperparams
) -> np.ndarray:
    """Re-certify each column of a tag structure matrix from scratch.

    An all-zero tag column with zero weights is its lasso's exact answer and
    reports residual 0.
    """
    cols = np.ascontiguousarray(D.to_dense().T)
    return _kkt_per_item(cols, structure.matrix.tocsc(), hp.mu, hp.knn_k)
