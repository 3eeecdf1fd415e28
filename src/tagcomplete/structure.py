"""Local linear reconstruction structures over images and tags.

Each image row (or tag column) is approximated as a sparse combination of its
k nearest neighbors by solving a small L1-regularized least-squares problem;
the learned weights populate one row of the image structure matrix (or one
column of the tag structure matrix).  The completion solver then penalizes
factorizations that break these reconstructions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
    normalize_rows,
)
from .lasso import (
    LassoConvergenceError,
    LassoProblem,
    kkt_residual,
    solve_lasso,
    verify_kkt,
)

class StructureBuildError(TagCompleteError, RuntimeError):
    """A reconstruction subproblem failed; carries the item index."""

    def __init__(self, message: str, item: int):
        super().__init__(message)
        self.item = item


@dataclass(frozen=True)
class NeighborIndex:
    """Exact k-nearest-neighbor lists, one per item, self excluded.

    Each list is sorted by ascending distance with ties broken by ascending
    index, and has length min(k, population - 1).
    """

    neighbors: tuple
    distances: tuple


def knn_index(vectors, k: int) -> NeighborIndex:
    """Exact euclidean nearest neighbors by full pairwise scan."""
    pts = np.ascontiguousarray(np.asarray(vectors, dtype=float))
    if pts.ndim != 2:
        raise ValidationError(f"vectors must be 2-D, got ndim={pts.ndim}")
    n = pts.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 vectors to build a neighbor index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("vectors contain non-finite values")

    take = min(k, n - 1)
    all_idx = np.arange(n)
    neighbors, distances = [], []
    for i in range(n):
        diff = pts - pts[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        mask = all_idx != i
        cand_idx = all_idx[mask]
        cand_d = d[mask]
        order = np.lexsort((cand_idx, cand_d))[:take]
        neighbors.append(cand_idx[order])
        distances.append(cand_d[order])
    return NeighborIndex(neighbors=tuple(neighbors), distances=tuple(distances))


def _reconstruction_weights(vectors, index, item, l1_weight, hp):
    """Lasso weights reconstructing vectors[item] from its neighbor rows."""
    nb = index.neighbors[item]
    A = vectors[nb]
    target = vectors[item]
    problem = LassoProblem(
        gram=A @ A.T,
        corr=A @ target,
        target_sq_norm=float(target @ target),
        l1_weight=l1_weight,
    )
    try:
        solution = solve_lasso(problem, tol=hp.lasso_tol, max_iters=hp.lasso_max_iters)
    except LassoConvergenceError as exc:
        raise StructureBuildError(
            f"reconstruction subproblem for item {item} did not converge "
            f"(KKT residual {exc.kkt_residual:g})",
            item=item,
        ) from exc
    if not verify_kkt(problem, solution, tol=hp.lasso_tol):
        raise StructureBuildError(
            f"reconstruction weights for item {item} failed KKT re-verification",
            item=item,
        )
    return nb, solution.weights


def _solve_all(vectors, index, l1_weight, hp, skip=None):
    """Solve every item's subproblem in item order; skipped items get None."""
    return [
        None if skip is not None and skip[i]
        else _reconstruction_weights(vectors, index, i, l1_weight, hp)
        for i in range(vectors.shape[0])
    ]


def _assemble(results, size, transpose):
    rows, cols, vals = [], [], []
    for item, res in enumerate(results):
        if res is None:
            continue
        nb, w = res
        nz = w != 0.0
        for j, v in zip(nb[nz], w[nz]):
            rows.append(item)
            cols.append(int(j))
            vals.append(float(v))
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    return mat.T.tocsr() if transpose else mat


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
    index = knn_index(vectors, hp.knn_k)
    results = _solve_all(vectors, index, hp.alpha, hp)
    matrix = _assemble(results, vectors.shape[0], transpose=False)
    return StructureMatrix(matrix)


def build_tag_structure(D: TaggingMatrix, hp: Hyperparams) -> StructureMatrix:
    """Learn the tag-side reconstruction matrix.

    Column m holds the lasso coefficients (L1 weight hp.mu) that rebuild tag
    column m of the tagging matrix from its hp.knn_k nearest tag columns.
    Tags that no image carries get an all-zero column and a warning.
    """
    cols = np.ascontiguousarray(D.to_dense().T)
    index = knn_index(cols, hp.knn_k)
    empty = ~np.any(cols != 0.0, axis=1)
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} tag column(s) are all-zero; "
            "their reconstruction weights are set to zero",
            stacklevel=2,
        )
    results = _solve_all(cols, index, hp.mu, hp, skip=empty)
    matrix = _assemble(results, cols.shape[0], transpose=True)
    return StructureMatrix(matrix)


def reinitialize(
    D: TaggingMatrix, S: StructureMatrix, T: StructureMatrix
) -> TaggingMatrix:
    """Blend neighbor-propagated scores: (S @ D + D @ T) / 2.

    Output is real-valued; the input matrix is not modified.  Raises
    ValidationError when a D with nonzero entries blends to all zeros, since
    fitting that blend would report a meaningless all-zero completion.
    """
    if S.size != D.n_images:
        raise ValidationError(
            f"image structure is {S.size}x{S.size} but D has {D.n_images} images"
        )
    if T.size != D.n_tags:
        raise ValidationError(
            f"tag structure is {T.size}x{T.size} but D has {D.n_tags} tags"
        )
    blended = (S.matrix @ D.matrix + D.matrix @ T.matrix) * 0.5
    if np.any(D.matrix.data) and not np.any(blended.data):
        raise ValidationError(
            "reinitialization blends the nonzero tagging matrix to all zeros: "
            "the structures put no weight on any tagged image or tag; "
            "fit the tagging matrix directly instead (--no-reinit)"
        )
    return TaggingMatrix(blended)


def _kkt_per_item(vectors, structure_csr, weights_of, l1_weight, k):
    """Recomputed KKT residual per item; inf when support leaks outside the
    recomputed neighborhood."""
    index = knn_index(vectors, k)
    residuals = np.zeros(vectors.shape[0])
    for i in range(vectors.shape[0]):
        nb = index.neighbors[i]
        w_full = weights_of(structure_csr, i)
        support = np.flatnonzero(w_full)
        if not set(support).issubset(set(nb.tolist())):
            residuals[i] = np.inf
            continue
        A = vectors[nb]
        target = vectors[i]
        problem = LassoProblem(
            gram=A @ A.T,
            corr=A @ target,
            target_sq_norm=float(target @ target),
            l1_weight=l1_weight,
        )
        pos = {int(j): t for t, j in enumerate(nb)}
        w = np.zeros(len(nb))
        for j in support:
            w[pos[int(j)]] = w_full[j]
        residuals[i] = kkt_residual(problem, w)
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
    dense = structure.matrix.toarray()
    return _kkt_per_item(
        vectors, dense, lambda m, i: m[i], hp.alpha, hp.knn_k
    )


def tag_structure_kkt(
    D: TaggingMatrix, structure: StructureMatrix, hp: Hyperparams
) -> np.ndarray:
    """Re-certify each column of a tag structure matrix from scratch.

    All-zero tag columns report residual 0 when their weights are zero (no
    reconstruction was attempted for them).
    """
    cols = np.ascontiguousarray(D.to_dense().T)
    dense = structure.matrix.toarray()
    empty = ~np.any(cols != 0.0, axis=1)
    residuals = _kkt_per_item(
        cols, dense, lambda m, i: m[:, i], hp.mu, hp.knn_k
    )
    for i in np.flatnonzero(empty):
        residuals[i] = 0.0 if not dense[:, i].any() else np.inf
    return residuals
