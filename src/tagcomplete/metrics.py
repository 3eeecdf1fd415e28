"""Ranking evaluation of a completed score matrix against held-out tags."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import TaggingMatrix, ValidationError


@dataclass(frozen=True)
class EvalSplit:
    """A deletion experiment: what the solver saw and what it must recover.

    observed is the post-deletion tagging matrix.  test_image_ids[i] names an
    evaluated image and deleted[i] holds the tag indices removed from it.
    Test images are distinct, and each keeps at least one observed tag and
    loses at least one.
    """

    observed: TaggingMatrix
    deleted: tuple
    test_image_ids: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "deleted", tuple(frozenset(int(t) for t in d) for d in self.deleted)
        )
        object.__setattr__(
            self, "test_image_ids", tuple(int(i) for i in self.test_image_ids)
        )
        if len(self.deleted) != len(self.test_image_ids):
            raise ValidationError(
                f"{len(self.test_image_ids)} test images "
                f"but {len(self.deleted)} deleted sets"
            )
        n, m = self.observed.n_images, self.observed.n_tags
        seen = set()
        for img, dels in zip(self.test_image_ids, self.deleted):
            if not (0 <= img < n):
                raise ValidationError(f"test image {img} out of range")
            if img in seen:
                raise ValidationError(f"test image {img} is listed more than once")
            seen.add(img)
            if not dels:
                raise ValidationError(f"image {img} has no deleted tags")
            if any(not (0 <= t < m) for t in dels):
                raise ValidationError(f"image {img} has deleted tags out of range")
            kept = set(self.observed.tags_of(img).tolist())
            if not kept:
                raise ValidationError(f"image {img} has no observed tags")
            overlap = kept & dels
            if overlap:
                raise ValidationError(
                    f"image {img}: tags {sorted(overlap)} are both observed and deleted"
                )

    @property
    def n_test_images(self) -> int:
        return len(self.test_image_ids)


def rank_predictions(scores: np.ndarray, split: EvalSplit, n: int) -> list:
    """Top-n candidate tags per test image, highest score first.

    Candidates are the tags NOT observed for the image (completion looks for
    missing tags only).  One stable lexsort orders each test image's row by
    (observed, -score), so candidates come before observed tags, then by
    descending score, with ties in ascending tag index; each row is cut at
    min(n, candidate count).  Among the candidates +inf ranks first, -inf
    after every finite score and NaN last.  Images with fewer than n
    candidates get their full candidate list, and one warning counts them.
    """
    scores = np.asarray(scores, dtype=float)
    if n < 1:
        raise ValidationError("n must be >= 1")
    if scores.shape != (split.observed.n_images, split.observed.n_tags):
        raise ValidationError(
            f"scores are {scores.shape} but split expects "
            f"{(split.observed.n_images, split.observed.n_tags)}"
        )
    ids = np.asarray(split.test_image_ids, dtype=np.intp)
    observed = split.observed.matrix[ids].toarray() != 0.0
    top = np.lexsort((-scores[ids], observed))[:, :n]
    counts = np.minimum(n, split.observed.n_tags - observed.sum(axis=1))
    short = int(np.count_nonzero(counts < n))
    if short:
        warnings.warn(
            f"{short} test image(s) have fewer than {n} candidate tags; "
            "their prediction lists are shorter",
            stacklevel=2,
        )
    return [row[:count] for row, count in zip(top.tolist(), counts.tolist())]


def evaluate(predictions: list, split: EvalSplit, n: int) -> dict:
    """Set-based cutoff metrics over the test images.

    AP: mean of |top-n hits| / n.  AR: mean of |top-n hits| / |deleted|.
    C: fraction of images with at least one hit.
    """
    if split.n_test_images == 0:
        raise ValidationError("cannot evaluate an empty test set")
    if len(predictions) != split.n_test_images:
        raise ValidationError(
            f"{len(predictions)} prediction lists for "
            f"{split.n_test_images} test images"
        )
    hits = np.array(
        [len(set(preds[:n]) & dels) for preds, dels in zip(predictions, split.deleted)],
        dtype=float,
    )
    sizes = np.array([len(dels) for dels in split.deleted])
    return {
        "AP": float(np.mean(hits / n)),
        "AR": float(np.mean(hits / sizes)),
        "C": float(np.mean(hits > 0)),
    }
