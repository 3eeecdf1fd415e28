"""Ranking evaluation of a completed score matrix against held-out tags."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import TaggingMatrix, ValidationError


@dataclass(frozen=True)
class EvalSplit:
    """A deletion experiment: what the solver saw and what it must recover.

    observed is the post-deletion tagging matrix.  test_image_ids[i] names an
    evaluated image and deleted[i] holds the tag indices removed from it.
    Test images are distinct, and each keeps at least one observed tag and
    loses at least one.  Construction flags every test image's faults in one
    pass and raises the first flagged image's first fault, so the error names
    the first faulty image in test-image order.
    """

    observed: TaggingMatrix
    deleted: tuple
    test_image_ids: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "deleted", tuple(frozenset(map(int, d)) for d in self.deleted)
        )
        object.__setattr__(
            self, "test_image_ids", tuple(map(int, self.test_image_ids))
        )
        if len(self.deleted) != len(self.test_image_ids):
            raise ValidationError(
                f"{len(self.test_image_ids)} test images "
                f"but {len(self.deleted)} deleted sets"
            )
        self._check_test_images()

    def _check_test_images(self) -> None:
        """Flag all test images at once, each fault in the order one image is
        checked: id out of range, id listed earlier, no deleted tag, deleted
        tag out of range, no observed tag (stored zeros are none), deleted
        tag observed.  Overlap is read per (test position, tag) pair, so an
        image listed twice never borrows its other occurrence's set."""
        ids, deleted = self.test_image_ids, self.deleted
        matrix = self.observed.matrix
        n, m = matrix.shape
        # out-of-range ids and tags become -1 while still Python ints, so
        # numpy never sees one it cannot hold; whatever a -1 reads below, its
        # image is flagged for the range fault first
        rows = np.array([i if 0 <= i < n else -1 for i in ids], dtype=np.intp)
        tags = np.array(
            [t if 0 <= t < m else -1 for t in chain.from_iterable(deleted)], dtype=np.intp
        )
        sizes = np.array(list(map(len, deleted)), dtype=np.intp)
        owner = np.repeat(np.arange(len(ids)), sizes)
        nonzero = matrix.data != 0.0
        entry_rows = np.repeat(np.arange(n), np.diff(matrix.indptr))[nonzero]
        # one key per observed (row, tag), ascending in a canonical CSR, then
        # n * m, above every pair's key
        keys = np.append(entry_rows * m + matrix.indices[nonzero], n * m)
        pairs = rows[owner] * m + tags
        both = keys[np.searchsorted(keys, pairs)] == pairs
        faults = np.zeros((6, len(ids)), dtype=bool)  # one row per check, in order
        faults[0] = rows < 0
        faults[1] = True
        faults[1, np.unique(rows, return_index=True)[1]] = False  # first occurrences
        faults[2] = sizes == 0
        faults[3, owner[tags < 0]] = True
        # n + 1 counts, so that a -1 indexes one even when n is 0
        faults[4] = np.bincount(entry_rows, minlength=n + 1)[rows] == 0
        faults[5, owner[both]] = True
        flagged = faults.any(axis=0)
        if not flagged.any():
            return
        p = int(flagged.argmax())
        img, overlap = ids[p], sorted(tags[both & (owner == p)].tolist())
        raise ValidationError((
            f"test image {img} out of range",
            f"test image {img} is listed more than once",
            f"image {img} has no deleted tags",
            f"image {img} has deleted tags out of range",
            f"image {img} has no observed tags",
            f"image {img}: tags {overlap} are both observed and deleted",
        )[faults[:, p].argmax()])

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
