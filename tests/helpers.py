"""Small constructors shared by the tests."""

import numpy as np
import scipy.sparse as sp

from tagcomplete import lasso
from tagcomplete.core import StructureMatrix
from tagcomplete.synth import tag_blocks


def zero_structure(size: int) -> StructureMatrix:
    """A size x size structure matrix with no entries."""
    return StructureMatrix(sp.csr_matrix((size, size)))


def in_block(cfg, topics) -> np.ndarray:
    """The planted N x M indicator of a synthetic instance: cell (i, t) is
    1.0 when tag t lies in the tag block of image i's topic."""
    sizes = [len(block) for block in tag_blocks(cfg.n_tags, cfg.n_topics)]
    topic_of_tag = np.repeat(np.arange(cfg.n_topics), sizes)
    return (topics[:, None] == topic_of_tag).astype(float)


def gradients_at(batch, live, x) -> np.ndarray:
    """lasso._gradients of the live items of batch whose weights are the rows
    of x, handed over as the solver holds them: each row's nonzero
    coordinates in ascending order, with their count and weights."""
    rows, coords = np.nonzero(x)
    return lasso._gradients(batch, live, np.count_nonzero(x, axis=1), coords, x[rows, coords])
