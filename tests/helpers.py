"""Small constructors shared by the tests."""

import numpy as np
import scipy.sparse as sp

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
