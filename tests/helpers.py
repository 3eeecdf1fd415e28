"""Small constructors shared by the tests."""

import scipy.sparse as sp

from tagcomplete.core import StructureMatrix


def zero_structure(size: int) -> StructureMatrix:
    """A size x size structure matrix with no entries."""
    return StructureMatrix(sp.csr_matrix((size, size)))
