"""The scipy forms of the package's diagonal-storage operators, for the tests.

``Operators.A``, ``Operators.LN``, ``assemble_laplacian(grid)`` and every
density matrix are :class:`blebsheet.grid.DiaMatrix` instances, which offer
a product and nothing else; the tests convert, compare and assemble through
these forms.
"""

import scipy.sparse as sp

from blebsheet.grid import DiaMatrix


def as_scipy(M: DiaMatrix) -> sp.dia_matrix:
    """The scipy DIA matrix with ``M``'s ``data``, ``offsets`` and ``shape``."""
    assert isinstance(M, DiaMatrix), type(M)
    return sp.dia_matrix((M.data, M.offsets), shape=M.shape)


def canonical_csr(M) -> sp.csr_matrix:
    """``M`` (a scipy matrix or a :class:`DiaMatrix`) in canonical CSR form.

    Sorted, unique column indices in each row, and no stored zero where
    ``M`` is a ``DiaMatrix``: the form an assembly of the entries takes.
    """
    csr = sp.csr_matrix(as_scipy(M) if isinstance(M, DiaMatrix) else M)
    csr.sum_duplicates()  # also sorts the column indices of each row
    return csr
