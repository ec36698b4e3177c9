"""The scipy form of the package's diagonal-storage operators, for the tests.

``Operators.A``, ``Operators.LN`` and every density matrix are
:class:`blebsheet.grid.DiaMatrix` instances, which offer a product and
nothing else; the tests convert, compare and assemble through this form.
"""

import scipy.sparse as sp

from blebsheet.grid import DiaMatrix


def as_scipy(M: DiaMatrix) -> sp.dia_matrix:
    """The scipy DIA matrix with ``M``'s ``data``, ``offsets`` and ``shape``."""
    assert isinstance(M, DiaMatrix), type(M)
    return sp.dia_matrix((M.data, M.offsets), shape=M.shape)
