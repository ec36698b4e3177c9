"""Uniform node-centered grid on the closed unit square and its Laplacian.

Conventions used throughout the package:

- Nodes are laid out row-major with the x index slow: node ``i * (n+1) + j``
  sits at ``(i * spacing, j * spacing)``.
- Quadrature weights are trapezoidal: ``spacing**2`` in the interior, half of
  that on edges, a quarter in corners.  They sum to the unit-square area.
- The one Laplacian assembly, :func:`assemble_laplacian`, stores the
  NEGATIVE Laplacian in weak form on all nodes, so every operator built
  from it is positive (semi)definite.  The no-flux (Neumann) density
  operators use it whole; the clamped (Dirichlet) height operator uses its
  interior block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec


class GridError(ValueError):
    """Raised for invalid grid sizes or mismatched field lengths."""


class DiaMatrix:
    """A matrix stored by diagonals, with a product and nothing else.

    ``data[k, j]`` is the entry in column ``j`` of the diagonal at
    ``offsets[k]``, as in ``scipy.sparse.dia_matrix((data, offsets),
    shape)``.  ``A @ x`` on a float64 vector calls ``dia_matvec``, the
    compiled kernel that scipy's DIA product reaches after its Python
    dispatch, so it is bitwise that product without the dispatch.  The
    kernel is private to scipy; the tests pin the product to scipy's
    public one.
    """

    __slots__ = ("data", "offsets", "shape")

    def __init__(self, data: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]):
        self.data = data
        self.offsets = offsets
        self.shape = shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        # the kernel reads cols floats from x unchecked, and writes a float32 x's
        # product into a copy, so anything but a float64 vector is refused
        if x.shape != (cols,) or x.dtype != np.float64:
            raise ValueError(f"need a float64 vector of length {cols}, "
                             f"got {x.dtype} of shape {x.shape}")
        y = np.zeros(rows)
        dia_matvec(rows, cols, len(self.offsets), self.data.shape[1], self.offsets,
                   self.data, x, y)
        return y


class SparseMatrix(sp.csr_matrix):
    """A scipy CSR matrix, with nothing added but its constructor.

    :meth:`from_scipy` is the package's one canonicalizing constructor: its
    result has strictly increasing column indices within each row (sorted,
    no duplicates).  The grid Laplacian is built through it.  Scipy
    arithmetic on an instance (``A @ A``, ``0.5 * A``) also returns this
    class, without that guarantee.
    """

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csr = cls(mat)
        csr.sum_duplicates()  # also sorts the column indices of each row
        return csr


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [0,1]^2 with (n+1)^2 nodes."""

    n: int
    spacing: float
    node_x: np.ndarray
    node_y: np.ndarray
    boundary_mask: np.ndarray
    weights: np.ndarray
    interior_indices: np.ndarray

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def num_interior(self) -> int:
        return (self.n - 1) ** 2

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Interior values of a full-grid field, as a new array.

        The same values as ``full[interior_indices]``, by slicing the
        row-major ``(n+1, n+1)`` layout.
        """
        m = self.n + 1
        return full.reshape(m, m)[1:-1, 1:-1].flatten()

    def embed(self, interior: np.ndarray) -> np.ndarray:
        """Full-grid field with the given interior values and zero boundary."""
        m = self.n + 1
        full = np.zeros((m, m))
        full[1:-1, 1:-1] = interior.reshape(m - 2, m - 2)
        return full.ravel()


def build_grid(n: int) -> Grid:
    """Build the uniform grid with ``n`` cells per side.

    Rejects ``n < 2`` because the Dirichlet problems need at least one
    interior node.
    """
    if n < 2:
        raise GridError(f"need at least 2 cells per side, got n={n}")
    m = n + 1
    spacing = 1.0 / n
    coords = np.arange(m) * spacing
    coords[-1] = 1.0
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    boundary = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)

    w = np.full((m, m), spacing * spacing)
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5

    bmask = boundary.ravel()
    return Grid(
        n=n,
        spacing=spacing,
        node_x=X.ravel(),
        node_y=Y.ravel(),
        boundary_mask=bmask,
        weights=w.ravel(),
        interior_indices=np.flatnonzero(~bmask),
    )


def assemble_laplacian(grid: Grid) -> SparseMatrix:
    """Assemble the finite-volume negative Laplacian on all nodes.

    The weak form of ``-lap`` with no-flux edges: each cell face between two
    neighbouring nodes adds its conductance (face length over node distance,
    ``1`` inside and ``1/2`` along the boundary) to both diagonals and
    subtracts it from both couplings.  The matrix is exactly symmetric, and
    constants span both its null spaces (``L @ 1 == 0 == 1 @ L``), which makes
    the discrete linker mass conserved exactly by the time stepping.  Divided
    by the node weights it is the strong-form Neumann operator; its interior
    block divided by ``spacing**2`` is the 5-point Dirichlet stencil, with
    ``4`` on the diagonal and ``-1`` for each interior neighbour.
    """
    n = grid.n
    m = n + 1

    # per node, the edge to +x then the edge to +y, each as four entries
    # (a,a), (b,b), (a,b), (b,a) with symmetric conductance
    a = np.arange(m * m)
    i, j = np.divmod(a, m)
    b = np.stack([a + m, a + 1], axis=1)
    conduct = np.stack([np.where((0 < j) & (j < n), 1.0, 0.5),
                        np.where((0 < i) & (i < n), 1.0, 0.5)], axis=1)
    exists = np.stack([i < n, j < n], axis=1)
    aa = np.broadcast_to(a[:, None], b.shape)
    rows = np.stack([aa, b, aa, b], axis=2)[exists]
    cols = np.stack([aa, b, b, aa], axis=2)[exists]
    vals = (conduct[:, :, None] * np.array([1.0, 1.0, -1.0, -1.0]))[exists]

    L = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(m * m, m * m))
    return SparseMatrix.from_scipy(L)


def integrate(grid: Grid, field: np.ndarray) -> float:
    """Trapezoidal integral of a per-node field over the unit square."""
    field = np.asarray(field)
    if field.shape != grid.weights.shape:
        raise GridError(
            f"field has {field.shape[0] if field.ndim else 0} entries, "
            f"grid has {grid.num_nodes} nodes"
        )
    return float(grid.weights @ field)
