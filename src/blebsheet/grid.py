"""Uniform node-centered grid on the closed unit square and its Laplacians.

Conventions used throughout the package:

- Nodes are laid out row-major with the x index slow: node ``i * (n+1) + j``
  sits at ``(i * spacing, j * spacing)``.
- Quadrature weights are trapezoidal: ``spacing**2`` in the interior, half of
  that on edges, a quarter in corners.  They sum to the unit-square area.
- Both Laplacian assemblies store the NEGATIVE Laplacian, so every operator
  built from them is positive (semi)definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    """Raised for invalid grid sizes or mismatched field lengths."""


class SparseMatrix(sp.csr_matrix):
    """A scipy CSR matrix, with nothing added but its constructor.

    :meth:`from_scipy` is the package's one canonicalizing constructor: its
    result has strictly increasing column indices within each row (sorted,
    no duplicates).  The grid Laplacians and the weighted Neumann operator
    are built through it.  Scipy arithmetic on an instance (``A @ A``,
    ``0.5 * A``) also returns this class, without that guarantee.
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
        """Interior values of a full-grid field."""
        return full[self.interior_indices]

    def embed(self, interior: np.ndarray) -> np.ndarray:
        """Full-grid field with the given interior values and zero boundary."""
        full = np.zeros(self.num_nodes)
        full[self.interior_indices] = interior
        return full


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


def assemble_laplacian(grid: Grid, bc: str) -> SparseMatrix:
    """Assemble the negative Laplacian for the requested boundary condition.

    ``dirichlet0``: standard 5-point stencil on interior nodes only; the
    matrix is symmetric positive definite with diagonal ``4 / spacing**2``.

    ``neumann0``: finite-volume operator on all nodes.  Fluxes across cell
    faces use mirrored boundary faces (half-length on the boundary rows), and
    each row is divided by the node's quadrature weight.  By construction the
    weight vector spans the left null space (``weights @ A == 0``) and
    constants span the right null space, which makes the discrete linker mass
    conserved exactly by the time stepping.
    """
    if bc == "dirichlet0":
        return _dirichlet_matrix(grid)
    if bc == "neumann0":
        return _neumann_matrix(grid)
    raise ValueError(f"unknown boundary condition {bc!r}")


def _dirichlet_matrix(grid: Grid) -> SparseMatrix:
    m = grid.n + 1
    h2 = grid.spacing ** 2
    full_to_int = -np.ones(grid.num_nodes, dtype=np.int64)
    full_to_int[grid.interior_indices] = np.arange(grid.num_interior)

    # one row of slots per interior node: the diagonal, then the neighbours
    # at -m, +m, -1, +1; boundary neighbours are dropped
    full = grid.interior_indices
    k = full_to_int[full]
    nbs = full_to_int[full[:, None] + np.array([-m, m, -1, 1])]
    cols = np.column_stack([k, nbs])
    vals = np.empty(cols.shape)
    vals[:, 0] = 4.0 / h2
    vals[:, 1:] = -1.0 / h2
    keep = cols >= 0
    rows = np.broadcast_to(k[:, None], cols.shape)
    N = grid.num_interior
    mat = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(N, N))
    return SparseMatrix.from_scipy(mat)


def _neumann_matrix(grid: Grid) -> SparseMatrix:
    n = grid.n
    m = n + 1

    # per node, the edge to +x then the edge to +y, each as four entries
    # (a,a), (b,b), (a,b), (b,a) with symmetric conductance (face length /
    # node distance); rows are divided by node weights afterwards
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
    A = sp.diags(1.0 / grid.weights) @ L
    return SparseMatrix.from_scipy(A)


def integrate(grid: Grid, field: np.ndarray) -> float:
    """Trapezoidal integral of a per-node field over the unit square."""
    field = np.asarray(field)
    if field.shape != grid.weights.shape:
        raise GridError(
            f"field has {field.shape[0] if field.ndim else 0} entries, "
            f"grid has {grid.num_nodes} nodes"
        )
    return float(grid.weights @ field)
