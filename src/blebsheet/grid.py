"""Uniform node-centered grid on the closed unit square and its Laplacian.

Conventions used throughout the package:

- Nodes are laid out row-major with the x index slow: node ``i * (n+1) + j``
  sits at ``(i * spacing, j * spacing)``.
- Quadrature weights are trapezoidal: ``spacing**2`` in the interior, half of
  that on edges, a quarter in corners.  They sum to the unit-square area.
- :func:`assemble_laplacian` (weak form, all nodes, no-flux edges) and
  :func:`assemble_dirichlet` (clamped 5-point stencil, interior nodes) build
  the NEGATIVE Laplacian from its five diagonals, so every operator built
  from them is positive (semi)definite.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np


def _load_sparsetools():
    """scipy's ``sparse/_sparsetools`` extension by path: no scipy ``__init__`` runs."""
    found = importlib.util.find_spec("scipy")
    where = os.path.join(found.submodule_search_locations[0], "sparse") if found else "scipy"
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [where] if found else [])
    if spec is None:
        raise ImportError(f"scipy's DIA kernel, the extension _sparsetools, is not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


class DiaMatrix:
    """A matrix stored by diagonals, with a product and nothing else.

    ``data[k, j]`` is the entry in column ``j`` of the diagonal at
    ``offsets[k]``, as in ``scipy.sparse.dia_matrix((data, offsets),
    shape)``.  ``A @ x`` on a float64 vector calls ``dia_matvec``, the
    compiled kernel that scipy's DIA product reaches after its Python
    dispatch, so it is bitwise that product without the dispatch.  The
    kernel is private to scipy; the tests pin the product to scipy's
    public one, and the kernel to the file scipy itself loads.
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
        _sparsetools.dia_matvec(rows, cols, len(self.offsets), self.data.shape[1],
                                self.offsets, self.data, x, y)
        return y


class SparseMatrix:
    """Holder of :meth:`from_scipy`, unused by the package: the benchmark runner wraps it."""

    @classmethod
    def from_scipy(cls, mat):
        """``mat`` in scipy CSR form, with sorted, unique column indices in each row."""
        import scipy.sparse as sp

        csr = sp.csr_matrix(mat)
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

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def num_interior(self) -> int:
        return (self.n - 1) ** 2

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Interior values of a full-grid field, row-major, as a new array."""
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
        raise ValueError(f"need at least 2 cells per side, got n={n}")
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

    return Grid(
        n=n,
        spacing=spacing,
        node_x=X.ravel(),
        node_y=Y.ravel(),
        boundary_mask=boundary.ravel(),
        weights=w.ravel(),
    )


def _five_point(conduct: np.ndarray, scale: float) -> DiaMatrix:
    """5-point negative Laplacian of an ``(l, l)`` node block, over ``scale``.

    The edge from node ``(p, q)`` to ``(p+1, q)`` has conductance
    ``conduct[q]``, the edge to ``(p, q+1)`` has ``conduct[p]``.  Offsets
    ``[-l, -1, 0, 1, l]`` (only ``0`` for one node), with ``+0.0`` where a
    leg leaves the block; each entry is one division by ``scale``.
    """
    l = conduct.size
    data = np.zeros((5, l, l))
    data[0, :-1] = data[4, 1:] = -conduct  # to and from the next node along x
    data[1, :, :-1] = data[3, :, 1:] = -conduct[:, None]  # along y
    # a node's edges sum to 4 c_p c_q: every c is 1, or 1/2 on the end lines
    data[2] = 4.0 * np.outer(conduct, conduct)
    data /= scale
    keep = [2] if l == 1 else [0, 1, 2, 3, 4]  # a single node stores its main diagonal alone
    offsets = np.array([-l, -1, 0, 1, l], dtype=np.int32)[keep]
    return DiaMatrix(data[keep].reshape(len(keep), l * l), offsets, (l * l, l * l))


def assemble_laplacian(grid: Grid) -> DiaMatrix:
    """The finite-volume (weak-form) negative Laplacian on all nodes, no-flux edges.

    Edge conductance is face length over node distance: 1 inside, 1/2 along
    the boundary.  Exactly symmetric, with constants spanning both null
    spaces (``L @ 1 == 0 == 1 @ L``), which keeps the discrete linker mass
    exact; divided by the node weights it is the strong-form operator.
    """
    conduct = np.ones(grid.n + 1)
    conduct[[0, -1]] = 0.5
    return _five_point(conduct, 1.0)


def assemble_dirichlet(grid: Grid) -> DiaMatrix:
    """Clamped 5-point negative Laplacian of the interior nodes, over ``spacing**2``."""
    return _five_point(np.ones(grid.n - 1), grid.spacing ** 2)


def integrate(grid: Grid, field: np.ndarray) -> float:
    """Trapezoidal integral of a per-node field over the unit square."""
    field = np.asarray(field)
    if field.shape != grid.weights.shape:
        raise ValueError(
            f"field has {field.shape[0] if field.ndim else 0} entries, "
            f"grid has {grid.num_nodes} nodes"
        )
    return float(grid.weights @ field)
