import numpy as np
import pytest
import scipy.sparse as sp

from blebsheet.dynamics import Operators
from blebsheet.grid import (
    Grid,
    GridError,
    SparseMatrix,
    assemble_laplacian,
    build_grid,
    integrate,
)


def _columns_strictly_increasing(M) -> bool:
    """Column indices of the CSR matrix ``M`` strictly increase within each row."""
    d = np.diff(M.indices)
    if d.size == 0:
        return True
    # differences that straddle a row boundary carry no ordering constraint
    boundary = np.zeros(d.size, dtype=bool)
    ends = np.asarray(M.indptr[1:-1], dtype=np.int64) - 1
    ends = ends[(ends >= 0) & (ends < d.size)]
    boundary[ends] = True
    return bool(np.all(d[~boundary] > 0))


def test_counting_n4():
    g = build_grid(4)
    assert g.num_nodes == 25
    assert g.spacing == 0.25
    assert g.boundary_mask.sum() == 16


def test_single_interior_node_n2():
    g = build_grid(2)
    assert g.num_interior == 1
    idx = g.interior_indices[0]
    assert (g.node_x[idx], g.node_y[idx]) == (0.5, 0.5)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33])
def test_weights_sum_to_area(n):
    g = build_grid(n)
    assert abs(g.weights.sum() - 1.0) <= 1e-14
    assert g.boundary_mask.sum() == 4 * n
    assert abs(g.spacing * n - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [1, 0, -3])
def test_rejects_too_small(n):
    with pytest.raises(GridError):
        build_grid(n)


def test_dirichlet_n2_single_entry():
    A = assemble_laplacian(build_grid(2), "dirichlet0")
    assert A.shape == (1, 1)
    assert A.toarray()[0, 0] == pytest.approx(16.0)


def test_unknown_bc_rejected():
    with pytest.raises(ValueError):
        assemble_laplacian(build_grid(4), "periodic")


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_neumann_weighted_left_nullspace(n):
    g = build_grid(n)
    A = assemble_laplacian(g, "neumann0")
    assert np.abs(g.weights @ A).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 5, 16])
def test_neumann_constant_kernel(n):
    g = build_grid(n)
    A = assemble_laplacian(g, "neumann0")
    assert np.abs(A @ np.ones(g.num_nodes)).max() <= 1e-12


def test_neumann_weighted_self_adjoint():
    # the operator is self-adjoint in the weighted inner product: W A symmetric
    g = build_grid(9)
    A = assemble_laplacian(g, "neumann0")
    WA = sp.diags(g.weights) @ A
    asym = np.abs((WA - WA.T).toarray()).max()
    assert asym <= 1e-14


def test_dirichlet_spd():
    g = build_grid(6)
    A = assemble_laplacian(g, "dirichlet0")
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(g.num_interior)
        assert v @ (A @ v) > 0.0


def _laplacian_error(n: int) -> float:
    g = build_grid(n)
    A = assemble_laplacian(g, "dirichlet0")
    u = np.sin(np.pi * g.node_x) * np.sin(np.pi * g.node_y)
    exact = 2.0 * np.pi**2 * u
    err = A @ g.restrict(u) - g.restrict(exact)
    return float(np.max(np.abs(err)))


def test_manufactured_solution_second_order():
    ratio = _laplacian_error(32) / _laplacian_error(64)
    assert 3.6 <= ratio <= 4.4


def test_integrate_constants():
    g = build_grid(5)
    assert integrate(g, np.ones(g.num_nodes)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(g, np.zeros(g.num_nodes)) == 0.0


def test_integrate_bilinear_exact():
    g = build_grid(64)
    assert integrate(g, g.node_x * g.node_y) == pytest.approx(0.25, abs=1e-6)


def test_integrate_length_mismatch():
    g = build_grid(4)
    with pytest.raises(GridError):
        integrate(g, np.ones(7))


def test_from_scipy_sorts_and_sums_duplicate_columns():
    # one row with columns 2, 0, 2: unsorted, and column 2 twice
    raw = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 2]), np.array([0, 3])),
                        shape=(1, 3))
    assert not _columns_strictly_increasing(raw)
    M = SparseMatrix.from_scipy(raw)
    assert _columns_strictly_increasing(M)
    assert np.array_equal(M.toarray(), [[2.0, 0.0, 4.0]])


@pytest.mark.parametrize("n", [*range(2, 41), 64, 128])
def test_assembled_operators_are_canonical(n):
    # every product runs scipy's DIA kernel, which adds a row's terms one
    # diagonal at a time in offset order; sorted offsets make that the
    # canonical CSR column order, and nothing re-sorts or re-symmetrizes the
    # operators after assembly
    grid = build_grid(n)
    ops = Operators(grid)
    csr = {"A": assemble_laplacian(grid, "dirichlet0"),
           "AN": assemble_laplacian(grid, "neumann0")}
    csr["LN"] = SparseMatrix.from_scipy(sp.diags(grid.weights) @ csr["AN"])
    for name, line in (("A", n - 1), ("AN", n + 1), ("LN", n + 1)):
        M = getattr(ops, name)
        assert M.format == "dia", name
        offsets = [0] if M.shape[0] == 1 else [-line, -1, 0, 1, line]
        assert M.offsets.tolist() == offsets, name
        # the stored diagonals hold exactly the canonical assembly's entries
        back = M.tocsr()
        assert _columns_strictly_increasing(back), name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, part), getattr(csr[name], part)), name
    for name in ("A", "LN"):
        M = getattr(ops, name)
        assert (M - M.T).count_nonzero() == 0, name


def test_embed_restrict_roundtrip():
    g = build_grid(6)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.num_interior)
    full = g.embed(v)
    assert np.array_equal(g.restrict(full), v)
    assert np.all(full[g.boundary_mask] == 0.0)


def _dirichlet_reference(grid):
    """The node-by-node loop the vectorized assembly replaced."""
    n = grid.n
    m = n + 1
    h2 = grid.spacing ** 2
    full_to_int = -np.ones(grid.num_nodes, dtype=np.int64)
    full_to_int[grid.interior_indices] = np.arange(grid.num_interior)
    rows, cols, vals = [], [], []
    for full in grid.interior_indices:
        k = full_to_int[full]
        rows.append(k)
        cols.append(k)
        vals.append(4.0 / h2)
        for nb in (full - m, full + m, full - 1, full + 1):
            knb = full_to_int[nb]
            if knb >= 0:
                rows.append(k)
                cols.append(knb)
                vals.append(-1.0 / h2)
    N = grid.num_interior
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    return SparseMatrix.from_scipy(mat)


def _neumann_reference(grid):
    """The node-by-node loop the vectorized assembly replaced."""
    n = grid.n
    m = n + 1
    rows, cols, vals = [], [], []

    def add_edge(a, b, conduct):
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((conduct, conduct, -conduct, -conduct))

    for i in range(m):
        for j in range(m):
            a = i * m + j
            if i < n:
                add_edge(a, a + m, 1.0 if 0 < j < n else 0.5)
            if j < n:
                add_edge(a, a + 1, 1.0 if 0 < i < n else 0.5)
    L = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    A = sp.diags(1.0 / grid.weights) @ L
    return SparseMatrix.from_scipy(A)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bc, reference", [("dirichlet0", _dirichlet_reference),
                                           ("neumann0", _neumann_reference)])
def test_assembly_matches_loop_reference(bc, reference, n):
    g = build_grid(n)
    got = assemble_laplacian(g, bc)
    want = reference(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
