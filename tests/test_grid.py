import numpy as np
import pytest
import scipy.sparse as sp

from blebsheet.dynamics import Operators
from blebsheet.grid import (
    DiaMatrix,
    Grid,
    SparseMatrix,
    assemble_dirichlet,
    assemble_laplacian,
    build_grid,
    integrate,
)

from dia_forms import as_scipy, canonical_csr


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
    assert (*g.restrict(g.node_x), *g.restrict(g.node_y)) == (0.5, 0.5)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33])
def test_weights_sum_to_area(n):
    g = build_grid(n)
    assert abs(g.weights.sum() - 1.0) <= 1e-14
    assert g.boundary_mask.sum() == 4 * n
    assert abs(g.spacing * n - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [1, 0, -3])
def test_rejects_too_small(n):
    with pytest.raises(ValueError, match="at least 2 cells"):
        build_grid(n)


def test_dirichlet_n2_single_entry():
    A = Operators(build_grid(2)).A
    assert A.shape == (1, 1)
    assert as_scipy(A).toarray()[0, 0] == pytest.approx(16.0)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_neumann_weighted_left_nullspace(n):
    # the strong form diag(1/w) L has the weights as its left null vector,
    # because w @ diag(1/w) L = 1 @ L, which vanishes exactly
    g = build_grid(n)
    L = as_scipy(assemble_laplacian(g))
    assert np.array_equal(np.ones(g.num_nodes) @ L, np.zeros(g.num_nodes))
    assert np.abs(g.weights @ (sp.diags(1.0 / g.weights) @ L)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 5, 16])
def test_neumann_constant_kernel(n):
    g = build_grid(n)
    L = assemble_laplacian(g)
    assert np.array_equal(L @ np.ones(g.num_nodes), np.zeros(g.num_nodes))


def test_neumann_weighted_self_adjoint():
    # the strong form diag(1/w) L is self-adjoint in the weighted inner
    # product because W diag(1/w) L = L is exactly symmetric
    L = as_scipy(assemble_laplacian(build_grid(9)))
    assert (L - L.T).count_nonzero() == 0


def test_dirichlet_spd():
    g = build_grid(6)
    A = Operators(g).A
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(g.num_interior)
        assert v @ (A @ v) > 0.0


def _laplacian_error(n: int) -> float:
    g = build_grid(n)
    A = Operators(g).A
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
    with pytest.raises(ValueError, match="entries"):
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
    # operators after they are built.  Both are built from their diagonals,
    # and the node-by-node loop references are their oracles: A is bitwise
    # the 5-point stencil with entries 4 / spacing**2 and -1 / spacing**2
    grid = build_grid(n)
    ops = Operators(grid)
    csr = {"A": _dirichlet_reference(grid), "LN": _neumann_reference(grid)}
    built = {"A": assemble_dirichlet(grid), "LN": assemble_laplacian(grid)}
    for name, line in (("A", n - 1), ("LN", n + 1)):
        M = getattr(ops, name)
        assert type(M) is DiaMatrix, name
        offsets = [0] if M.shape[0] == 1 else [-line, -1, 0, 1, line]
        assert M.offsets.tolist() == offsets, name
        assert M.data.shape == (len(offsets), M.shape[1]), name
        assert built[name].data.tobytes() == M.data.tobytes(), name
        # a leg that leaves the grid stores +0.0, which adds nothing to any sum
        assert not np.any(np.signbit(M.data[M.data == 0.0])), name
        # the stored diagonals hold exactly the canonical assembly's entries
        back = as_scipy(M).tocsr()
        assert _columns_strictly_increasing(back), name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, part), getattr(csr[name], part)), name
    for name in ("A", "LN"):
        M = as_scipy(getattr(ops, name))
        assert (M - M.T).count_nonzero() == 0, name


def test_dia_kernel_is_the_one_scipy_loads():
    # the package loads scipy's _sparsetools extension by path, without
    # importing scipy; the bitwise pin of its product to scipy's public DIA
    # product (test_dynamics) holds for the kernel that runs only if both
    # come from the same file
    from blebsheet import grid
    from scipy.sparse import _sparsetools

    assert grid._sparsetools.__file__ == _sparsetools.__file__


def test_embed_restrict_roundtrip():
    g = build_grid(6)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.num_interior)
    full = g.embed(v)
    assert np.array_equal(g.restrict(full), v)
    assert np.all(full[g.boundary_mask] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_embed_restrict_match_index_form(n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    full = rng.standard_normal(g.num_nodes)
    interior_indices = np.flatnonzero(~g.boundary_mask)
    inner = g.restrict(full)
    assert np.array_equal(inner, full[interior_indices])
    assert not np.shares_memory(inner, full)  # a new array, as indexing gives
    expected = np.zeros(g.num_nodes)
    expected[interior_indices] = inner
    assert np.array_equal(g.embed(inner), expected)


def _dirichlet_reference(grid):
    """The 5-point clamped stencil, node by node, in canonical CSR form."""
    n = grid.n

    def interior(i, j):
        """Index of node (i, j) among the interior nodes, or None on the boundary."""
        return (i - 1) * (n - 1) + (j - 1) if 0 < i < n and 0 < j < n else None

    h2 = grid.spacing ** 2
    rows, cols, vals = [], [], []
    for i in range(1, n):
        for j in range(1, n):
            k = interior(i, j)
            rows.append(k)
            cols.append(k)
            vals.append(4.0 / h2)
            for knb in (interior(i - 1, j), interior(i + 1, j), interior(i, j - 1),
                        interior(i, j + 1)):
                if knb is not None:
                    rows.append(k)
                    cols.append(knb)
                    vals.append(-1.0 / h2)
    N = grid.num_interior
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    return canonical_csr(mat)


def _neumann_reference(grid):
    """The no-flux weak-form Laplacian, edge by edge, in canonical CSR form."""
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
    return canonical_csr(L)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bc, reference", [("dirichlet0", _dirichlet_reference),
                                           ("neumann0", _neumann_reference)])
def test_assembly_matches_loop_reference(bc, reference, n):
    # the clamped (Dirichlet) stencil is Operators.A
    g = build_grid(n)
    got = canonical_csr(Operators(g).A if bc == "dirichlet0" else assemble_laplacian(g))
    want = reference(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    if bc == "neumann0":
        ones, zeros = np.ones(g.num_nodes), np.zeros(g.num_nodes)
        assert (got - got.T).count_nonzero() == 0
        assert np.array_equal(got @ ones, zeros) and np.array_equal(ones @ got, zeros)
