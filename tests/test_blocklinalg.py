"""Block sparse matrices, stationary iteration, GMRES, and factorizations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from polydg import blocklinalg
from polydg.basis import DgSpace
from polydg.blocklinalg import (BlockSparseMatrix, LinalgError,
                                block_jacobi_solve, factor_bilu0,
                                factor_block_jacobi, gmres,
                                jacobi_iteration_matrix, spectral_radius)
from polydg.discretization import assemble_advection, rotating_velocity
from polydg.mesh import (build_random_mesh_pair, build_regular_mesh,
                         natural_ordering)
from polydg.timestepping import backward_euler_system


def random_block_matrix(n, b, density=0.3, seed=0, sdd=True):
    """Random block matrix with nonsingular (diagonally dominant) diagonal."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() < density:
                blocks[(i, j)] = rng.standard_normal((b, b))
    if sdd:
        for i in range(n):
            blocks[(i, i)] += (b * n) * np.eye(b)
    return BlockSparseMatrix.from_block_dict(n, b, blocks)


def test_matvec_matches_dense():
    A = random_block_matrix(6, 3, seed=1)
    x = np.random.default_rng(2).standard_normal(A.dim)
    assert np.allclose(A.matvec(x), A.to_dense() @ x)


def test_scaled_add_diag():
    A = random_block_matrix(4, 2, seed=3)
    D = np.stack([np.eye(2) * (i + 1.0) for i in range(4)])
    B = A.scaled_add_diag(0.5, D)
    dense = 0.5 * A.to_dense()
    for i in range(4):
        dense[2 * i:2 * i + 2, 2 * i:2 * i + 2] += D[i]
    assert np.allclose(B.to_dense(), dense)


def test_permuted_is_similarity():
    A = random_block_matrix(5, 2, seed=4)
    perm = np.array([3, 1, 4, 0, 2])
    B = A.permuted(perm)
    dense = A.to_dense()
    idx = np.concatenate([np.arange(2 * p, 2 * p + 2) for p in perm])
    assert np.allclose(B.to_dense(), dense[np.ix_(idx, idx)])


def test_block_diagonal_converges_in_one_iteration():
    rng = np.random.default_rng(5)
    blocks = {(i, i): rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
              for i in range(4)}
    A = BlockSparseMatrix.from_block_dict(4, 3, blocks)
    rhs = rng.standard_normal(A.dim)
    x, it, _, ok = block_jacobi_solve(A, rhs)
    assert ok and it == 1
    assert np.allclose(A.matvec(x), rhs)


def test_jacobi_count_invariant_under_permutation():
    A = random_block_matrix(8, 2, seed=6)
    rhs = np.random.default_rng(7).standard_normal(A.dim)
    _, it0, _, ok0 = block_jacobi_solve(A, rhs)
    perm = np.random.default_rng(8).permutation(8)
    idx = np.concatenate([np.arange(2 * p, 2 * p + 2) for p in perm])
    _, it1, _, ok1 = block_jacobi_solve(A.permuted(perm), rhs[idx])
    assert ok0 and ok1 and it0 == it1


def test_gmres_identity_and_exact_preconditioner():
    A = BlockSparseMatrix.from_block_dict(3, 2, {(i, i): np.eye(2)
                                                 for i in range(3)})
    rhs = np.arange(6, dtype=float)
    x, it, _, ok = gmres(A, rhs)
    assert ok and it <= 1 and np.allclose(x, rhs)
    # exact (block diagonal) preconditioner on a block-diagonal system
    B = random_block_matrix(5, 3, density=0.0, seed=9)
    rhs = np.random.default_rng(10).standard_normal(B.dim)
    x, it, _, ok = gmres(B, rhs, preconditioner=factor_block_jacobi(B))
    assert ok and it <= 2
    assert np.linalg.norm(B.matvec(x) - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_gmres_zero_rhs():
    A = random_block_matrix(3, 2, seed=11)
    x, it, _, ok = gmres(A, np.zeros(A.dim))
    assert ok and it == 0 and np.all(x == 0.0)


def test_gmres_restart_still_converges(monkeypatch):
    monkeypatch.setattr(blocklinalg, "RESTART", 5)
    A = random_block_matrix(30, 2, density=0.15, seed=12)
    rhs = np.random.default_rng(13).standard_normal(A.dim)
    x, it, _, ok = gmres(A, rhs, tol=1e-12)
    assert ok
    assert np.linalg.norm(A.matvec(x) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def mgs_gmres(A, rhs, prec, restart, tol, max_iters=10000):
    """The restarted GMRES that orthogonalized by modified Gram-Schmidt and
    one re-orthogonalization pass, one vector at a time."""
    n = A.dim
    x = np.zeros(n)
    bnorm = np.linalg.norm(rhs)
    total = 0
    while total <= max_iters:
        r = rhs - A.matvec(x)
        beta = np.linalg.norm(r)
        if beta <= tol * bnorm:
            return x, total
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs, sn, g = np.zeros(restart), np.zeros(restart), np.zeros(restart + 1)
        V[0], g[0] = r / beta, beta
        for j in range(restart):
            w = A.matvec(prec(V[j]))
            total += 1
            for i in range(j + 1):
                H[i, j] = np.dot(V[i], w)
                w = w - H[i, j] * V[i]
            for i in range(j + 1):
                c = np.dot(V[i], w)
                H[i, j] += c
                w = w - c * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j], H[j + 1, j] = denom, 0.0
            g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
            if abs(g[j + 1]) <= tol * bnorm:
                break
        y = scipy.linalg.solve_triangular(H[:j + 1, :j + 1], g[:j + 1])
        x = x + prec(V[:j + 1].T @ y)
    return x, total


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("restart", [5, 20])
@pytest.mark.parametrize("jacobi", [False, True])
def test_gmres_matches_the_one_vector_at_a_time_reference(monkeypatch, seed,
                                                          restart, jacobi):
    # two classical Gram-Schmidt passes sum in another order than the
    # modified Gram-Schmidt loop: the count stays, x moves by rounding
    A = random_block_matrix(40, 3, density=0.2, seed=seed, sdd=False)
    A = A.scaled_add_diag(1.0, 8.0 * np.eye(3)[None].repeat(40, axis=0))
    rhs = np.random.default_rng(100 + seed).standard_normal(A.dim)
    fac = factor_block_jacobi(A) if jacobi else None
    monkeypatch.setattr(blocklinalg, "RESTART", restart)
    x, it, _, ok = gmres(A, rhs, preconditioner=fac, tol=1e-12)
    x_ref, it_ref = mgs_gmres(A, rhs, fac.apply if jacobi else lambda v: v,
                              restart, 1e-12)
    assert ok and it == it_ref
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def lower_triangular_block_matrix(n, b, seed):
    rng = np.random.default_rng(seed)
    blocks = {}
    for i in range(n):
        blocks[(i, i)] = rng.standard_normal((b, b)) + 3.0 * b * np.eye(b)
        if i > 0:
            blocks[(i, i - 1)] = rng.standard_normal((b, b))
    return BlockSparseMatrix.from_block_dict(n, b, blocks)


def test_bilu0_exact_on_block_lower_triangular():
    A = lower_triangular_block_matrix(7, 3, seed=14)
    fac = factor_bilu0(A)
    assert np.max(np.abs(fac.lu_product_dense() - A.to_dense())) < 1e-10
    rhs = np.random.default_rng(15).standard_normal(A.dim)
    _, it, _, ok = gmres(A, rhs, preconditioner=fac)
    assert ok and it == 1


def test_bilu0_ordering_matters():
    # reversing the ordering turns the lower-triangular matrix into an
    # upper-triangular one whose incomplete factorization is still exact,
    # but a two-sided (tridiagonal-coupled) matrix incurs fill either way
    rng = np.random.default_rng(16)
    n, b = 9, 2
    blocks = {}
    for i in range(n):
        blocks[(i, i)] = rng.standard_normal((b, b)) + 4.0 * b * np.eye(b)
        if i > 0:
            blocks[(i, i - 1)] = rng.standard_normal((b, b))
        if i + 2 < n:
            blocks[(i, i + 2)] = rng.standard_normal((b, b))
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    fac = factor_bilu0(A)
    # incomplete: fill outside the pattern is dropped
    err = np.abs(fac.lu_product_dense() - A.to_dense())
    mask = np.ones((n * b, n * b), bool)
    for (i, j) in blocks:
        mask[i * b:(i + 1) * b, j * b:(j + 1) * b] = False
    assert np.max(err[~mask]) < 1e-10  # pattern entries reproduced
    rhs = rng.standard_normal(A.dim)
    _, it, _, ok = gmres(A, rhs, preconditioner=fac, tol=1e-12)
    assert ok and it >= 2


def singular_in_row_one():
    A = lower_triangular_block_matrix(3, 2, seed=18)
    blocks = A.blocks.copy()
    blocks[A._diag[1]] = 0.0
    return BlockSparseMatrix(A.n, A.b, A.indptr, A.indices, blocks)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_block_jacobi_names_the_singular_row():
    with pytest.raises(LinalgError, match="singular diagonal block in row 1$"):
        factor_block_jacobi(singular_in_row_one())


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_bilu0_names_the_singular_elimination_step():
    # row 1 reads no upper block of row 0, so its pivot block stays zero
    with pytest.raises(LinalgError,
                       match="singular pivot block at elimination step 1$"):
        factor_bilu0(singular_in_row_one())


@pytest.mark.parametrize("solve", [block_jacobi_solve, gmres])
def test_solvers_stop_unconverged_at_max_iters(monkeypatch, solve):
    monkeypatch.setattr(blocklinalg, "MAX_ITERS", 2)
    A = random_block_matrix(6, 2, seed=3)
    _, it, _, ok = solve(A, np.ones(A.dim), tol=1e-14)
    assert (it, ok) == (2, False)
    assert ok is False


@pytest.mark.parametrize("solve", [block_jacobi_solve, gmres])
@pytest.mark.parametrize("max_iters", [2, blocklinalg.MAX_ITERS])
def test_solvers_return_the_residual_of_their_x(monkeypatch, solve,
                                                max_iters):
    # converged, stopped at the cap, and a zero right-hand side: the
    # residual returned is bitwise the one solve_linear once recomputed
    monkeypatch.setattr(blocklinalg, "MAX_ITERS", max_iters)
    A = random_block_matrix(6, 2, seed=18)
    for rhs in (np.ones(A.dim), np.zeros(A.dim)):
        x, _, res, ok = solve(A, rhs, tol=1e-12)
        assert bool(ok) == (max_iters > 2 or not rhs.any())
        assert res == np.linalg.norm(rhs - A.matvec(x))


def test_jacobi_iteration_matrix_and_cap(monkeypatch):
    A = random_block_matrix(4, 2, seed=17)
    R = jacobi_iteration_matrix(A)
    # diagonal blocks of R vanish
    for i in range(4):
        assert np.max(np.abs(R[2 * i:2 * i + 2, 2 * i:2 * i + 2])) < 1e-12
    monkeypatch.setattr(blocklinalg, "DENSE_DIM_CAP", 4)
    with pytest.raises(LinalgError):
        jacobi_iteration_matrix(A)


def test_dense_eigenvalue_guards():
    assert spectral_radius(np.diag([1.0, -4.0])) == pytest.approx(4.0)


def test_jacobi_spectrum_convergence_consistency():
    # iteration converges iff the spectral radius of R_J is below one;
    # check the count roughly follows the contraction rate
    A = random_block_matrix(6, 2, seed=18)
    R = jacobi_iteration_matrix(A)
    rho = spectral_radius(R)
    assert rho < 1.0
    rhs = np.random.default_rng(19).standard_normal(A.dim)
    _, it, _, ok = block_jacobi_solve(A, rhs, tol=1e-12)
    assert ok
    predicted = np.log(1e-12) / np.log(rho)
    assert it <= 4 * predicted + 10


def test_from_block_dict_rejects_keys_outside_range():
    for key in [(0, 5), (2, 0), (-1, 1), (1, 2)]:
        with pytest.raises(LinalgError, match="outside"):
            BlockSparseMatrix.from_block_dict(
                2, 1, {(0, 0): np.eye(1), key: np.eye(1)})


def test_from_coo_sums_duplicates_in_order_and_inserts_diagonals():
    rng = np.random.default_rng(21)
    blk = rng.standard_normal((5, 2, 2))
    A = BlockSparseMatrix.from_coo(3, 2, [0, 2, 0, 2, 0], [1, 0, 1, 0, 1],
                                   blk)
    assert A.indptr.tolist() == [0, 2, 3, 5]
    assert A.indices.tolist() == [0, 1, 1, 0, 2]
    assert np.array_equal(A.blocks[1], (blk[0] + blk[2]) + blk[4])
    assert np.array_equal(A.blocks[3], blk[1] + blk[3])
    for i in (0, 2, 4):
        assert np.array_equal(A.blocks[i], np.zeros((2, 2)))


def test_from_coo_rejects_keys_outside_range():
    for row, col in [(0, 3), (3, 0), (-1, 1), (1, -2)]:
        with pytest.raises(LinalgError, match="outside"):
            BlockSparseMatrix.from_coo(3, 1, [0, row], [0, col],
                                       np.ones((2, 1, 1)))


def test_constructor_checks_structure():
    one = np.ones((2, 1, 1))
    with pytest.raises(LinalgError, match="indptr"):
        BlockSparseMatrix(2, 1, [0, 2], [0, 1], one)       # too short
    with pytest.raises(LinalgError, match="indptr"):
        BlockSparseMatrix(2, 1, [0, 1, 2, 2], [0, 1], one)  # too long
    with pytest.raises(LinalgError, match="indptr"):
        BlockSparseMatrix(2, 1, [0, 2, 1], [0, 1], one)     # decreasing
    with pytest.raises(LinalgError, match="outside"):
        BlockSparseMatrix(2, 1, [0, 1, 2], [0, 5], one)
    with pytest.raises(LinalgError, match="outside"):
        BlockSparseMatrix(2, 1, [0, 1, 2], [0, -1], one)
    with pytest.raises(LinalgError, match="duplicate"):
        BlockSparseMatrix(2, 1, [0, 2, 2], [1, 0], one)
    with pytest.raises(LinalgError, match="missing diagonal block in row 1"):
        BlockSparseMatrix(2, 1, [0, 1, 2], [0, 0], one)
    with pytest.raises(LinalgError, match="shape"):
        BlockSparseMatrix(2, 2, [0, 1, 2], [0, 1], one)


# -- property tests over random patterns, sizes and orderings ----------------

@st.composite
def block_systems(draw, full_diagonal=False):
    """(n, b, {(row, col): block}, ordering): a random block pattern whose
    rows may have no off-diagonal blocks and, unless full_diagonal, may miss
    their diagonal block. With full_diagonal the diagonal blocks dominate, so
    every ILU(0) pivot is nonsingular."""
    n = draw(st.integers(1, 9))
    b = draw(st.integers(1, 3))
    keys = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1)), max_size=n * n))
    if full_diagonal:
        keys |= {(i, i) for i in range(n)}
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = {key: rng.standard_normal((b, b)) for key in sorted(keys)}
    if full_diagonal:
        for i in range(n):
            blocks[(i, i)] += 2.0 * b * n * np.eye(b)
    ordering = np.array(draw(st.permutations(range(n))))
    return n, b, blocks, ordering


def dense_reference(n, b, blocks):
    dense = np.zeros((n * b, n * b))
    for (i, j), blk in blocks.items():
        dense[i * b:(i + 1) * b, j * b:(j + 1) * b] = blk
    return dense


def block_inverse_reference(block):
    lu, piv = scipy.linalg.lu_factor(block, check_finite=False)
    return scipy.linalg.lu_solve((lu, piv), np.eye(len(block)),
                                 check_finite=False)


def bilu0_reference(A, ordering):
    """Row-by-row block IKJ elimination of A.permuted(ordering): (the
    factor's blocks in stored order, the inverses of U's diagonal blocks)."""
    P = A.permuted(ordering)
    indptr, indices, blocks = P.indptr, P.indices, P.blocks.copy()
    rows = np.repeat(np.arange(P.n), np.diff(indptr))
    pos = {ij: k for k, ij in enumerate(zip(rows.tolist(), indices.tolist()))}
    uinv = np.empty((P.n, P.b, P.b))
    for i in range(P.n):
        for kk in range(indptr[i], indptr[i + 1]):
            kcol = indices[kk]
            if kcol >= i:
                break
            blocks[kk] = blocks[kk] @ uinv[kcol]
            Lik = blocks[kk]
            for kj in range(indptr[kcol], indptr[kcol + 1]):
                j = indices[kj]
                if j <= kcol:
                    continue
                p = pos.get((i, j))
                if p is not None:
                    blocks[p] = blocks[p] - Lik @ blocks[kj]
        uinv[i] = block_inverse_reference(blocks[pos[(i, i)]])
    return blocks, uinv


def ilu0_apply_reference(fac, x):
    """Block-by-block forward and backward sweeps, one row at a time."""
    F, uinv = fac.stored()
    xb = x.reshape(fac.n, fac.b)[fac.ordering]
    y = np.zeros_like(xb)
    for i in range(fac.n):
        acc = xb[i]
        for k in range(F.indptr[i], F.indptr[i + 1]):
            j = F.indices[k]
            if j >= i:
                break
            acc = acc - F.blocks[k] @ y[j]
        y[i] = acc
    z = np.zeros_like(xb)
    for i in range(fac.n - 1, -1, -1):
        acc = y[i]
        for k in range(F.indptr[i], F.indptr[i + 1]):
            j = F.indices[k]
            if j > i:
                acc = acc - F.blocks[k] @ z[j]
        z[i] = uinv[i] @ acc
    out = np.empty_like(z)
    out[fac.ordering] = z
    return out.reshape(x.shape)


@settings(max_examples=60, deadline=None)
@given(block_systems())
def test_from_block_dict_and_permuted_match_dense(system):
    n, b, blocks, ordering = system
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    expected_keys = sorted(set(blocks) | {(i, i) for i in range(n)})
    assert A.indices.tolist() == [j for _, j in expected_keys]
    assert np.array_equal(np.diff(A.indptr),
                          np.bincount([i for i, _ in expected_keys],
                                      minlength=n))
    dense = dense_reference(n, b, blocks)
    assert np.array_equal(A.to_dense(), dense)
    idx = (b * ordering[:, None] + np.arange(b)).ravel()
    assert np.array_equal(A.permuted(ordering).to_dense(),
                          dense[np.ix_(idx, idx)])
    x = np.arange(n * b, dtype=float)
    assert np.allclose(A.matvec(x), dense @ x, rtol=1e-14, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(block_systems(), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_from_coo_matches_from_block_dict(system, copies, seed):
    # each block emitted as `copies` parts in a random order: the sums per
    # key are the parts added in emission order
    n, b, blocks, _ordering = system
    rng = np.random.default_rng(seed)
    keys = [key for key in blocks for _ in range(copies)]
    order = rng.permutation(len(keys))
    keys = [keys[k] for k in order]
    parts = rng.standard_normal((len(keys), b, b))
    summed = {}
    for key, part in zip(keys, parts):
        summed[key] = summed[key] + part if key in summed else part
    got = BlockSparseMatrix.from_coo(
        n, b, [i for i, _ in keys], [j for _, j in keys], parts)
    ref = BlockSparseMatrix.from_block_dict(n, b, summed)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.blocks, ref.blocks)


@settings(max_examples=60, deadline=None)
@given(block_systems(full_diagonal=True))
def test_bilu0_apply_matches_dense_solve_and_row_sweep(system):
    # the level-batched factor is bitwise the row-by-row elimination's, and
    # the block-Jacobi inverses are bitwise the per-block LU's
    n, b, blocks, ordering = system
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    fac = factor_bilu0(A, ordering)
    F, uinv = fac.stored()
    ref_blocks, ref_uinv = bilu0_reference(A, ordering)
    assert np.array_equal(F.blocks, ref_blocks)
    assert np.array_equal(uinv, ref_uinv)
    assert np.array_equal(
        factor_block_jacobi(A).dinv,
        [block_inverse_reference(d) for d in A.diagonal_blocks()])
    x = np.random.default_rng(n * b).standard_normal(A.dim)
    got = fac.apply(x)
    idx = (b * ordering[:, None] + np.arange(b)).ravel()
    expected = np.empty_like(x)
    expected[idx] = np.linalg.solve(fac.lu_product_dense(), x[idx])
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    ref = ilu0_apply_reference(fac, x)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def advect_system(mesh, p):
    """Backward Euler advection operator at k = 0.1 and its natural
    ordering."""
    M, L = assemble_advection(DgSpace(mesh, p), rotating_velocity)
    return backward_euler_system(M, L, 0.1), natural_ordering(mesh)


@pytest.mark.parametrize("kind", ["hexagon", "voronoi"])
def test_bilu0_row_panels_on_assembled_operators(kind):
    # p = 2 blocks are 6 x 6; the Voronoi rows hold uneven numbers of lower
    # and upper blocks, so most row panels are padded with zero blocks
    mesh = (build_regular_mesh("hexagon", 0.2 ** 2) if kind == "hexagon"
            else build_random_mesh_pair(0.2)[1])
    A, ordering = advect_system(mesh, 2)
    fac = factor_bilu0(A, ordering)
    F, uinv = fac.stored()
    ref_blocks, ref_uinv = bilu0_reference(A, ordering)
    assert np.array_equal(F.blocks, ref_blocks)
    assert np.array_equal(uinv, ref_uinv)
    rows = np.repeat(np.arange(F.n), np.diff(F.indptr))
    n_lower = np.bincount(rows[F.indices < rows], minlength=F.n)
    n_upper = np.bincount(rows[F.indices > rows], minlength=F.n)
    if kind == "voronoi":
        assert n_lower.max() - n_lower.min() >= 3
        assert n_upper.max() - n_upper.min() >= 3
    rng = np.random.default_rng(21)
    x, other = rng.standard_normal((2, A.dim))
    x_before = x.copy()
    got = fac.apply(x)
    assert np.array_equal(x, x_before)
    ref = ilu0_apply_reference(fac, x)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    # each apply returns its own array
    got_before = got.copy()
    fac.apply(other)
    assert np.array_equal(got, got_before)


class CountingPreconditioner:
    def __init__(self, fac):
        self.fac, self.calls = fac, 0

    def apply(self, v):
        self.calls += 1
        return self.fac.apply(v)


@pytest.mark.parametrize("kind", ["jacobi", "ilu0"])
def test_gmres_applies_the_preconditioner_once_per_step(monkeypatch, kind):
    # a cycle updates x from the preconditioned vectors it kept, so no
    # cycle applies M^{-1} once more; RESTART = 3 makes several cycles
    monkeypatch.setattr(blocklinalg, "RESTART", 3)
    mesh = build_regular_mesh("hexagon", 0.2 ** 2)
    A, ordering = advect_system(mesh, 2)
    prec = CountingPreconditioner(factor_block_jacobi(A) if kind == "jacobi"
                                  else factor_bilu0(A, ordering))
    rhs = np.random.default_rng(22).standard_normal(A.dim)
    x, it, _, ok = gmres(A, rhs, preconditioner=prec)
    assert ok and it > 3
    assert prec.calls == it
    assert (np.linalg.norm(rhs - A.matvec(x))
            <= blocklinalg.TOL * np.linalg.norm(rhs))


def held_arrays(obj, A, held):
    """The arrays that obj's attributes own, by id, without A's blocks:
    views count as their base, and lists, tuples and objects of
    blocklinalg are searched."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if not np.shares_memory(obj, A.blocks):
            held[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            held_arrays(item, A, held)
    elif type(obj).__module__ == blocklinalg.__name__:
        held_arrays(list(vars(obj).values()), A, held)
    return held


@pytest.mark.parametrize("kind", ["hexagon", "voronoi"])
def test_bilu0_holds_one_set_of_panels_padded_by_level(kind):
    # U_ii^{-1} is folded into U's panels in place, and each level's panels
    # are padded to its own widest row: all the factor holds fits in the
    # blocks of L's and U's panels so padded, U's pivots and their inverses
    mesh = (build_regular_mesh("hexagon", 0.2 ** 2) if kind == "hexagon"
            else build_random_mesh_pair(0.2)[1])
    A, ordering = advect_system(mesh, 3)
    fac = factor_bilu0(A, ordering)
    F = fac.stored()[0]
    rows = np.repeat(np.arange(F.n), np.diff(F.indptr))
    slots = 0
    for mask in (F.indices < rows, F.indices > rows):
        level = blocklinalg._levels(F.n, rows[mask], F.indices[mask])
        widest = np.zeros(level.max() + 1, dtype=np.int64)
        np.maximum.at(widest, level, np.bincount(rows[mask], minlength=F.n))
        slots += np.bincount(level) @ widest
    held = held_arrays(fac, A, {}).values()
    assert sum(a.nbytes for a in held) <= (
        (slots + 2 * F.n) * F.blocks[0].nbytes)


def levels_reference(n, rows, cols, lower):
    """The levels of a strictly lower (or upper) sweep, row by row in
    sweep order: one more than the highest level a row reads, else 0."""
    reads = [[] for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        reads[i].append(j)
    level = [0] * n
    for i in range(n) if lower else range(n - 1, -1, -1):
        level[i] = max((level[j] + 1 for j in reads[i]), default=0)
    return np.array(level, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), lower=st.booleans(), data=st.data())
def test_levels_equal_the_row_by_row_sweep(n, lower, data):
    # a random strictly lower or upper CSR pattern, rows in order
    pairs = [(i, j) for i in range(n) for j in range(n)
             if (j < i if lower else j > i)]
    picked = sorted(data.draw(st.sets(st.sampled_from(pairs))
                              if pairs else st.just(set())))
    rows, cols = np.array(picked, dtype=np.int64).reshape(-1, 2).T
    assert np.array_equal(blocklinalg._levels(n, rows, cols),
                          levels_reference(n, rows, cols, lower))


def test_bilu0_of_one_block_row():
    block = np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]])
    A = BlockSparseMatrix(1, 3, [0, 1], [0], block[None])
    fac = factor_bilu0(A)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(fac.apply(x), np.linalg.solve(block, x), rtol=1e-14)
    assert np.array_equal(fac.stored()[1][0], block_inverse_reference(block))


@settings(max_examples=30, deadline=None)
@given(block_systems(full_diagonal=True))
def test_factorizations_are_cached_per_matrix_and_ordering(system):
    n, b, blocks, ordering = system
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    fac = factor_bilu0(A, ordering)
    assert factor_bilu0(A, list(ordering)) is fac
    if n > 1:
        other = np.roll(ordering, 1)
        assert factor_bilu0(A, other) is not fac
        assert np.array_equal(factor_bilu0(A, other).ordering, other)
    assert factor_block_jacobi(A) is factor_block_jacobi(A)
    # a new matrix with the same values gets its own factorization
    assert factor_bilu0(A.scaled_add_diag(1.0, np.zeros((n, b, b))),
                        ordering) is not fac


def test_matrix_arrays_are_read_only():
    A = random_block_matrix(4, 2, seed=20)
    with pytest.raises(ValueError):
        A.blocks[0] = 0.0
    with pytest.raises(ValueError):
        A.blocks[0, 0, 0] += 1.0
    with pytest.raises(ValueError):
        A.indices[0] = 1
    with pytest.raises(ValueError):
        A.blocks[0][...] = 0.0
