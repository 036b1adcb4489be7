"""Block-CSR matrices and the iterative-solver ingredients compared in the
experiments: block Jacobi, restarted GMRES, and block Jacobi / block ILU(0)
preconditioners."""

import numpy as np
import scipy.linalg
import scipy.sparse


class LinalgError(Exception):
    pass


def _frozen(a):
    """Read-only view of a."""
    a = a.view()
    a.flags.writeable = False
    return a


def sum_in_order(keys, values):
    """Sorted distinct keys and, for each, the sum of its values added one
    at a time in the order given."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new_key = np.ones(len(keys), dtype=bool)
    new_key[1:] = keys[1:] != keys[:-1]
    slot = np.cumsum(new_key) - 1
    first = np.flatnonzero(new_key)
    rank = np.arange(len(keys)) - first[slot]  # place among equal keys
    summed = values[order[first]]
    for r in range(1, rank.max(initial=0) + 1):
        k = rank == r
        summed[slot[k]] += values[order[k]]
    return keys[first], summed


def _csr(n, keys):
    """(indptr, column indices) of sorted distinct block keys row * n + col."""
    rows, cols = np.divmod(keys, n)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols


class BlockSparseMatrix:
    """Square block-CSR matrix with uniform dense b x b blocks. The arrays
    are read-only: factorizations of the matrix are cached on it."""

    def __init__(self, n_block_rows, b, indptr, indices, blocks):
        self.n = int(n_block_rows)
        self.b = int(b)
        self.indptr = _frozen(np.asarray(indptr, dtype=np.int64))
        self.indices = _frozen(np.asarray(indices, dtype=np.int64))
        self.blocks = _frozen(np.asarray(blocks))
        self._check()
        self._bsr = None
        self._jacobi = None
        self._ilu0 = {}

    def _check(self):
        """Validate the structure; record each block's row and the
        positions of the diagonal blocks."""
        n, nnz = self.n, len(self.indices)
        counts = np.diff(self.indptr)
        if (len(self.indptr) != n + 1 or self.indptr[0] != 0
                or self.indptr[-1] != nnz or np.any(counts < 0)):
            raise LinalgError(f"indptr must be {n + 1} offsets from 0 to {nnz}")
        if self.blocks.shape != (nnz, self.b, self.b):
            raise LinalgError("block array shape mismatch")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise LinalgError(f"block column index outside [0, {n})")
        self._rows = np.repeat(np.arange(n), counts)
        bad = (self._rows[1:] == self._rows[:-1]) & (np.diff(self.indices) <= 0)
        if bad.any():
            raise LinalgError(f"unsorted or duplicate columns in block row "
                              f"{self._rows[1:][bad][0]}")
        self._diag = np.flatnonzero(self.indices == self._rows)
        if len(self._diag) != n:
            row = np.setdiff1d(np.arange(n), self._rows[self._diag])[0]
            raise LinalgError(f"missing diagonal block in row {row}")

    @classmethod
    def from_coo(cls, n, b, rows, cols, blocks):
        """Build from block coordinates rows, cols (k,) and blocks (k, b, b).
        Blocks with equal coordinates are summed in the order given; missing
        diagonal blocks are inserted as zeros. A coordinate outside [0, n)
        is an error."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        blocks = np.asarray(blocks).reshape(-1, b, b)
        outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise LinalgError(f"block key ({rows[k]}, {cols[k]}) "
                              f"outside [0, {n})^2")
        missing = np.setdiff1d(np.arange(n), rows[rows == cols])
        if len(missing):
            rows = np.concatenate((rows, missing))
            cols = np.concatenate((cols, missing))
            blocks = np.concatenate(
                (blocks, np.zeros((len(missing), b, b), dtype=blocks.dtype)))
        keys, summed = sum_in_order(rows * n + cols, blocks)
        return cls(n, b, *_csr(n, keys), summed)

    @classmethod
    def from_block_dict(cls, n, b, blocks):
        """Build from a {(row, col): b x b array} mapping (see from_coo)."""
        keys = np.array(list(blocks), dtype=np.int64).reshape(-1, 2)
        return cls.from_coo(n, b, keys[:, 0], keys[:, 1],
                            np.array(list(blocks.values())))

    @property
    def dim(self):
        return self.n * self.b

    @property
    def n_blocks(self):
        return len(self.indices)

    def matvec(self, x):
        if self._bsr is None:
            self._bsr = scipy.sparse.bsr_matrix(
                (self.blocks, self.indices, self.indptr),
                shape=(self.dim, self.dim))
        return self._bsr @ x

    def diagonal_blocks(self):
        return self.blocks[self._diag]

    def to_dense(self):
        A = np.zeros((self.n, self.b, self.n, self.b), dtype=self.blocks.dtype)
        A[self._rows, :, self.indices, :] = self.blocks
        return A.reshape(self.dim, self.dim)

    def scaled_add_diag(self, scale, diag_blocks):
        """Return scale * self with diag_blocks added on the block diagonal."""
        blocks = scale * self.blocks
        blocks[self._diag] += diag_blocks
        return BlockSparseMatrix(self.n, self.b, self.indptr, self.indices,
                                 blocks)

    def permuted(self, perm):
        """Symmetric permutation: row/col i of the result is perm[i] of self."""
        indptr, indices, source = self._permuted_pattern(perm)
        return BlockSparseMatrix(self.n, self.b, indptr, indices,
                                 self.blocks[source])

    def _permuted_pattern(self, perm):
        """(indptr, indices) of `permuted(perm)` and the position in
        self.blocks of each of its blocks."""
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise LinalgError(f"not a permutation of range({self.n})")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        keys = inv[self._rows] * self.n + inv[self.indices]
        source = np.argsort(keys)
        return (*_csr(self.n, keys[source]), source)


def _block_inverse(blocks, what, labels=None):
    """Explicit inverses of a stack of blocks by LU with pivoting (LAPACK
    getrf and getrs, as in scipy.linalg.lu_factor and lu_solve). A
    (numerically) zero pivot is a LinalgError naming `what` and the label
    (by default the index) of the first singular block."""
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (blocks,))
    eye = np.eye(blocks.shape[-1], dtype=blocks.dtype)
    inv, pivots = np.empty_like(blocks), np.empty(blocks.shape[:2])
    for m, block in enumerate(blocks):
        lu, piv, _ = getrf(block)
        pivots[m] = np.abs(lu.diagonal())
        inv[m], _ = getrs(lu, piv, eye)
    singular = np.flatnonzero(pivots.min(axis=1, initial=np.inf) < 1e-300)
    if len(singular):
        m = singular[0]
        raise LinalgError(
            f"singular {what} {m if labels is None else labels[m]}")
    return inv


class BlockJacobiFactorization:
    """Per-row LU of the diagonal blocks; apply = multiply by D^{-1}."""

    def __init__(self, A):
        self.n = A.n
        self.b = A.b
        self.dinv = _block_inverse(A.diagonal_blocks(), "diagonal block in row")

    def apply(self, x):
        xb = x.reshape(self.n, self.b)
        return np.einsum("nij,nj->ni", self.dinv, xb).reshape(x.shape)


def _levels(starts, stops, cols, lower):
    """Level of each row i of a strictly lower (or upper) triangular sweep
    in which row i reads rows cols[starts[i]:stops[i]]: one more than the
    highest level it reads, 0 if it reads none."""
    starts, stops, cols = starts.tolist(), stops.tolist(), cols.tolist()
    level = [0] * len(starts)
    for i in range(len(starts)) if lower else range(len(starts) - 1, -1, -1):
        level[i] = max((level[j] + 1 for j in cols[starts[i]:stops[i]]),
                       default=0)
    return np.array(level, dtype=np.int64)


class BlockILU0Factorization:
    """In-place block ILU(0) on the (permuted) sparsity pattern of A.

    Block IKJ elimination visiting only existing blocks; storage equals the
    input block count. Sensitive to the element ordering, which is stored.

    The elimination and the triangular solves run by level sets (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., sec. 11.6): a row
    of a forward (backward) level reads only rows of earlier levels.
    `blocks` holds L's strictly lower blocks with the rows in forward-level
    order, U's diagonal blocks in row order, then U's strictly upper blocks
    with the rows in backward-level order; `uinv` holds the inverses of U's
    diagonal blocks in backward-level order. `stored()` gives the factor in
    the stored ordering.
    """

    def __init__(self, A, ordering):
        n, b = self.n, self.b = A.n, A.b
        self.ordering = ordering
        self._indptr, self._indices, source = A._permuted_pattern(
            self.ordering)
        indptr, cols = self._indptr, self._indices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        diag = np.flatnonzero(cols == rows)
        flevel = _levels(indptr[:-1], diag, cols, lower=True)
        blevel = _levels(diag + 1, indptr[1:], cols, lower=False)
        forder = np.argsort(flevel, kind="stable")
        border = np.argsort(blevel, kind="stable")
        fpos, self._bpos = np.argsort(forder), np.argsort(border)
        lower = np.flatnonzero(cols < rows)
        lower = lower[np.argsort(fpos[rows[lower]], kind="stable")]
        upper = np.flatnonzero(cols > rows)
        upper = upper[np.argsort(self._bpos[rows[upper]], kind="stable")]
        self._layout = np.concatenate((lower, diag, upper))
        self.blocks = A.blocks[source[self._layout]]
        self.uinv = np.empty((n, b, b), dtype=self.blocks.dtype)
        self._factorize(rows, diag, lower, np.split(
            forder, np.cumsum(np.bincount(flevel))[:-1]))
        self._lower = self._sweep(flevel, forder, diag - indptr[:-1],
                                  fpos[cols[lower]], 0)
        self._upper = self._sweep(blevel, border, indptr[1:] - diag - 1,
                                  self._bpos[cols[upper]], len(lower) + n)
        self._gather = self.ordering[forder]
        self._to_backward = fpos[border]
        self._unorder = self._bpos[np.argsort(self.ordering)]

    def _factorize(self, rows, diag, lower, levels):
        """Level by level, step t takes the t-th lower block (i, k) of every
        row i of the level as one batch: L_ik = A_ik U_kk^{-1}, then
        A_ij -= L_ik U_kj for each block (k, j) of U with (i, j) in the
        pattern. The level's pivot blocks are inverted after its last step.
        Each block sees the operations of the row-by-row elimination in the
        same order, so the factor is bitwise the same. A singular pivot is
        named by its row: the first in the earliest level that has one."""
        n, indptr, cols, blocks = self.n, self._indptr, self._indices, \
            self.blocks
        where = np.empty(len(cols), dtype=np.int64)  # position in blocks
        where[self._layout] = np.arange(len(cols))
        # lower block (i, k) meets each upper block (k, j) of row k
        k = cols[lower]
        counts = (indptr[1:] - diag - 1)[k]
        meet = np.repeat(np.arange(len(lower)), counts)
        kj = np.arange(len(meet)) + np.repeat(
            diag[k] + 1 - np.cumsum(counts) + counts, counts)
        keys = rows * n + cols
        target = rows[lower[meet]] * n + cols[kj]
        ij = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
        hit = keys[ij] == target
        meet, kj, ij = meet[hit], where[kj[hit]], where[ij[hit]]
        rank = lower - indptr[rows[lower]]  # place of each in its row
        ukk, n_lower = self._bpos[k], diag - indptr[:-1]
        lo = 0
        for level in levels:
            hi = lo + n_lower[level].sum()
            mlo, mhi = np.searchsorted(meet, (lo, hi))
            for t in range(rank[lo:hi].max(initial=-1) + 1):
                ik = lo + np.flatnonzero(rank[lo:hi] == t)
                m = mlo + np.flatnonzero(rank[meet[mlo:mhi]] == t)
                blocks[ik] = blocks[ik] @ self.uinv[ukk[ik]]
                blocks[ij[m]] = blocks[ij[m]] - blocks[meet[m]] @ blocks[kj[m]]
            self.uinv[self._bpos[level]] = _block_inverse(
                blocks[len(lower) + level], "pivot block at elimination step",
                level)
            lo = hi

    def _sweep(self, level, order, counts, cols, offset):
        """Per level of a sweep: its first and end row in the sweep's order
        and one BSR matrix over a view of its off-diagonal blocks. `order`
        lists the rows by level, counts[i] is the number of off-diagonal
        blocks of row i, `cols` their columns in the sweep's order, and
        blocks[offset:] the blocks."""
        # int32 indices, which scipy.sparse would otherwise check and convert
        ptr = np.concatenate(([0], np.cumsum(counts[order]))).astype(np.int32)
        cols = cols.astype(np.int32)
        ends = np.cumsum(np.bincount(level))
        return [(s, e, scipy.sparse.bsr_matrix(
            (self.blocks[offset + ptr[s]:offset + ptr[e]], cols[ptr[s]:ptr[e]],
             ptr[s:e + 1] - ptr[s]), shape=((e - s) * self.b, self.n * self.b)))
            for s, e in zip(ends - np.bincount(level), ends)]

    def apply(self, x):
        """Solve L U y = x (in the stored ordering)."""
        z = x.reshape(self.n, self.b)[self._gather]
        for s, e, L in self._lower:
            z[s:e] -= (L @ z.reshape(-1)).reshape(e - s, self.b)
        z = z[self._to_backward]
        for s, e, U in self._upper:
            acc = z[s:e] - (U @ z.reshape(-1)).reshape(e - s, self.b)
            z[s:e] = (self.uinv[s:e] @ acc[:, :, None])[:, :, 0]
        return z[self._unorder].reshape(x.shape)

    def stored(self):
        """The factor in the stored ordering, as the row-by-row elimination
        leaves it: a BlockSparseMatrix of L's strictly lower blocks (L's unit
        diagonal is implied) and U's blocks, and the inverses of U's diagonal
        blocks by row."""
        blocks = np.empty_like(self.blocks)
        blocks[self._layout] = self.blocks
        return (BlockSparseMatrix(self.n, self.b, self._indptr, self._indices,
                                  blocks), self.uinv[self._bpos])

    def lu_product_dense(self):
        """Dense L @ U in the stored ordering (tests only)."""
        F = self.stored()[0].to_dense()
        blk = np.arange(len(F)) // self.b
        lower = blk[:, None] > blk[None, :]
        return (np.eye(len(F)) + np.where(lower, F, 0.0)) @ np.where(lower, 0.0, F)


def factor_block_jacobi(A):
    """Block-Jacobi factorization of A, computed once and cached on A."""
    if A._jacobi is None:
        A._jacobi = BlockJacobiFactorization(A)
    return A._jacobi


def factor_bilu0(A, ordering=None):
    """Block ILU(0) of A in `ordering`, computed once per ordering and
    cached on A."""
    ordering = np.asarray(range(A.n) if ordering is None else ordering,
                          dtype=np.int64)
    key = ordering.tobytes()
    if key not in A._ilu0:
        A._ilu0[key] = BlockILU0Factorization(A, ordering)
    return A._ilu0[key]


MAX_ITERS = 200000   # both solvers stop unconverged after this many steps
TOL = 1e-14   # relative l2 residual at which both solvers stop
RESTART = 20   # GMRES Arnoldi steps between restarts


def block_jacobi_solve(A, rhs, tol=TOL):
    """Fixed-point iteration x <- D^{-1} rhs + (I - D^{-1} A) x from x = 0,
    at most MAX_ITERS steps.

    Returns (x, iterations, converged); iterations is the first iterate index
    whose relative l2 residual meets tol.
    """
    fac = factor_block_jacobi(A)
    x = np.zeros(A.dim)
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        bnorm = 1.0
    for it in range(MAX_ITERS + 1):
        r = rhs - A.matvec(x)
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it, True
        x = x + fac.apply(r)
    return x, MAX_ITERS, False


def gmres(A, rhs, preconditioner=None, tol=TOL):
    """Right-preconditioned GMRES with Givens rotations, from x = 0,
    restarted every RESTART steps and stopped after MAX_ITERS.

    Convergence is declared on the true relative residual; the returned count
    is the total number of Arnoldi steps across restarts.
    """
    if preconditioner is None:
        prec = lambda v: v
    else:
        prec = preconditioner.apply
    n, restart, max_iters = A.dim, RESTART, MAX_ITERS
    x = np.zeros(n)
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return x, 0, True
    total = 0
    while total <= max_iters:
        r = rhs - A.matvec(x)
        beta = np.linalg.norm(r)
        if beta <= tol * bnorm:
            return x, total, True
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        V[0] = r / beta
        g[0] = beta
        j_used = 0
        for j in range(restart):
            if total >= max_iters:
                break
            w = A.matvec(prec(V[j]))
            total += 1
            # classical Gram-Schmidt twice ("twice is enough")
            for _pass in range(2):
                c = V[:j + 1] @ w
                H[:j + 1, j] += c
                w = w - c @ V[:j + 1]
            H[j + 1, j] = np.linalg.norm(w)
            happy = H[j + 1, j] < 1e-30 * bnorm
            if not happy:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_used = j + 1
            if abs(g[j + 1]) <= tol * bnorm or happy:
                break
        if j_used == 0:
            break
        y = scipy.linalg.solve_triangular(H[:j_used, :j_used], g[:j_used],
                                          check_finite=False)
        x = x + prec(V[:j_used].T @ y)
    r = rhs - A.matvec(x)
    return x, total, np.linalg.norm(r) <= tol * bnorm


def jacobi_iteration_matrix(A, dim_cap=2000):
    """Dense R_J = I - D^{-1} A for spectral studies on small systems."""
    if A.dim > dim_cap:
        raise LinalgError(f"dimension {A.dim} exceeds cap {dim_cap}")
    dense = A.to_dense()
    Dinv = BlockSparseMatrix(
        A.n, A.b, np.arange(A.n + 1), np.arange(A.n),
        _block_inverse(A.diagonal_blocks(), "diagonal block in row")).to_dense()
    return np.eye(A.dim, dtype=dense.dtype) - Dinv @ dense


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A)))))
