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
        Blocks with equal coordinates are summed in the order given. A
        coordinate outside [0, n) or a row without its diagonal block is an
        error."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        blocks = np.asarray(blocks).reshape(-1, b, b)
        outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise LinalgError(f"block key ({rows[k]}, {cols[k]}) "
                              f"outside [0, {n})^2")
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


def _levels(n, rows, cols):
    """Level of each of the n rows of a triangular sweep in which row
    rows[e] reads row cols[e]: one more than the highest level it reads, 0
    if it reads none. One pass over the frontier per level (a topological
    sort by layers, Kahn, CACM 5(11), 1962): the frontier is the rows whose
    reads all have levels, and it gets the next one."""
    per = np.bincount(cols, minlength=n)
    order = np.argsort(cols, kind="stable")
    # readers[j]: the rows that read row j, padded with the sink row n
    readers = np.full((n + 1, max(per.max(initial=0), 1)), n)
    readers[cols[order], np.arange(len(cols))
            - np.repeat(np.cumsum(per) - per, per)] = rows[order]
    # reads of each row still without a level, -1 once it has one
    waiting = np.append(np.bincount(rows, minlength=n), -1)
    level = np.empty(n, dtype=np.int64)
    front, lev = np.flatnonzero(waiting == 0), 0
    while len(front):
        level[front] = lev
        waiting[front] = -1
        waiting -= np.bincount(readers[front].ravel(), minlength=n + 1)
        front, lev = np.flatnonzero(waiting == 0), lev + 1
    return level


class _Panels:
    """The row panels of one triangular sweep of block ILU(0), padded level
    by level.

    The sweep visits the rows by level (`order`; `pos` is each row's place
    in it) and reads the off-diagonal blocks that `mask` picks. A row's
    panel is the b x (t b) matrix of those blocks side by side in column
    order, padded with zero blocks to t, the most any row of its level has
    (`widths`); each slot reads one row of the sweep, `reads`, and a padding
    slot reads the row itself. The levels' panels lie back to back in one
    flat buffer, so the b rows of block p are the rows first[p] + stride[p]
    * arange(b) of the buffer seen as (-1, b).
    """

    def __init__(self, level, rows, cols, mask, b):
        n, self.b, self.level = len(level), b, level
        self.order = np.argsort(level, kind="stable")
        self.pos = np.argsort(self.order)
        sizes = np.bincount(level)
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        count = np.bincount(rows[mask], minlength=n)
        self.widths = np.zeros(len(sizes), dtype=np.int64)
        np.maximum.at(self.widths, level, count)
        # each level's first slot, and each row's
        self.slots = np.concatenate(([0], np.cumsum(sizes * self.widths)))
        t = self.widths[level]
        row_slot = self.slots[level] + (self.pos - self.bounds[level]) * t
        self.reads = np.repeat(np.arange(n), t[self.order])
        r = rows[mask]
        k = np.arange(len(r)) - (np.cumsum(count) - count)[r]  # place in row
        self.reads[row_slot[r] + k] = self.pos[cols[mask]]
        self.first = np.zeros(len(rows), dtype=np.int64)
        self.stride = np.zeros(len(rows), dtype=np.int64)
        self.first[mask] = b * row_slot[r] + k
        self.stride[mask] = t[r]

    def segments(self, p):
        """The rows of the flat buffer seen as (-1, b) that hold blocks p,
        as (len(p), b)."""
        return self.first[p, None] + self.stride[p, None] * np.arange(self.b)

    def panels(self, buf):
        """Per level, its rows s:e of the sweep, its slots and its panels
        in the flat buffer buf, as (rows, b, t b)."""
        b, bounds, slots = self.b, self.bounds.tolist(), self.slots.tolist()
        for lev, t in enumerate(self.widths.tolist()):
            s, e = bounds[lev], bounds[lev + 1]
            yield s, e, slice(slots[lev], slots[lev + 1]), buf[
                b * b * slots[lev]:b * b * slots[lev + 1]].reshape(
                    e - s, b, t * b)

    def levels(self, buf, z, read, prod):
        """Per level that reads a row: its rows of the sweep's solution z,
        as (rows, b, 1); its panels in buf; the rows its slots read; views
        of the flat buffer `read` for what they read, as (rows, t b, 1) and
        as (rows t, b); and a view of the flat buffer `prod` for the
        product, as (rows, b, 1)."""
        out = []
        for s, e, slots, panels in self.panels(buf):
            m, tb = panels.shape[0], panels.shape[2]
            if tb:
                here = read[:m * tb].reshape(m, tb, 1)
                out.append((z[s:e, :, None], panels, self.reads[slots], here,
                            here.reshape(-1, self.b),
                            prod[:m * self.b].reshape(m, self.b, 1)))
        return out


def _sweep(z, levels):
    """Level by level, subtract from the level's rows of z its panels
    times the rows of z they read."""
    # mode="clip" lets take write to `out` unbuffered; reads are in range
    for zs, panels, reads, read, read_rows, prod in levels:
        z.take(reads, axis=0, out=read_rows, mode="clip")
        np.matmul(panels, read, out=prod)
        zs -= prod


class BlockILU0Factorization:
    """In-place block ILU(0) on the (permuted) sparsity pattern of A.

    Block IKJ elimination visiting only existing blocks. Sensitive to the
    element ordering, which is stored.

    The elimination and the triangular solves run by level sets (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., sec. 11.6): a row
    of a forward (backward) level reads only rows of earlier levels. L and
    U are held as the row panels of their sweeps (`_Panels`), so a level of
    a sweep is one gather and one batched matmul. The inverses `uinv` of
    U's diagonal blocks, in backward-level order, are folded into U's
    panels: the backward sweep multiplies its right-hand side by uinv once
    and then subtracts U_ii^{-1} U_ij z_j level by level. `stored()` gives
    the factor in the stored ordering by factoring A's blocks again.
    """

    def __init__(self, A, ordering):
        n, b = self.n, self.b = A.n, A.b
        self.ordering = ordering
        self._indptr, self._indices, self._source = A._permuted_pattern(
            self.ordering)
        self._blocks = A.blocks   # read-only, so stored() can factor again
        indptr, cols = self._indptr, self._indices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        lower, upper = cols < rows, cols > rows
        self._fwd = _Panels(_levels(n, rows[lower], cols[lower]),
                            rows, cols, lower, b)
        self._bwd = _Panels(_levels(n, rows[upper], cols[upper]),
                            rows, cols, upper, b)
        lbuf, _, ubuf, self.uinv = self._factorize()
        # U_ii^{-1} U_ij in place: matmul copies an input that overlaps its
        # output, so the only temporary is one level's panels
        for s, e, _, U in self._bwd.panels(ubuf):
            np.matmul(self.uinv[s:e], U, out=U)
        # each sweep's solution in the sweep's order, and what a level reads
        # and its product, which every apply reuses (so one caller at a time)
        self._z = np.empty((2, n, b), dtype=self.uinv.dtype)
        read = np.empty(b * max(np.diff(sweep.slots).max(initial=0)
                                for sweep in (self._fwd, self._bwd)),
                        dtype=self.uinv.dtype)
        prod = np.empty(n * b, dtype=self.uinv.dtype)
        self._forward = self._fwd.levels(lbuf, self._z[0], read, prod)
        self._backward = self._bwd.levels(ubuf, self._z[1], read, prod)
        self._gather = self.ordering[self._fwd.order]
        self._to_backward = self._fwd.pos[self._bwd.order]
        self._unorder = self._bwd.pos[np.argsort(self.ordering)]

    def _factorize(self):
        """Level by level, in working rows [L blocks | pivot | U blocks]
        filled from A's blocks and padded to the level's widest row: step t
        takes the t-th lower block (i, k) of every row i of the level as one
        batch: L_ik = A_ik U_kk^{-1}, then A_ij -= L_ik U_kj for each block
        (k, j) of U with (i, j) in the pattern. The level's pivot blocks are
        inverted after its last step, and its working rows are written to
        the panels. Each block sees the operations of the row-by-row
        elimination in the same order, so the factor is bitwise the same. A
        singular pivot is named by its row: the first in the earliest level
        that has one.

        Returns the flat buffers of L's and U's panels, the pivot blocks in
        forward-level order and their inverses in backward-level order."""
        n, b, indptr, cols = self.n, self.b, self._indptr, self._indices
        fwd, bwd, blocks = self._fwd, self._bwd, self._blocks
        rows = np.repeat(np.arange(n), np.diff(indptr))
        diag = np.flatnonzero(cols == rows)
        n_lower, n_upper = diag - indptr[:-1], indptr[1:] - diag - 1
        tl = fwd.widths
        tu = np.zeros_like(tl)
        np.maximum.at(tu, fwd.level, n_upper)
        width = tl + 1 + tu
        lev = fwd.level[rows]
        # each block's place in its level's working rows
        slot = np.arange(len(cols)) - indptr[rows] + np.where(
            cols >= rows, tl[lev] - n_lower[rows], 0)
        work = (fwd.pos[rows] - fwd.bounds[lev]) * width[lev] + slot
        lower = np.flatnonzero(cols < rows)
        # lower block (i, k) meets each upper block (k, j) of row k
        k = cols[lower]
        counts = n_upper[k]
        meet = np.repeat(np.arange(len(lower)), counts)
        kj = np.arange(len(meet)) + np.repeat(
            diag[k] + 1 - np.cumsum(counts) + counts, counts)
        keys = rows * n + cols
        target = rows[lower[meet]] * n + cols[kj]
        ij = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
        hit = keys[ij] == target
        meet, kj, ij = meet[hit], kj[hit], ij[hit]
        # step of each lower block and each meeting (a level has a step per
        # lower block of its widest row), in step order
        first_step = np.concatenate(([0], np.cumsum(tl)))
        step = first_step[lev[lower]] + slot[lower]
        by_step = np.argsort(step, kind="stable")
        ik_at, ukk = work[lower[by_step]], bwd.pos[k[by_step]]
        m = np.argsort(step[meet], kind="stable")
        meet, kj, ij = meet[m], kj[m], ij[m]
        mik_at, ij_at, ukj = work[lower[meet]], work[ij], bwd.segments(kj)
        steps = np.arange(first_step[-1] + 1)
        lsteps = np.searchsorted(step[by_step], steps).tolist()
        msteps = np.searchsorted(step[meet], steps).tolist()
        by_row = np.argsort(fwd.pos[rows], kind="stable")
        fill_at, fill_src = work[by_row], self._source[by_row]
        row_first = np.concatenate(
            ([0], np.cumsum(np.diff(indptr)[fwd.order])))
        upper = by_row[cols[by_row] > rows[by_row]]
        up_at, up_rows = work[upper], bwd.segments(upper)
        up_first = np.concatenate(([0], np.cumsum(n_upper[fwd.order])))
        lbuf = np.zeros(fwd.slots[-1] * b * b, dtype=blocks.dtype)
        ubuf = np.zeros(bwd.slots[-1] * b * b, dtype=blocks.dtype)
        urows = ubuf.reshape(-1, b)
        pivots = np.empty((n, b, b), dtype=blocks.dtype)
        uinv = np.empty((n, b, b), dtype=blocks.dtype)
        for lv, (s, e, _, L) in enumerate(fwd.panels(lbuf)):
            W = np.zeros(((e - s) * width[lv], b, b), dtype=blocks.dtype)
            here = slice(row_first[s], row_first[e])  # the level's blocks
            W[fill_at[here]] = blocks[fill_src[here]]
            for t in range(first_step[lv], first_step[lv + 1]):
                lo, hi = lsteps[t], lsteps[t + 1]
                at = ik_at[lo:hi]
                W[at] = W[at] @ uinv[ukk[lo:hi]]
                lo, hi = msteps[t], msteps[t + 1]
                at = ij_at[lo:hi]
                W[at] = W[at] - W[mik_at[lo:hi]] @ urows[ukj[lo:hi]]
            here = slice(up_first[s], up_first[e])  # the level's U blocks
            urows[up_rows[here]] = W[up_at[here]]
            W = W.reshape(e - s, width[lv], b, b)
            level = fwd.order[s:e]
            pivots[s:e] = W[:, tl[lv]]
            uinv[bwd.pos[level]] = _block_inverse(
                pivots[s:e], "pivot block at elimination step", level)
            L.reshape(e - s, b, tl[lv], b)[...] = W[:, :tl[lv]].transpose(
                0, 2, 1, 3)
        return lbuf, pivots, ubuf, uinv

    def apply(self, x):
        """Solve L U y = x (in the stored ordering)."""
        z, zb = self._z
        np.take(x.reshape(self.n, self.b), self._gather, axis=0, out=z)
        _sweep(z, self._forward)
        np.matmul(self.uinv, z[self._to_backward, :, None],
                  out=zb[:, :, None])
        _sweep(zb, self._backward)
        return zb[self._unorder].reshape(x.shape)

    def stored(self):
        """The factor in the stored ordering, as the row-by-row elimination
        leaves it: a BlockSparseMatrix of L's strictly lower blocks (L's unit
        diagonal is implied) and U's blocks, and the inverses of U's diagonal
        blocks by row. U's panels hold U_ii^{-1} U_ij, so this factors A's
        blocks again."""
        lbuf, pivots, ubuf, uinv = self._factorize()
        rows = np.repeat(np.arange(self.n), np.diff(self._indptr))
        lower = np.flatnonzero(self._indices < rows)
        upper = np.flatnonzero(self._indices > rows)
        blocks = pivots[self._fwd.pos[rows]]
        blocks[lower] = lbuf.reshape(-1, self.b)[self._fwd.segments(lower)]
        blocks[upper] = ubuf.reshape(-1, self.b)[self._bwd.segments(upper)]
        return (BlockSparseMatrix(self.n, self.b, self._indptr, self._indices,
                                  blocks), uinv[self._bwd.pos])

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

    Returns (x, iterations, residual, converged): iterations is the first
    iterate index whose relative l2 residual meets tol, and residual is
    ||rhs - A x||_2 of the x returned.
    """
    fac = factor_block_jacobi(A)
    x = np.zeros(A.dim)
    r = rhs  # the residual of x = 0
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        bnorm = 1.0
    for it in range(MAX_ITERS + 1):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            return x, it, rnorm, True
        x = x + fac.apply(r)
        r = rhs - A.matvec(x)
    return x, MAX_ITERS, np.linalg.norm(r), False


def gmres(A, rhs, preconditioner=None, tol=TOL):
    """Right-preconditioned GMRES with Givens rotations, from x = 0,
    restarted every RESTART steps and stopped after MAX_ITERS.

    Each Arnoldi step applies the preconditioner once, to v_j, and keeps
    z_j = M^{-1} v_j, so a cycle of m steps ends with x += Z[:m]^T y, the
    flexible form (Saad, Iterative Methods for Sparse Linear Systems, 2nd
    ed., sec. 9.4.1); without a preconditioner Z is V.

    Convergence is declared on the true relative residual. Returns (x,
    iterations, residual, converged): iterations is the total number of
    Arnoldi steps across restarts, and residual is ||rhs - A x||_2 of the
    x returned.
    """
    n, restart, max_iters = A.dim, RESTART, MAX_ITERS
    x = np.zeros(n)
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    total = 0
    r = rhs  # the residual of x = 0
    while total <= max_iters:
        beta = np.linalg.norm(r)
        if beta <= tol * bnorm:
            return x, total, beta, True
        V = np.zeros((restart + 1, n))
        Z = V if preconditioner is None else np.empty((restart, n))
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
            if preconditioner is not None:
                Z[j] = preconditioner.apply(V[j])
            w = A.matvec(Z[j])
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
        x = x + Z[:j_used].T @ y
        r = rhs - A.matvec(x)
    rnorm = np.linalg.norm(r)
    return x, total, rnorm, bool(rnorm <= tol * bnorm)


# unknowns above which jacobi_iteration_matrix refuses the dense R_J
DENSE_DIM_CAP = 2000


def jacobi_iteration_matrix(A):
    """Dense R_J = I - D^{-1} A for spectral studies on small systems of
    at most DENSE_DIM_CAP unknowns."""
    if A.dim > DENSE_DIM_CAP:
        raise LinalgError(f"dimension {A.dim} exceeds cap {DENSE_DIM_CAP}")
    dense = A.to_dense()
    Dinv = BlockSparseMatrix(
        A.n, A.b, np.arange(A.n + 1), np.arange(A.n),
        _block_inverse(A.diagonal_blocks(), "diagonal block in row")).to_dense()
    return np.eye(A.dim, dtype=dense.dtype) - Dinv @ dense


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A)))))
