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

    def block(self, i, j):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = np.searchsorted(self.indices[lo:hi], j)
        if k < hi - lo and self.indices[lo + k] == j:
            return self.blocks[lo + k]
        return None

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
        return BlockSparseMatrix(self.n, self.b, *self._permuted_arrays(perm))

    def _permuted_arrays(self, perm):
        """(indptr, indices, blocks) of `permuted(perm)`; blocks is a new
        writable array."""
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise LinalgError(f"not a permutation of range({self.n})")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        keys, blocks = sum_in_order(inv[self._rows] * self.n
                                    + inv[self.indices], self.blocks)
        return (*_csr(self.n, keys), blocks)


def _block_inverse(block, what, i):
    """Explicit inverse of one block by LU with pivoting; a (numerically)
    zero pivot is a LinalgError naming `what` and i."""
    lu, piv = scipy.linalg.lu_factor(block, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < 1e-300:
        raise LinalgError(f"singular {what} {i}")
    return scipy.linalg.lu_solve((lu, piv), np.eye(len(block), dtype=block.dtype),
                                 check_finite=False)


def _factor_diag(diag_blocks):
    """Explicit inverses of the diagonal blocks."""
    inv = np.empty_like(diag_blocks)
    for i, block in enumerate(diag_blocks):
        inv[i] = _block_inverse(block, "diagonal block in row", i)
    return inv


class BlockJacobiFactorization:
    """Per-row LU of the diagonal blocks; apply = multiply by D^{-1}."""

    def __init__(self, A):
        self.n = A.n
        self.b = A.b
        self.dinv = _factor_diag(A.diagonal_blocks())

    def apply(self, x):
        xb = x.reshape(self.n, self.b)
        return np.einsum("nij,nj->ni", self.dinv, xb).reshape(x.shape)


class BlockILU0Factorization:
    """In-place block ILU(0) on the (permuted) sparsity pattern of A.

    Block IKJ elimination visiting only existing blocks; storage equals the
    input block count. Sensitive to the element ordering, which is stored.
    The triangular solves in `apply` sweep level sets (Saad, Iterative
    Methods for Sparse Linear Systems, ch. 11): the rows of a level read
    only rows of earlier levels, so each level is one batched block product.
    """

    def __init__(self, A, ordering=None):
        self.n = A.n
        self.b = A.b
        self.ordering = np.asarray(range(A.n) if ordering is None else ordering)
        self._unorder = np.argsort(self.ordering)
        self.indptr, self.indices, self.blocks = A._permuted_arrays(
            self.ordering)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        self._factorize(rows)
        self._forward = self._level_sets(rows, lower=True)
        self._backward = self._level_sets(rows, lower=False)

    def _factorize(self, rows):
        pos = {ij: k for k, ij in enumerate(zip(rows.tolist(),
                                                 self.indices.tolist()))}
        self.uinv = np.empty((self.n, self.b, self.b))
        for i in range(self.n):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            for kk in range(lo, hi):
                kcol = self.indices[kk]
                if kcol >= i:
                    break
                # L_ik = A_ik U_kk^{-1}
                self.blocks[kk] = self.blocks[kk] @ self.uinv[kcol]
                Lik = self.blocks[kk]
                klo, khi = self.indptr[kcol], self.indptr[kcol + 1]
                for kj in range(klo, khi):
                    j = self.indices[kj]
                    if j <= kcol:
                        continue
                    p = pos.get((i, j))
                    if p is not None:
                        self.blocks[p] = self.blocks[p] - Lik @ self.blocks[kj]
            self.uinv[i] = _block_inverse(self.blocks[pos[(i, i)]],
                                          "pivot block at elimination step", i)

    def _level_sets(self, rows, lower):
        """Level sets of the strictly lower (or upper) block sweep: a row's
        level is one more than the highest level of the rows it reads. Per
        level: (rows, their off-diagonal block positions, the columns those
        read, the start of each row's run of blocks)."""
        level = np.zeros(self.n, dtype=np.int64)
        for i in range(self.n) if lower else range(self.n - 1, -1, -1):
            dep = self.indices[self.indptr[i]:self.indptr[i + 1]]
            dep = dep[dep < i] if lower else dep[dep > i]
            if len(dep):
                level[i] = level[dep].max() + 1
        pos = np.flatnonzero(self.indices < rows if lower
                             else self.indices > rows)
        pos = pos[np.argsort(level[rows[pos]], kind="stable")]
        n_levels = level.max() + 1 if self.n else 0
        cuts = np.searchsorted(level[rows[pos]], np.arange(1, n_levels))
        out = []
        for lev, k in enumerate(np.split(pos, cuts)):
            first = np.flatnonzero(np.diff(rows[k], prepend=-1))
            out.append((np.flatnonzero(level == lev), k, self.indices[k],
                        first))
        return out

    def _row_sums(self, y, pos, cols, first):
        """Per row of a level: the sum of its off-diagonal blocks times y."""
        prod = np.einsum("kij,kj->ki", self.blocks[pos], y[cols])
        return np.add.reduceat(prod, first)

    def apply(self, x):
        """Solve L U y = x (in the stored ordering)."""
        y = x.reshape(self.n, self.b)[self.ordering]
        # level 0 of the unit-lower sweep reads nothing: y = x there
        for rows, *offdiag in self._forward[1:]:
            y[rows] -= self._row_sums(y, *offdiag)
        for rows, *offdiag in self._backward:
            acc = y[rows]
            if len(offdiag[0]):
                acc -= self._row_sums(y, *offdiag)
            y[rows] = np.einsum("kij,kj->ki", self.uinv[rows], acc)
        return y[self._unorder].reshape(x.shape)

    def lu_product_dense(self):
        """Dense L @ U in the stored ordering (tests only)."""
        F = BlockSparseMatrix(self.n, self.b, self.indptr, self.indices,
                              self.blocks).to_dense()
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


def block_jacobi_solve(A, rhs, x0=None, tol=1e-14, max_iters=100000):
    """Fixed-point iteration x <- D^{-1} rhs + (I - D^{-1} A) x.

    Returns (x, iterations, converged); iterations is the first iterate index
    whose relative l2 residual meets tol.
    """
    fac = factor_block_jacobi(A)
    x = np.zeros(A.dim) if x0 is None else np.asarray(x0, float).copy()
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        bnorm = 1.0
    for it in range(max_iters + 1):
        r = rhs - A.matvec(x)
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it, True
        x = x + fac.apply(r)
    return x, max_iters, False


def gmres(A, rhs, preconditioner=None, restart=20, tol=1e-14, max_iters=100000,
          x0=None):
    """Right-preconditioned restarted GMRES with Givens rotations.

    Convergence is declared on the true relative residual; the returned count
    is the total number of Arnoldi steps across restarts.
    """
    if preconditioner is None:
        prec = lambda v: v
    else:
        prec = preconditioner.apply
    n = A.dim
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()
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
            for i in range(j + 1):
                H[i, j] = np.dot(V[i], w)
                w = w - H[i, j] * V[i]
            # one re-orthogonalization pass
            for i in range(j + 1):
                c = np.dot(V[i], w)
                H[i, j] += c
                w = w - c * V[i]
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
    Dinv = BlockSparseMatrix(A.n, A.b, np.arange(A.n + 1), np.arange(A.n),
                             _factor_diag(A.diagonal_blocks())).to_dense()
    return np.eye(A.dim, dtype=dense.dtype) - Dinv @ dense


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A)))))
