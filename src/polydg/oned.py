"""1D upwind DG (p=1 nodal endpoint basis) for u_t + u_x = 0 on a periodic
interval: the explicitly computable model used to validate the block Jacobi
spectral analysis."""

import numpy as np

from .blocklinalg import BlockSparseMatrix


def mass_block(h):
    return np.array([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]])


def diag_block():
    # volume integral + right-boundary outflow term
    return np.array([[0.5, 0.5], [-0.5, 0.5]])


def left_coupling_block():
    # -u_{j-1,2} v_{j,1}
    return np.array([[0.0, -1.0], [0.0, 0.0]])


def assemble_1d_advection(n_intervals, h):
    """Return (M, L) block matrices for N intervals of length h."""
    Mb = mass_block(h)
    Lb = diag_block()
    Cb = left_coupling_block()
    mblocks = {}
    lblocks = {}
    for j in range(n_intervals):
        mblocks[(j, j)] = Mb
        lblocks[(j, j)] = Lb
        lblocks[(j, (j - 1) % n_intervals)] = Cb
    M = BlockSparseMatrix.from_block_dict(n_intervals, 2, mblocks)
    L = BlockSparseMatrix.from_block_dict(n_intervals, 2, lblocks)
    return M, L


def backward_euler_matrix(n_intervals, h, k):
    M, L = assemble_1d_advection(n_intervals, h)
    return L.scaled_add_diag(k, M.diagonal_blocks())


def symbol_l_hat(h, n):
    """Fourier-space L for wavenumber n (the displayed 2 x 2 matrix)."""
    return diag_block() + np.exp(-1j * h * n) * left_coupling_block()


def closed_form_1d_eig(h, k, n):
    """The nonzero Jacobi symbol eigenvalue 2k(3k - h)e^{-ihn}/(h^2+4hk+6k^2)."""
    return 2.0 * k * (3.0 * k - h) * np.exp(-1j * h * n) / (h * h + 4.0 * h * k + 6.0 * k * k)


def lambda_max_1d(h, k):
    return 2.0 * k * abs(h - 3.0 * k) / (h * h + 4.0 * h * k + 6.0 * k * k)
