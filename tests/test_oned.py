"""1D model problem: displayed blocks, symbol, and closed-form eigenvalue."""

import numpy as np
import pytest

from polydg.blocklinalg import jacobi_iteration_matrix, spectral_radius
from polydg.oned import (assemble_1d_advection, backward_euler_matrix,
                         closed_form_1d_eig, diag_block, lambda_max_1d,
                         left_coupling_block, mass_block, symbol_l_hat)


def test_displayed_blocks():
    h = 0.7
    assert np.allclose(mass_block(h), h / 6.0 * np.array([[2.0, 1.0],
                                                          [1.0, 2.0]]))
    assert np.allclose(diag_block(), [[0.5, 0.5], [-0.5, 0.5]])
    assert np.allclose(left_coupling_block(), [[0.0, -1.0], [0.0, 0.0]])


def test_assembled_matrix_shape_and_rowsum():
    n, h = 8, 0.25
    M, L = assemble_1d_advection(n, h)
    assert M.dim == 2 * n
    # L annihilates the constant function (both nodal values 1)
    ones = np.ones(2 * n)
    assert np.max(np.abs(L.matvec(ones))) < 1e-14


def test_symbol_matches_assembled_eigenvalues():
    n, h = 16, 1.0 / 16.0
    k = h / 2.0
    A = backward_euler_matrix(n, h, k)
    R = jacobi_iteration_matrix(A)
    eigs = np.linalg.eigvals(R)
    # each symbol eigenvalue appears in the assembled spectrum
    for m in range(n):
        wn = 2.0 * np.pi * m / (n * h)
        lam = closed_form_1d_eig(h, k, wn)
        assert np.min(np.abs(eigs - lam)) < 1e-10
    assert spectral_radius(R) == pytest.approx(lambda_max_1d(h, k), abs=1e-10)


def test_closed_form_nonzero_eigenvalue_2x2():
    h, k, wn = 0.2, 0.13, 3.7
    Ahat = mass_block(h) + k * symbol_l_hat(h, wn)
    D = mass_block(h) + k * diag_block()
    Rhat = np.eye(2) - np.linalg.solve(D, Ahat)
    eigs = np.linalg.eigvals(Rhat)
    lam = closed_form_1d_eig(h, k, wn)
    assert min(abs(eigs - lam)) < 1e-12
    assert min(abs(eigs)) < 1e-12  # the other eigenvalue is zero


def test_k_equals_h_over_three_is_exact():
    h = 0.4
    k = h / 3.0
    assert lambda_max_1d(h, k) == pytest.approx(0.0, abs=1e-15)
    A = backward_euler_matrix(12, h, k)
    R = jacobi_iteration_matrix(A)
    assert spectral_radius(R) < 1e-12


def test_lambda_max_formula():
    h, k = 0.1, 0.25
    expect = 2.0 * k * abs(h - 3.0 * k) / (h * h + 4.0 * h * k + 6.0 * k * k)
    assert lambda_max_1d(h, k) == pytest.approx(expect, rel=1e-14)
