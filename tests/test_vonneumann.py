"""Generating-pattern symbol analysis of the block Jacobi iteration."""

import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from polydg import vonneumann
from polydg.basis import DEGREES, BasisError, CellBases, edge_quadrature
from polydg.mesh import PATTERN_KINDS, GeneratingPattern
from polydg.vonneumann import (THETA_RANGES, PatternSymbol, SweepConfig,
                               SymbolError, check_admissible,
                               closed_form_p0_eigs, max_spectral_radius,
                               paper_wave_coords, ratio_table,
                               screened_grid, timestep_family,
                               velocity_mirror)

AREA = np.sqrt(3.0) / 4.0  # element area for h_E = 1


def test_admissibility_cones():
    check_admissible("square", 1.0, 1.0)
    check_admissible("hexagon", 1.0, 1.0)
    check_admissible("rtri", 1.0, 0.5)
    with pytest.raises(SymbolError):
        check_admissible("square", -0.1, 1.0)
    with pytest.raises(SymbolError):
        check_admissible("rtri", 0.5, 1.0)          # needs alpha >= beta
    with pytest.raises(SymbolError):
        check_admissible("hexagon", 0.2, 1.0)       # needs sqrt(3) a >= b


@pytest.mark.parametrize("kind", THETA_RANGES)
def test_admissible_cone_is_the_sweep_range(kind):
    t0, t1 = THETA_RANGES[kind]
    for theta in np.linspace(t0, t1, 9):
        check_admissible(kind, np.cos(theta), np.sin(theta))
    check_admissible(kind, 0.0, 0.0)
    for theta in (t0 - 1e-9, t1 + 1e-9, np.pi):
        with pytest.raises(SymbolError, match="outside the admissible cone"):
            check_admissible(kind, np.cos(theta), np.sin(theta))


def test_timestep_family():
    assert timestep_family(AREA, "k1") == pytest.approx(3.0)
    assert timestep_family(AREA, "k2") == pytest.approx(6.0)
    assert timestep_family(AREA, "k3") == pytest.approx(12.0)


def test_bad_labels_raise_symbol_error():
    with pytest.raises(SymbolError, match="k9"):
        timestep_family(AREA, "k9")
    with pytest.raises(SymbolError, match="half-pi"):
        max_spectral_radius("square", 0, 3.0, AREA,
                            SweepConfig(theta_range="half-pi"))
    with pytest.raises(SymbolError, match="heptagon"):
        max_spectral_radius("heptagon", 0, 3.0, AREA)


@pytest.mark.parametrize("kind,vel", [
    ("square", (1.0, 0.7)), ("hexagon", (1.0, 0.9)),
    ("rtri", (1.0, 0.4)), ("etri", (1.0, 0.8))])
def test_symbol_conjugate_symmetry(kind, vel):
    # L_hat(-phi) = conj(L_hat(phi)); the spectral radius is even in phase
    sym = PatternSymbol(kind, 1, AREA, vel)
    L1 = sym.l_hat_phases(0.8, -1.3)
    L2 = sym.l_hat_phases(-0.8, 1.3)
    assert np.max(np.abs(L1 - np.conj(L2))) < 1e-12
    r1 = sym.spectral_radius_phases(2.0, 0.8, -1.3)
    r2 = sym.spectral_radius_phases(2.0, -0.8, 1.3)
    assert r1 == pytest.approx(r2, rel=1e-10)


def l_hat_reference(sym, phi1, phi2):
    """L_hat summed offset by offset, one exp per offset."""
    phi1, phi2 = np.asarray(phi1, float), np.asarray(phi2, float)
    shape = np.broadcast(phi1, phi2).shape
    out = np.zeros(shape + (sym.dim, sym.dim), dtype=complex)
    for (m1, m2), B in zip(sym.offsets, sym.blocks):
        out += np.exp(1j * (m1 * phi1 + m2 * phi2))[..., None, None] * B
    return out


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("p", DEGREES)
def test_l_hat_equals_the_sum_offset_by_offset(kind, p):
    # 100 phases at an angle inside the cone and one outside it (blocks
    # set from the parts), batched and one point at a time, bit for bit
    rng = np.random.default_rng(20 * p + PATTERN_KINDS.index(kind))
    t0, t1 = THETA_RANGES[kind]
    k = timestep_family(AREA, "k2")
    parts = vonneumann.pattern_operators(kind, p, AREA).parts
    sym = PatternSymbol(kind, p, AREA, (1.0, 0.0))
    for th in (rng.uniform(t0, t1), rng.uniform(t1, t0 + 2.0 * np.pi)):
        sym.blocks = np.cos(th) * parts[:, 0] + np.sin(th) * parts[:, 1]
        phi1, phi2 = rng.uniform(-np.pi, np.pi, (2, 100))
        L = l_hat_reference(sym, phi1, phi2)
        assert sym.l_hat_phases(phi1, phi2).tobytes() == L.tobytes()
        assert sym.l_hat_phases(phi1[0], phi2[0]).tobytes() == L[0].tobytes()
        R = np.eye(sym.dim) - np.linalg.inv(sym.mass + k * sym.diag) @ (
            sym.mass + k * L)
        assert sym.jacobi_symbol(k, phi1, phi2).tobytes() == R.tobytes()


def test_zero_wavenumber_jacobi_symbol_matches_periodic_limit():
    sym = PatternSymbol("square", 0, AREA, (1.0, 0.5))
    R = sym.jacobi_symbol(2.0, *sym.wave_phases(0.0, 0.0))
    lam = closed_form_p0_eigs("square", np.sqrt(AREA), 1.0, 0.5, 2.0, 0.0, 0.0)
    assert abs(R[0, 0] - lam[0]) < 1e-12


@pytest.mark.parametrize("kind", ["square", "hexagon", "rtri", "etri"])
def test_p0_closed_form_matches_symbol(kind):
    rng = np.random.default_rng(0)
    from polydg.mesh import h_E_from_area, pattern_side_length
    h = pattern_side_length(kind, h_E_from_area(AREA))
    for _ in range(5):
        th0, th1 = 0.05, {"square": 1.4, "hexagon": 0.9,
                          "rtri": 0.7, "etri": 0.9}[kind]
        th = rng.uniform(th0, th1)
        a, b = np.cos(th), np.sin(th)
        k = rng.uniform(0.5, 4.0)
        nx, ny = rng.uniform(-3.0, 3.0, 2)
        sym = PatternSymbol(kind, 0, AREA, (a, b))
        R = sym.jacobi_symbol(k, *sym.wave_phases(nx, ny))
        eigs = np.linalg.eigvals(R)
        wx, wy = paper_wave_coords(kind, nx, ny)
        closed = closed_form_p0_eigs(kind, h, a, b, k, wx, wy)
        for lam in closed:
            assert np.min(np.abs(eigs - lam)) < 1e-10


def no_refine(f, x0, **kwargs):
    """A `nelder_mead` stand-in that leaves the coarse-grid peak as is."""
    return x0, 0.0


def test_single_pattern_ratio_is_one(monkeypatch):
    monkeypatch.setattr(vonneumann, "nelder_mead", no_refine)
    monkeypatch.setattr(vonneumann, "PATTERN_KINDS", ("square",))
    cfg = SweepConfig(theta_samples=4, wave_samples=8)
    tab = ratio_table([0], ["k1"], cfg)
    (lam, ratio), = tab.values()
    assert ratio == pytest.approx(1.0)
    assert 0.0 < lam < 1.0


def test_ratio_table_checks_every_degree_before_any_sweep(monkeypatch):
    sweeps = []
    monkeypatch.setattr(vonneumann, "max_spectral_radius",
                        lambda *args: sweeps.append(args))
    with pytest.raises(BasisError, match="degree p=7 unsupported"):
        ratio_table([0, 1, 7], ["k1"])
    with pytest.raises(BasisError, match="degree p=1.5 unsupported"):
        ratio_table([1.5], ["k1"])
    assert sweeps == []


def test_sweep_config_guards():
    with pytest.raises(SymbolError):
        max_spectral_radius("square", 0, 3.0, AREA,
                            SweepConfig(theta_samples=0))
    with pytest.raises(SymbolError):
        ratio_table([], ["k1"])


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_bad_timestep_fails_before_any_sweep(monkeypatch, k):
    # before, nan and inf failed inside numpy with LinAlgError, k = -1
    # returned 2.92 and k = 0 about 1e-33
    def no_symbol(*args):
        raise AssertionError("a symbol was built")

    monkeypatch.setattr(vonneumann, "PatternSymbol", no_symbol)
    with pytest.raises(SymbolError, match="finite and positive"):
        max_spectral_radius("square", 1, k, AREA)


def test_quarter_pi_range_square_matches_per_pattern(monkeypatch):
    # the square cone is [0, pi/2] but the peak is symmetric about pi/4,
    # so sweeping only [0, pi/4] must find the same maximum
    monkeypatch.setattr(vonneumann, "nelder_mead", no_refine)
    cfg_a = SweepConfig(theta_samples=9, wave_samples=16)
    cfg_b = SweepConfig(theta_samples=9, wave_samples=16,
                        theta_range="quarter-pi")
    ra = max_spectral_radius("square", 0, 3.0, AREA, cfg_a)
    rb = max_spectral_radius("square", 0, 3.0, AREA, cfg_b)
    assert rb <= ra + 1e-12


def full_grid_peak(kind, p, k, config):
    """The coarse sweep before screening: the reference path on every
    (theta, phase) grid point, the first peak in C order."""
    thetas = np.linspace(*THETA_RANGES[kind], config.theta_samples)
    n = config.wave_samples
    phis = 2.0 * np.pi * np.arange(n) / n
    P1, P2 = np.meshgrid(phis, phis, indexing="ij")
    best, best_point = 0.0, None
    for th in thetas:
        sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
        rho = sym.spectral_radius_phases(k, P1, P2)
        i, j = np.unravel_index(np.argmax(rho), rho.shape)
        if rho[i, j] > best:
            best, best_point = float(rho[i, j]), (th, phis[i], phis[j])
    return best, best_point


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["square", "hexagon", "rtri", "etri"]),
       p=st.integers(0, 2), label=st.sampled_from(["k1", "k2", "k3"]),
       theta_samples=st.integers(1, 6), wave_samples=st.integers(1, 12))
def test_screened_sweep_matches_full_grid(kind, p, label, theta_samples,
                                          wave_samples):
    k = timestep_family(AREA, label)
    cfg = SweepConfig(theta_samples=theta_samples, wave_samples=wave_samples)
    best, best_point = full_grid_peak(kind, p, k, cfg)
    # the refine starts from the coarse peak: record where
    starts = []

    def record_start(f, x0, **kwargs):
        starts.append(tuple(x0))
        return no_refine(f, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vonneumann, "nelder_mead", record_start)
        assert max_spectral_radius(kind, p, k, AREA, cfg) == best
    assert starts == [best_point]


@pytest.mark.parametrize("kind", ["square", "hexagon", "rtri", "etri"])
@pytest.mark.parametrize("theta_samples", [8, 9])
def test_mirrored_sweep_matches_full_grid(kind, theta_samples):
    # an even and an odd angle count: the mirror leaves the middle angle
    # to itself only when the count is odd
    k = timestep_family(AREA, "k2")
    cfg = SweepConfig(theta_samples=theta_samples, wave_samples=12)
    best, best_point = full_grid_peak(kind, 2, k, cfg)
    starts = []

    def record_start(f, x0, **kwargs):
        starts.append(tuple(x0))
        return x0, 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vonneumann, "nelder_mead", record_start)
        assert max_spectral_radius(kind, 2, k, AREA, cfg) == best
    assert starts == [best_point]


# the options max_spectral_radius refines with
REFINE_OPTIONS = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 400}


def evaluations(minimize, f, x0):
    """The points minimize(f, x0) hands to f, in order, and the minimum it
    returns."""
    points = []

    def logged(x):
        points.append(x.copy())
        return f(x)

    return points, minimize(logged, x0)


def scipy_minimum(f, x0):
    return scipy.optimize.minimize(f, x0, method="Nelder-Mead",
                                   options=REFINE_OPTIONS).fun


def own_minimum(f, x0):
    return vonneumann.nelder_mead(f, x0, **REFINE_OPTIONS)[1]


def assert_replays_scipy(f, x0):
    own_points, own = evaluations(own_minimum, f, x0)
    scipy_points, theirs = evaluations(scipy_minimum, f, x0)
    assert len(own_points) == len(scipy_points)
    for a, b in zip(own_points, scipy_points):
        assert a.tobytes() == b.tobytes()
    assert float(own).hex() == float(theirs).hex()


SMOOTH_OBJECTIVES = {
    "bowl": lambda x, a: float(np.sum(np.arange(1, len(x) + 1)
                                      * (x - a) ** 2)),
    "ripple": lambda x, a: float(np.sum((x - a) ** 2)
                                 + 0.1 * np.cos(3.0 * np.sum(x))),
    "rosenbrock": lambda x, a: float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
        + (x[-1] - a) ** 2),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SMOOTH_OBJECTIVES)),
       a=st.floats(-2.0, 2.0),
       x0=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                   min_size=1, max_size=3))
def test_nelder_mead_replays_scipy(name, a, x0):
    # a zero start component gets the simplex step 0.00025, others x 1.05
    objective = SMOOTH_OBJECTIVES[name]
    assert_replays_scipy(lambda x: objective(x, a), np.array(x0))


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("p", DEGREES)
def test_refine_replays_scipy(monkeypatch, kind, p):
    refines = []
    own = vonneumann.nelder_mead

    def recorded(f, x0, **options):
        refines.append((f, x0))
        return own(f, x0, **options)

    monkeypatch.setattr(vonneumann, "nelder_mead", recorded)
    cfg = SweepConfig(theta_samples=3, wave_samples=6)
    max_spectral_radius(kind, p, timestep_family(AREA, "k2"), AREA, cfg)
    (f, x0), = refines
    assert_replays_scipy(f, x0)


@pytest.mark.parametrize("kind,T", [
    ("square", [[0, 1], [1, 0]]), ("hexagon", [[1, 0], [1, -1]]),
    ("rtri", None), ("etri", [[0, 1], [1, 0]])])
def test_velocity_mirror_per_pattern(kind, T):
    pattern = GeneratingPattern.make(kind, AREA)
    mirror = velocity_mirror(pattern, *THETA_RANGES[kind])
    assert (mirror is None if T is None else mirror.tolist() == T)
    # no pattern is symmetric about pi/8, the quarter-pi range's bisector
    assert velocity_mirror(pattern, 0.0, np.pi / 4.0) is None


def test_velocity_mirror_rejects_an_asymmetric_motif():
    # the unit square cut into two upright halves: the lattice is the
    # square's, but the reflection in y = x lays the halves flat
    left = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
    halves = GeneratingPattern("square", [left, left + [0.5, 0.0]], np.eye(2))
    assert velocity_mirror(halves, 0.0, np.pi / 2.0) is None
    whole = GeneratingPattern("square", [left * [2.0, 1.0]], np.eye(2))
    assert velocity_mirror(whole, 0.0, np.pi / 2.0).tolist() == [[0, 1],
                                                                [1, 0]]


def test_unmatched_inflow_side_is_refused(monkeypatch):
    # a unit square on the lattice 2 Z^2 leaves gaps: its bottom side, the
    # first inflow side, has no partner
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    monkeypatch.setattr(GeneratingPattern, "make", classmethod(
        lambda cls, kind, area: cls(kind, [square], 2.0 * np.eye(2))))
    with pytest.raises(SymbolError, match=re.escape(
            f"no neighbor found across edge at {np.array([0.5, 0.0])} "
            f"(square)")):
        vonneumann.PatternOperators("square", 1, AREA)


def unpruned_grid(monkeypatch, syms, k, n, n_theta, mirror=None):
    """`screened_grid` without pruning: a floor of -inf eigen-solves the
    first point of every orbit. No bound falls below -inf, so the point's
    squarings are skipped; the values are the same bit for bit."""
    with monkeypatch.context() as m:
        m.setattr(vonneumann, "ROUNDING_MARGIN", np.inf)
        m.setattr(vonneumann, "BOUND_SQUARINGS", 0)
        return screened_grid(syms, k, n, n_theta, mirror)


@pytest.mark.parametrize("kind", ["square", "hexagon", "etri"])
@pytest.mark.parametrize("theta_samples", [8, 9])
def test_mirrored_screen_matches_full_screen(monkeypatch, kind,
                                             theta_samples):
    t0, t1 = THETA_RANGES[kind]
    syms = [PatternSymbol(kind, 2, AREA, (np.cos(th), np.sin(th)))
            for th in np.linspace(t0, t1, theta_samples)]
    T = velocity_mirror(GeneratingPattern.make(kind, AREA), t0, t1)
    k = timestep_family(AREA, "k2")
    full = unpruned_grid(monkeypatch, syms, k, 12, theta_samples)
    # unpruned, so every mirrored value is compared
    half = unpruned_grid(monkeypatch, syms[:(theta_samples + 1) // 2], k, 12,
                         theta_samples, T)
    assert np.max(np.abs(half - full)) <= 1e-13


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["square", "hexagon", "etri"]),
       p=st.integers(0, 3), frac=st.floats(0.0, 1.0))
def test_mirror_maps_symbol_radii(kind, p, frac):
    t0, t1 = THETA_RANGES[kind]
    T = velocity_mirror(GeneratingPattern.make(kind, AREA), t0, t1)
    th = t0 + frac * (t1 - t0)
    k = timestep_family(AREA, "k2")
    phis = 2.0 * np.pi * np.arange(8) / 8
    P = np.stack(np.meshgrid(phis, phis, indexing="ij"))
    TP = np.einsum("ij,j...->i...", T, P)
    sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
    image = PatternSymbol(kind, p, AREA, (np.cos(t0 + t1 - th),
                                          np.sin(t0 + t1 - th)))
    rho = sym.spectral_radius_phases(k, *P, screen=True)
    rho_image = image.spectral_radius_phases(k, *TP, screen=True)
    assert np.max(np.abs(rho - rho_image)) <= 1e-13


@pytest.mark.parametrize("kind", ["square", "hexagon", "rtri", "etri"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_screen_matches_reference_path(kind, p):
    rng = np.random.default_rng(p)
    t0, t1 = THETA_RANGES[kind]
    for th in rng.uniform(t0, t1, 3):
        sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
        for label in ("k1", "k3"):
            k = timestep_family(AREA, label)
            phi1, phi2 = rng.uniform(-np.pi, np.pi, (2, 40))
            ref = sym.spectral_radius_phases(k, phi1, phi2)
            screened = sym.spectral_radius_phases(k, phi1, phi2, screen=True)
            assert screened.shape == ref.shape
            assert np.max(np.abs(screened - ref)) <= 1e-12


@pytest.mark.parametrize("kind,two_cyclic", [
    ("square", False), ("hexagon", False), ("rtri", True), ("etri", True)])
def test_two_cyclic_detected_from_blocks(kind, two_cyclic):
    sym = PatternSymbol(kind, 1, AREA, (1.0, 0.3))
    assert sym.two_cyclic is two_cyclic
    if two_cyclic:
        # R_hat = [[0, X], [Y, 0]]: its spectrum is symmetric about 0
        nl = sym.n_loc
        R = sym.jacobi_symbol(3.0, 0.4, -1.1)
        assert np.max(np.abs(R[:nl, :nl])) < 1e-14
        assert np.max(np.abs(R[nl:, nl:])) < 1e-14


def bound_sequence(sym, k, phi1, phi2):
    """The norm-power bounds the floored screen gives the point
    (phi1, phi2), largest first, and the point's screened radius.

    An infinite floor prunes every point at s = 0 and returns b_0. A floor
    just at the last bound returned makes the screen return the next
    smaller b_s, or, when no b_s up to the cap is smaller, the radius,
    bitwise the unfloored value. The bounds are non-increasing in s, so
    each b_s skipped is at least the bound returned before it.
    """
    def screen(floor):
        return float(sym.spectral_radius_phases(k, phi1, phi2, screen=True,
                                                floor=floor))

    rho = screen(None)
    bounds = [screen(np.inf)]
    for _ in range(vonneumann.BOUND_SQUARINGS):
        value = screen(bounds[-1])
        if value == rho:
            break
        assert value < bounds[-1]
        bounds.append(value)
    return bounds, rho


# numpy warns on these by default (not on underflow); the bound must not
RAISE = {"divide": "raise", "over": "raise", "invalid": "raise"}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["square", "hexagon", "rtri", "etri"]),
       p=st.integers(0, 3), label=st.sampled_from(["k1", "k2", "k3"]),
       frac=st.floats(0.0, 1.0),
       phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)))
def test_norm_power_bound_holds_at_every_squaring(kind, p, label, frac,
                                                  phases):
    t0, t1 = THETA_RANGES[kind]
    th = t0 + frac * (t1 - t0)
    sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
    with np.errstate(**RAISE):
        bounds, rho = bound_sequence(sym, timestep_family(AREA, label),
                                     *phases)
    assert np.all(np.isfinite(bounds))
    assert min(bounds) >= rho * (1.0 - 1e-12)


def complex_bounds(sym, k, phi1, phi2, n):
    """b_0, ..., b_(n-1) of the norm-power bound at one point, squared in
    complex arithmetic: the oracle of the screen's real squarings."""
    offsets, parts = sym._symbol_parts(k)
    phase = np.exp(1j * (offsets @ [phi1, phi2]))

    def symbol(C):
        return np.tensordot(phase, C, 1)

    M = (symbol(parts[0]) @ symbol(parts[1]) if sym.two_cyclic
         else symbol(parts))
    root = 2 if sym.two_cyclic else 1
    bounds, log_norm = [], 0.0
    for s in range(n):
        norm = np.linalg.norm(M)
        log_norm = 2.0 * log_norm + np.log(norm)
        bounds.append(np.exp(log_norm / (2 ** s * root)))
        M = (M / norm) @ (M / norm)
    return bounds


@pytest.mark.parametrize("kind", ["square", "hexagon", "rtri", "etri"])
@pytest.mark.parametrize("phases", [(0.7, -2.1), (2.9, 0.4)])
def test_real_squarings_match_complex_reference(kind, phases):
    # a floor just above b_s, below b_0 .. b_(s-1), makes the screen
    # return its b_s; squared in real arithmetic it sums in another order
    t0, t1 = THETA_RANGES[kind]
    th = t0 + 0.3 * (t1 - t0)
    sym = PatternSymbol(kind, 2, AREA, (np.cos(th), np.sin(th)))
    k = timestep_family(AREA, "k2")
    reference = complex_bounds(sym, k, *phases, 4)
    for s, b in enumerate(reference):
        floor = b * (1.0 + 1e-10)
        assert all(earlier > floor for earlier in reference[:s])
        value = sym.spectral_radius_phases(k, *phases, screen=True,
                                           floor=floor)
        assert value == pytest.approx(b, rel=1e-12, abs=0.0)


def test_norm_power_bound_of_tiny_and_zero_symbols():
    # square p=0 at theta = pi/4, phases (pi, 0): |R_hat| is about 8e-17
    sym = PatternSymbol("square", 0, AREA, (np.cos(np.pi / 4),
                                            np.sin(np.pi / 4)))
    k = timestep_family(AREA, "k1")
    with np.errstate(**RAISE):
        bounds, rho = bound_sequence(sym, k, np.pi, 0.0)
    assert 0.0 < rho < 1e-15
    assert min(bounds) >= rho * (1.0 - 1e-12)
    # symbols with an all-zero part: every bound and radius reads 0
    hexagon = PatternSymbol("hexagon", 2, AREA, (1.0, 0.5))
    offsets, C = hexagon._symbol_parts(k)
    zero_c = (offsets, np.zeros_like(C))
    hexagon._symbol_parts = lambda k: zero_c
    rtri = PatternSymbol("rtri", 1, AREA, (1.0, 0.5))
    offsets, (X, Y) = rtri._symbol_parts(k)
    zero_x = (offsets, (np.zeros_like(X), Y))
    rtri._symbol_parts = lambda k: zero_x
    for sym in (hexagon, rtri):
        for floor in (None, np.inf, 1.0, 0.0, -np.inf):
            with np.errstate(**RAISE):
                zero = sym.spectral_radius_phases(k, [0.3, -1.0], [2.0, 0.0],
                                                  screen=True, floor=floor)
            assert zero.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("kind", ["square", "hexagon", "rtri", "etri"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_pruned_screen_keeps_the_near_peak_values(monkeypatch, kind, p):
    t0, t1 = THETA_RANGES[kind]
    T = velocity_mirror(GeneratingPattern.make(kind, AREA), t0, t1)
    floors = []
    unrecorded = PatternSymbol.spectral_radius_phases

    def recorded(self, k, phi1, phi2, screen=False, floor=None):
        floors.append(-np.inf if floor is None else floor)
        return unrecorded(self, k, phi1, phi2, screen, floor)

    monkeypatch.setattr(PatternSymbol, "spectral_radius_phases", recorded)
    pruned_points = 0
    for label in ("k1", "k2", "k3"):
        k = timestep_family(AREA, label)
        # an even and an odd angle count with the mirror, as above
        for n_theta, mirror in [(5, None)] + [(6, T), (5, T)] * (T is not None):
            syms = [PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
                    for th in np.linspace(t0, t1, n_theta)]
            syms = syms[:n_theta if mirror is None else (n_theta + 1) // 2]
            full = unpruned_grid(monkeypatch, syms, k, 10, n_theta, mirror)
            floors.clear()
            pruned = screened_grid(syms, k, 10, n_theta, mirror)
            # every floor keeps the rounding margin below the peak's band
            assert max(floors) <= full.max() - vonneumann.SCREEN_TOL \
                - 0.5 * vonneumann.ROUNDING_MARGIN
            near = full >= full.max() - vonneumann.SCREEN_TOL
            assert np.array_equal(pruned[near], full[near])
            # a bound is at least its radius up to rounding: on a 1x1
            # symbol, b_0 = sqrt(re^2 + im^2) can be 1 ulp below abs()
            assert np.all(pruned[~near] >= full[~near] * (1.0 - 1e-12))
            assert np.all(pruned[~near] < full.max() - vonneumann.SCREEN_TOL)
            pruned_points += np.count_nonzero(pruned != full)
    assert pruned_points > 0


def test_sliced_recompute_equals_one_call_on_the_rtri_row():
    # rtri p=2 k2 puts its whole theta = 0 row within SCREEN_TOL of the peak
    sym = PatternSymbol("rtri", 2, AREA, (1.0, 0.0))
    k = timestep_family(AREA, "k2")
    n = SweepConfig().wave_samples
    phis = 2.0 * np.pi * np.arange(n) / n
    g = np.arange(n * n)
    whole = sym.spectral_radius_phases(k, phis[g // n], phis[g % n])
    size = vonneumann.RECOMPUTE_SLICE
    sliced = [sym.spectral_radius_phases(k, phis[s // n], phis[s % n])
              for s in np.split(g, range(size, n * n, size))]
    assert np.array_equal(np.concatenate(sliced), whole)


def test_max_spectral_radius_recomputes_in_slices(monkeypatch):
    k = timestep_family(AREA, "k2")
    sizes = []
    unrecorded = PatternSymbol.spectral_radius_phases

    def recorded(self, k, phi1, phi2, screen=False, floor=None):
        if not screen:
            sizes.append(np.size(phi1))
        return unrecorded(self, k, phi1, phi2, screen, floor)

    monkeypatch.setattr(PatternSymbol, "spectral_radius_phases", recorded)
    sliced = max_spectral_radius("rtri", 2, k, AREA)
    assert max(sizes) == vonneumann.RECOMPUTE_SLICE
    n = SweepConfig().wave_samples
    monkeypatch.setattr(vonneumann, "RECOMPUTE_SLICE", n * n)
    sizes.clear()
    assert max_spectral_radius("rtri", 2, k, AREA).hex() == sliced.hex()
    assert max(sizes) == n * n


def assert_radii_per_point(monkeypatch, sym, k, phi1, phi2):
    """The reference path's radii at the phases equal one call per point,
    and the screen's equal one eigen-solve per symbol it builds, bit for
    bit."""
    batch = sym.spectral_radius_phases(k, phi1, phi2)
    each = [sym.spectral_radius_phases(k, a, b) for a, b in zip(phi1, phi2)]
    assert batch.tobytes() == np.array(each).tobytes()
    stacks = []
    radii = vonneumann._radii

    def recorded(M):
        stacks.append((M, radii(M)))
        return stacks[-1][1]

    with monkeypatch.context() as m:
        m.setattr(vonneumann, "_radii", recorded)
        sym.spectral_radius_phases(k, phi1, phi2, screen=True)
    (M, r), = stacks
    assert len(M) == len(phi1)
    each = [np.max(np.abs(np.linalg.eigvals(m))) for m in M]
    assert r.tobytes() == np.array(each).tobytes()


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("p", DEGREES)
def test_radii_of_repeated_phases_equal_one_solve_per_point(monkeypatch,
                                                            kind, p):
    # equal symbols are eigen-solved once and their radius shared: repeated
    # and shuffled phases, at the cone's first angle (where rtri's symbol
    # does not depend on phi2) and inside it
    rng = np.random.default_rng(10 * p + PATTERN_KINDS.index(kind))
    k = timestep_family(AREA, "k2")
    t0, t1 = THETA_RANGES[kind]
    phi1, phi2 = rng.uniform(-np.pi, np.pi, (2, 12))[:, rng.integers(0, 12,
                                                                      40)]
    for th in (t0, rng.uniform(t0, t1)):
        sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
        assert_radii_per_point(monkeypatch, sym, k, phi1, phi2)


def test_radii_of_the_rtri_row_equal_one_solve_per_point(monkeypatch):
    sym = PatternSymbol("rtri", 2, AREA, (1.0, 0.0))
    n = SweepConfig().wave_samples
    phis = 2.0 * np.pi * np.arange(n) / n
    g = np.arange(n * n)
    assert_radii_per_point(monkeypatch, sym, timestep_family(AREA, "k2"),
                           phis[g // n], phis[g % n])


def test_recompute_solves_each_distinct_symbol_once(monkeypatch):
    # rtri p=2 k2 recomputes its whole theta = 0 row, 2304 points, whose
    # symbols hold few distinct matrices since rtri's does not depend on
    # phi2 there
    solved = []
    eigvals = np.linalg.eigvals

    def counted(a):
        solved[-1] += len(a.reshape((-1,) + a.shape[-2:]))
        return eigvals(a)

    calls = []
    unrecorded = PatternSymbol.spectral_radius_phases

    def recorded(self, k, phi1, phi2, screen=False, floor=None):
        solved.append(0)
        r = unrecorded(self, k, phi1, phi2, screen, floor)
        if not screen:
            R = self.jacobi_symbol(k, phi1, phi2).reshape(-1, self.dim,
                                                          self.dim)
            calls.append((len(R), len({m.tobytes() for m in R}), solved[-1]))
        return r

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(PatternSymbol, "spectral_radius_phases", recorded)
    max_spectral_radius("rtri", 2, timestep_family(AREA, "k2"), AREA)
    assert all(s == d for _, d, s in calls)
    recomputes = [(n, s) for n, _, s in calls if n > 1]
    assert sum(n for n, _ in recomputes) == SweepConfig().wave_samples ** 2
    assert sum(s for _, s in recomputes) <= 60


# a vector parallel to each pattern's phase direction; hexagon has none
PHASE_DIRECTIONS = {"square": (-1, 1), "hexagon": None, "rtri": (0, 1),
                    "etri": (-1, 1)}


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("p", DEGREES)
@settings(max_examples=10, deadline=None)
@given(frac=st.floats(0.0, 1.0),
       phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
       shift=st.integers(-48, 48))
def test_radius_is_constant_across_the_phase_direction(kind, p, frac, phases,
                                                      shift):
    d = vonneumann.pattern_operators(kind, p, AREA).phase_direction
    want = PHASE_DIRECTIONS[kind]
    if want is None:
        assert d is None
        return
    assert d[0] * want[1] - d[1] * want[0] == 0 and np.gcd(*d) == 1
    t0, t1 = THETA_RANGES[kind]
    th = t0 + frac * (t1 - t0)
    sym = PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
    # a grid shift along v, d.v = 0, leaves d.phi as it is
    n = SweepConfig().wave_samples
    v = np.array([-d[1], d[0]])
    phi = np.array(phases)
    P = np.stack([phi, phi + shift * (2.0 * np.pi / n) * v], axis=1)
    rho, moved = sym.spectral_radius_phases(timestep_family(AREA, "k2"), *P)
    assert moved == pytest.approx(rho, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["square", "rtri", "etri"])
def test_orbit_screen_squares_one_point_per_orbit(monkeypatch, kind):
    # the default grid with and without the orbits: the same lambda_max,
    # bit for bit, from the same refine start
    k = timestep_family(AREA, "k2")
    squared, starts = [], []
    unspied, own = vonneumann._squared_bounds, vonneumann.nelder_mead

    def spied(Re, *args):
        squared.append(len(Re))
        return unspied(Re, *args)

    def recorded(f, x0, **options):
        starts.append(tuple(x0))
        return own(f, x0, **options)

    monkeypatch.setattr(vonneumann, "_squared_bounds", spied)
    monkeypatch.setattr(vonneumann, "nelder_mead", recorded)
    reduced = max_spectral_radius(kind, 2, k, AREA)
    per_angle = list(squared)
    squared.clear()
    monkeypatch.setattr(vonneumann.pattern_operators(kind, 2, AREA),
                        "phase_direction", None)
    full = max_spectral_radius(kind, 2, k, AREA)
    assert reduced.hex() == full.hex()
    assert starts[0] == starts[1]
    # one call per screened angle, and at most one point per orbit in each:
    # the orbits c and -c mod n share a radius
    n = SweepConfig().wave_samples
    assert len(per_angle) == len(squared)
    assert max(per_angle) <= n // 2 + 1
    assert sum(per_angle) < sum(squared)


@pytest.mark.parametrize("kind", ["square", "rtri", "etri"])
@pytest.mark.parametrize("p", DEGREES)
def test_orbit_sharing_only_rounds_the_unpruned_screen(monkeypatch, kind, p):
    # every point of an orbit takes its first point's radius; solved on its
    # own, each agrees with it to rounding
    t0, t1 = THETA_RANGES[kind]
    k = timestep_family(AREA, "k2")
    n, thetas = 12, np.linspace(t0, t1, 4)

    def grid():
        syms = [PatternSymbol(kind, p, AREA, (np.cos(th), np.sin(th)))
                for th in thetas]
        return unpruned_grid(monkeypatch, syms, k, n, len(thetas))

    shared = grid()
    monkeypatch.setattr(vonneumann.pattern_operators(kind, p, AREA),
                        "phase_direction", None)
    own = grid()
    assert shared.shape == own.shape == (len(thetas), n * n)
    assert np.all(np.abs(shared - own) <= 1e-12 * own)


# -- the dict assembly the offset-indexed stack replaced ----------------------

def element_basis(vertices, p):
    """The one-cell basis the old assembly built per element."""
    return CellBases(vertices, [0, len(vertices)], np.arange(len(vertices)),
                     p).bases[0]


def find_partner_reference(pattern, mid, direction, scale):
    """Element index and lattice offset of the cell across an edge; the
    partner traverses the shared side in the opposite direction."""
    a1, a2 = pattern.lattice
    for b, el in enumerate(pattern.elements):
        nb = len(el)
        for j in range(nb):
            d = el[(j + 1) % nb] - el[j]
            if np.linalg.norm(d + direction) > 1e-9 * scale:
                continue
            smid = 0.5 * (el[j] + el[(j + 1) % nb])
            for m1 in (-1, 0, 1):
                for m2 in (-1, 0, 1):
                    if np.linalg.norm(smid + m1 * a1 + m2 * a2 - mid) \
                            < 1e-9 * scale:
                        return b, (m1, m2)
    raise AssertionError(f"no neighbor found across edge at {mid}")


def pattern_assembly_reference(kind, p):
    """(mass, {(m1, m2): (alpha part, beta part)}) as the old per-element
    loop built them."""
    pattern = GeneratingPattern.make(kind, AREA)
    bases = [element_basis(el, p) for el in pattern.elements]
    nl = bases[0].coeffs.shape[0]
    dim = len(bases) * nl
    th = np.mean(THETA_RANGES[kind])
    ra, rb = np.cos(th), np.sin(th)
    a1, a2 = pattern.lattice
    scale = np.linalg.norm(a1)
    parts = {}

    def add(m, a, b, blk_a, blk_b):
        zero = lambda: np.zeros((dim, dim))
        Ba, Bb = parts.setdefault(m, (zero(), zero()))
        Ba[a * nl:(a + 1) * nl, b * nl:(b + 1) * nl] += blk_a
        Bb[a * nl:(a + 1) * nl, b * nl:(b + 1) * nl] += blk_b

    mass = np.zeros((dim, dim))
    for a, basis in enumerate(bases):
        q = basis.quadrature
        B = basis.eval(q.nodes)
        G = basis.eval_grad(q.nodes)
        mass[a * nl:(a + 1) * nl, a * nl:(a + 1) * nl] = \
            np.einsum("q,qi,qj->ij", q.weights, B, B)
        add((0, 0), a, a,
            -np.einsum("q,qi,ql->il", q.weights, G[:, :, 0], B),
            -np.einsum("q,qi,ql->il", q.weights, G[:, :, 1], B))
    for a, el in enumerate(pattern.elements):
        nv = len(el)
        for j in range(nv):
            p0, p1 = el[j], el[(j + 1) % nv]
            d = p1 - p0
            normal = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
            q = edge_quadrature(p0, p1, 2 * p + 1)
            wa = bases[a].eval(q.nodes)
            if ra * normal[0] + rb * normal[1] >= 0.0:
                E = np.einsum("q,qi,ql->il", q.weights, wa, wa)
                add((0, 0), a, a, normal[0] * E, normal[1] * E)
            else:
                b, (m1, m2) = find_partner_reference(pattern, 0.5 * (p0 + p1),
                                                     d, scale)
                wb = bases[b].eval(q.nodes - (m1 * a1 + m2 * a2))
                E = np.einsum("q,qi,ql->il", q.weights, wa, wb)
                add((m1, m2), a, b, normal[0] * E, normal[1] * E)
    return mass, parts


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("p", DEGREES)
def test_symbol_stack_equals_the_dict_assembly(kind, p):
    mass, parts = pattern_assembly_reference(kind, p)
    ops = vonneumann.pattern_operators(kind, p, AREA)
    assert ops.offsets.tolist() == [list(m) for m in parts]
    assert np.array_equal(ops.parts,
                          np.stack([np.stack(pair) for pair in parts.values()]))
    assert np.array_equal(ops.mass, mass)
    nl = ops.n_loc
    k = timestep_family(AREA, "k2")
    for th in np.linspace(*THETA_RANGES[kind], 3):
        alpha, beta = np.cos(th), np.sin(th)
        blocks = {m: alpha * Ba + beta * Bb for m, (Ba, Bb) in parts.items()}
        diag = np.zeros_like(mass)
        for a in range(ops.n_elems):
            sl = slice(a * nl, (a + 1) * nl)
            diag[sl, sl] = blocks[(0, 0)][sl, sl]
        two_cyclic = ops.n_elems == 2 and not any(
            np.any(B[:nl, :nl]) or np.any(B[nl:, nl:])
            for m, B in blocks.items() if m != (0, 0))
        Dinv = np.linalg.inv(mass + k * diag)
        C = np.stack([-k * (Dinv @ (B - diag if m == (0, 0) else B))
                      for m, B in blocks.items()])
        sym = PatternSymbol(kind, p, AREA, (alpha, beta))
        assert np.array_equal(sym.blocks, np.stack(list(blocks.values())))
        assert np.array_equal(sym.diag, diag)
        assert sym.two_cyclic is two_cyclic
        offsets, parts_k = sym._symbol_parts(k)
        assert np.array_equal(offsets, np.array(list(blocks), float))
        if two_cyclic:
            assert np.array_equal(parts_k[0], C[:, :nl, nl:])
            assert np.array_equal(parts_k[1], C[:, nl:, :nl])
        else:
            assert np.array_equal(parts_k, C)
