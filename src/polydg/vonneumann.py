"""Fourier symbol analysis of the block Jacobi iteration on the four regular
generating patterns: symbol matrices, closed-form p=0 eigenvalues, spectral
radius sweeps, and the log-ratio comparison table."""

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (CellBases, check_degree, edge_degree, edge_quadrature,
                    n_local)
from .mesh import GeneratingPattern, PATTERN_KINDS, h_E_from_area


class SymbolError(Exception):
    pass


THETA_RANGES = {
    "square": (0.0, np.pi / 2.0),
    "hexagon": (0.0, np.pi / 3.0),
    "etri": (0.0, np.pi / 3.0),
    "rtri": (0.0, np.pi / 4.0),
}


def check_admissible(kind, alpha, beta):
    """A SymbolError unless the angle of (alpha, beta) lies in the
    pattern's cone THETA_RANGES[kind], up to 1e-12."""
    t0, t1 = THETA_RANGES[kind]
    if not t0 - 1e-12 <= np.arctan2(beta, alpha) <= t1 + 1e-12:
        raise SymbolError(f"velocity ({alpha}, {beta}) lies outside the "
                          f"admissible cone of {kind}")


def _representative_theta(kind):
    """A direction strictly inside the admissible cone; the upwind in/outflow
    split of every pattern edge is constant across the whole cone, so this
    direction fixes the splitting for all admissible velocities."""
    t0, t1 = THETA_RANGES[kind]
    return 0.5 * (t0 + t1)


class PatternOperators:
    """Velocity-independent generating-pattern assembly for one (kind, p).

    The upwind operator is linear in the velocity (alpha, beta) on the
    admissible cone, so each coupling block is stored as a pair (alpha
    part, beta part). `parts[i]` (2, dim, dim) couples the pattern to its
    copy at lattice offset m1*a1 + m2*a2, (m1, m2) = `offsets[i]`: (0, 0)
    first, then the inflow offsets in the order the element sides meet
    them. `mask` (dim, dim) marks the element-diagonal blocks.
    `two_cyclic` and `phase_direction` (`_symmetries`) are read from the
    parts once. A velocity on the edge of the cone can only zero more
    blocks, so a pattern two-cyclic in its parts is two-cyclic at every
    admissible velocity, and its direction holds on the whole cone.
    """

    def __init__(self, kind, p, element_area):
        if kind not in PATTERN_KINDS:
            raise SymbolError(f"unknown pattern kind {kind!r}")
        self.kind = kind
        self.p = p
        self.pattern = GeneratingPattern.make(kind, element_area)
        self.n_elems = len(self.pattern.elements)
        self.n_loc = n_local(p)
        self.dim = self.n_elems * self.n_loc
        elem = np.arange(self.dim) // self.n_loc
        self.mask = elem[:, None] == elem
        self._assemble()
        self.two_cyclic, self.phase_direction = self._symmetries()

    def _assemble(self):
        """Fill `mass`, `offsets` and `parts` from all element sides at once.

        Side s = a nv + j runs from vertex j of element a to vertex j + 1.
        The representative cone direction makes it an outflow side, which
        couples element a to itself, or an inflow side, which couples a to
        its partner: the first side (b, i), then lattice offset (m1, m2) in
        {-1, 0, 1}^2, that traverses it in the opposite direction. Each
        block sums its terms in one order: the volume term, then the sides
        in side order.
        """
        ne, nl = self.n_elems, self.n_loc
        # the elements of a pattern have equal vertex counts
        el = np.array(self.pattern.elements)
        nv = el.shape[1]
        p0 = el.reshape(-1, 2)
        bases = CellBases(p0, np.arange(0, ne * nv + 1, nv),
                          np.arange(ne * nv), self.p)
        # one group: all elements, in order
        (_, nodes, weights, B), = bases.groups
        self.mass = np.zeros((self.dim, self.dim))
        self.mass[self.mask] = np.einsum("kq,kqi,kqj->kij",
                                         weights, B, B).ravel()
        volume = [-np.einsum("kq,kqi,kql->kil", weights, g, B)
                  for g in bases.gradients(np.arange(ne), nodes)]

        p1 = np.roll(el, -1, axis=1).reshape(-1, 2)
        d = p1 - p0
        normal = (np.stack([d[:, 1], -d[:, 0]], axis=1)
                  / np.hypot(d[:, 0], d[:, 1])[:, None])
        th = _representative_theta(self.kind)
        inflow = np.flatnonzero(
            np.cos(th) * normal[:, 0] + np.sin(th) * normal[:, 1] < 0.0)
        # match[s, t, o]: side t moved by moves[o] is inflow side s reversed
        A = self.pattern.lattice
        tol = 1e-9 * np.linalg.norm(A[0])
        moves = np.array([(m1, m2) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)])
        mid = 0.5 * (p0 + p1)
        match = ((np.linalg.norm(d[inflow, None] + d, axis=-1) <= tol)[..., None]
                 & (np.linalg.norm(mid[:, None] + moves @ A
                                   - mid[inflow, None, None], axis=-1) < tol))
        match = match.reshape(len(inflow), -1)
        lost = inflow[~match.any(axis=1)]
        if len(lost):
            raise SymbolError(f"no neighbor found across edge at "
                              f"{mid[lost[0]]} ({self.kind})")
        # each side's partner element and offset; an outflow side's are its
        # own element and (0, 0)
        side_elem = np.repeat(np.arange(ne), nv)
        partner, m = side_elem.copy(), np.zeros((ne * nv, 2), dtype=int)
        first = match.argmax(axis=1)
        partner[inflow], m[inflow] = first // (9 * nv), moves[first % 9]
        q = edge_quadrature(p0, p1, edge_degree(self.p))
        E = np.einsum("kq,kqi,kql->kil", q.weights,
                      bases.values(side_elem, q.nodes),
                      bases.values(partner, q.nodes - (m @ A)[:, None]))

        # the volume terms, then the side terms, each to its offset's slot
        # (offsets in first-seen order), rows' element and columns' element
        slots = {}
        slot = [slots.setdefault(o, len(slots))
                for o in [(0, 0)] * ne + list(map(tuple, m.tolist()))]
        self.offsets = np.array(list(slots))
        parts = np.zeros((len(slots), 2, ne, nl, ne, nl))
        np.add.at(parts, (slot, slice(None), np.r_[np.arange(ne), side_elem],
                          slice(None), np.r_[np.arange(ne), partner]),
                  np.concatenate([np.stack(volume, axis=1),
                                  normal[:, :, None, None] * E[:, None]]))
        self.parts = parts.reshape(len(slots), 2, self.dim, self.dim)

    def _symmetries(self):
        """(two_cyclic, phase_direction) of the pattern, read off which
        element pairs each offset couples outside the Jacobi diagonal.

        Two elements that couple only to each other outside the Jacobi
        diagonal make R_hat = [[0, X], [Y, 0]] (two-cyclic), whose
        eigenvalues are +-sqrt(eig(X Y)).

        The phase direction is the primitive integer direction d of the
        differences between the coupling offsets, as a tuple, or None when
        those differences do not lie on one line (or are all zero). The
        Jacobi symbol is R_hat(phi) = sum_m exp(i m.phi) C_m, where the
        element-diagonal blocks of offset (0, 0) are the Jacobi diagonal's
        and do not count. With every counted m on a line m_0 + t d,
        R_hat(phi) = exp(i m_0.phi) F(d.phi), so rho depends on phi only
        through d.phi. On a two-cyclic pattern rho^2 = rho(X Y), so the
        offsets of X and those of Y are taken separately.
        """
        ne, nl = self.n_elems, self.n_loc
        # coupled[i, a, b]: offset i couples element a to element b
        coupled = self.parts.reshape(len(self.parts), 2, ne, nl, ne, nl) \
            .any(axis=(1, 3, 5))
        coupled[0] &= ~np.eye(ne, dtype=bool)
        two_cyclic = ne == 2 and not coupled[:, [0, 1], [0, 1]].any()
        if two_cyclic:
            groups = [coupled[:, 0, 1], coupled[:, 1, 0]]
        else:
            groups = [coupled.any(axis=(1, 2))]
        diffs = np.concatenate([self.offsets[g] - self.offsets[g][:1]
                                for g in groups])
        diffs = diffs[diffs.any(axis=1)]
        direction = None
        if len(diffs):
            d = diffs[0] // np.gcd(*diffs[0])
            if not np.any(d[0] * diffs[:, 1] - d[1] * diffs[:, 0]):
                direction = int(d[0]), int(d[1])
        return two_cyclic, direction


@functools.cache
def pattern_operators(kind, p, element_area):
    """The PatternOperators of (kind, p, element_area), built once."""
    return PatternOperators(kind, p, element_area)


def _frobenius(Re, Im):
    """Frobenius norms of the stacked matrices Re + i Im."""
    return np.sqrt(np.einsum("ijk,ijk->i", Re, Re)
                   + np.einsum("ijk,ijk->i", Im, Im))


def _squared_bounds(Re, Im, norm, log_norm, floor, root):
    """Per stacked matrix M = Re + i Im, whose b_0 term is `norm` =
    ||M||_F with its log `log_norm`: the first norm-power bound b_s,
    s = 1 .. BOUND_SQUARINGS, below `floor`, or inf where none is
    (`PatternSymbol.spectral_radius_phases`)."""
    bound = np.full(len(Re), np.inf)
    todo = np.arange(len(Re))
    for s in range(1, BOUND_SQUARINGS + 1):
        if not len(todo):
            break
        scale = (1.0 / np.where(norm > 0.0, norm, 1.0))[:, None, None]
        Re, Im = Re * scale, Im * scale
        Re, Im = Re @ Re - Im @ Im, Re @ Im + Im @ Re
        norm = _frobenius(Re, Im)
        with np.errstate(divide="ignore"):
            log_norm = 2.0 * log_norm + np.log(norm)
        b = np.exp(log_norm / (2 ** s * root))
        low = b < floor
        bound[todo[low]] = b[low]
        todo, Re, Im, norm, log_norm = (
            todo[~low], Re[~low], Im[~low], norm[~low], log_norm[~low])
    return bound


def _radii(M):
    """max |eig| of each matrix of the stack M (..., d, d), in one batched
    eigen-solve. LAPACK solves each matrix on its own, so each radius is bit
    for bit that of a one-matrix solve."""
    return np.max(np.abs(np.linalg.eigvals(M)), axis=-1)


class PatternSymbol:
    """Generating-pattern symbol blocks for one (pattern, p, velocity)."""

    def __init__(self, kind, p, element_area, velocity):
        alpha, beta = float(velocity[0]), float(velocity[1])
        ops = pattern_operators(kind, p, element_area)
        check_admissible(kind, alpha, beta)
        self.pattern = ops.pattern
        self.n_loc = ops.n_loc
        self.dim = ops.dim
        self.mass = ops.mass
        self.offsets = ops.offsets
        self.phase_direction = ops.phase_direction
        self.two_cyclic = ops.two_cyclic
        self.blocks = alpha * ops.parts[:, 0] + beta * ops.parts[:, 1]
        # per-element diagonal blocks only (intra-pattern couplings excluded)
        self.diag = np.where(ops.mask, self.blocks[0], 0.0)

    def _phase_factors(self, phi1, phi2):
        """exp(i m.phi) for each offset m, shape phi.shape + (n_offsets,)."""
        return np.exp(1j * (np.multiply.outer(phi1, self.offsets[:, 0])
                            + np.multiply.outer(phi2, self.offsets[:, 1])))

    def _l_hat(self, phase):
        """sum_m phase_m B_m, summed from +0 in offset order."""
        out = np.zeros(phase.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for i, B in enumerate(self.blocks):
            out += phase[..., i, None, None] * B
        return out

    def l_hat_phases(self, phi1, phi2):
        """Fourier-space operator for lattice phases (phi1, phi2); broadcasts
        over arrays of phases."""
        return self._l_hat(self._phase_factors(phi1, phi2))

    def wave_phases(self, nx, ny):
        """Lattice phases of the planar wave with geometric wavenumber (nx, ny)."""
        a1, a2 = self.pattern.lattice
        return nx * a1[0] + ny * a1[1], nx * a2[0] + ny * a2[1]

    def jacobi_symbol(self, k, phi1, phi2):
        """R_hat = I - D^{-1} (M + k L_hat) at lattice phases (phi1, phi2)."""
        return self._jacobi(k, self._phase_factors(phi1, phi2))

    def _jacobi(self, k, phase):
        """`jacobi_symbol` from the phase factors of `_phase_factors`."""
        Dinv = np.linalg.inv(self.mass + k * self.diag)
        A = self.mass + k * self._l_hat(phase)
        return np.eye(self.dim) - Dinv @ A

    def _symbol_parts(self, k):
        """Offsets (n, 2) and real parts C_m = -k D^{-1} B_m, with the
        element-diagonal blocks taken out of B_00, so that
        R_hat(phi) = sum_m exp(i m.phi) C_m. For a two-cyclic pattern the
        parts are the pair (X_m, Y_m) of off-diagonal element blocks."""
        Dinv = np.linalg.inv(self.mass + k * self.diag)
        C = -k * (Dinv @ np.concatenate([[self.blocks[0] - self.diag],
                                         self.blocks[1:]]))
        if self.two_cyclic:
            nl = self.n_loc
            C = (C[:, :nl, nl:], C[:, nl:, :nl])
        return self.offsets, C

    def spectral_radius_phases(self, k, phi1, phi2, screen=False, floor=None):
        """max |eig(R_hat)| at lattice phases (phi1, phi2); broadcasts.

        The reference path builds R_hat with `jacobi_symbol`. `screen=True`
        sums it from `_symbol_parts` and returns rho(M)^(1/root): M = R_hat,
        root = 1, or on a two-cyclic pattern the half-size M = X Y, root = 2.
        The two paths agree to rounding but not bitwise. The reference path
        builds and solves each distinct symbol of a call once: points whose
        phase factors agree in bytes at the live offsets, those whose block
        is not all zero, share the first one's radius. R_hat's bytes depend
        on those factors alone, since L_hat sums from +0 and a zero block
        adds only +-0, and a matrix's radius is bit for bit its own solve's
        (`_radii`). So the reference path's radii do not depend on the other
        points of the call; the screen's do, within rounding, since its
        batched sums round with the batch.

        With a `floor`, points are proven low instead of solved. By
        Gelfand's formula (Horn and Johnson, Matrix Analysis, 2nd ed.,
        5.6), b_s = ||M^(2^s)||_F^(1/(2^s root)) >= rho(R_hat) for every s,
        up to rounding. Each point's M is squared up to BOUND_SQUARINGS
        times, rescaled to unit norm before each squaring, and the
        log-norms are summed with doubling weights. The squarings run in
        real arithmetic on M = Re + i Im, as
        (Re, Im) -> (Re Re - Im Im, Re Im + Im Re), and the norm sums both
        parts. A point whose b_s is below the floor (s = 0 first) gets b_s;
        every other point gets its eigenvalue radius, bitwise the value
        without a floor.
        """
        if not screen:
            phase = self._phase_factors(phi1, phi2)
            if phase.ndim == 1:   # one point (the refine): nothing to share
                return _radii(self._jacobi(k, phase))
            flat = phase.reshape(-1, phase.shape[-1])
            live = np.ascontiguousarray(flat[:, self.blocks.any(axis=(1, 2))])
            keys = live.view(np.dtype((np.void, live.itemsize
                                       * live.shape[1])))[:, 0]
            _, first, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
            return _radii(self._jacobi(k, flat[first]))[inverse].reshape(
                phase.shape[:-1])
        phi1, phi2 = np.broadcast_arrays(np.asarray(phi1, float),
                                         np.asarray(phi2, float))
        _, parts = self._symbol_parts(k)
        phase = self._phase_factors(phi1, phi2)

        def symbol(C):
            return (phase @ C.reshape(len(C), -1)).reshape(
                phi1.shape + C.shape[1:])

        M = (symbol(parts[0]) @ symbol(parts[1]) if self.two_cyclic
             else symbol(parts))

        def radius(M):
            r = _radii(M)
            return np.sqrt(r) if self.two_cyclic else r

        if floor is None:
            return radius(M)
        M = M.reshape((-1,) + M.shape[-2:])
        root = 2 if self.two_cyclic else 1
        # s = 0: each point's own bound, on contiguous copies (einsum sums
        # a strided view in another order)
        norm = _frobenius(M.real.copy(), M.imag.copy())
        with np.errstate(divide="ignore"):
            log_norm = np.log(norm)
        rho = np.exp(log_norm / root)
        high = np.flatnonzero(rho >= floor)
        rho[high] = _squared_bounds(M.real[high], M.imag[high], norm[high],
                                    log_norm[high], floor, root)
        solve = high[rho[high] >= floor]
        rho[solve] = radius(M[solve])
        return rho.reshape(phi1.shape)


# -- closed forms --------------------------------------------------------

def paper_wave_coords(kind, nx, ny):
    """Map a geometric wavenumber to the coordinates the displayed p=0
    formulas are written in (they differ only for equilateral triangles,
    whose second phase is taken along the oblique lattice vector)."""
    if kind == "etri":
        return nx, 0.5 * nx + 0.5 * np.sqrt(3.0) * ny
    return nx, ny


def closed_form_p0_eigs(kind, h, alpha, beta, k, nx, ny):
    """Displayed p=0 Jacobi eigenvalues for each pattern (paper coordinates)."""
    ex = np.exp(-1j * nx * h)
    ey = np.exp(-1j * ny * h)
    if kind == "square":
        lam = k * (alpha * ex + beta * ey) / (h + k * (alpha + beta))
        return np.array([lam])
    if kind == "hexagon":
        s3 = np.sqrt(3.0)
        num = k * np.exp(-0.5j * h * (3 * nx + s3 * ny)) * (
            s3 * beta * (2 * np.exp(0.5j * h * (3 * nx - s3 * ny))
                         - np.exp(1j * s3 * h * ny) + 1.0)
            + 3 * alpha * (1.0 + np.exp(1j * s3 * h * ny)))
        return np.array([num / (9 * h + 6 * alpha * k + 2 * s3 * beta * k)])
    if kind == "rtri":
        root = np.sqrt(alpha) * np.sqrt(beta + (alpha - beta) * np.exp(1j * h * ny))
        lam = 2 * k * np.exp(-0.5j * h * (nx + ny)) * root / (h + 2 * alpha * k)
        return np.array([lam, -lam])
    if kind == "etri":
        s3 = np.sqrt(3.0)
        num = 2 * k * (3 * alpha + s3 * beta) * np.sqrt(
            2 * beta * np.exp(1j * h * nx) + (s3 * alpha - beta) * np.exp(1j * h * ny))
        den = (3 * h + 6 * alpha * k + 2 * s3 * beta * k) * np.sqrt(
            (s3 * alpha + beta) * np.exp(1j * h * (nx + ny)))
        lam = num / den
        return np.array([lam, -lam])
    raise SymbolError(f"unknown pattern kind {kind!r}")


# -- sweeps and the comparison table -------------------------------------

# Screened values within this of the screened peak are recomputed exactly;
# the screen differs from the reference path by ~1e-14.
SCREEN_TOL = 1e-9
# Extra room below the pruning floor for rounding (`screened_grid`).
ROUNDING_MARGIN = 1e-9
# Squarings before a point is eigen-solved: on the default grid at p = 2, k2,
# squarings plus eigen-solves cost 4 % more with 12 than with 16, as much
# with 20 or 24 (within 1 %), and 40 % more with 8.
BOUND_SQUARINGS = 16
# Points recomputed on the reference path per call, which bounds memory: a
# whole near-peak row of 2304 distinct p = 2 symbols in one call would hold
# ~28 MB. Values do not depend on the slicing, since a symbol's bytes depend
# on its own phases and each matrix's radius is its own solve's.
RECOMPUTE_SLICE = 256


# the velocity angles a sweep covers: each pattern's own cone, or [0, pi/4]
THETA_RANGE_MODES = ("per-pattern", "quarter-pi")


@dataclass
class SweepConfig:
    theta_samples: int = 32
    wave_samples: int = 48
    theta_range: str = "per-pattern"   # one of THETA_RANGE_MODES


# each timestep label's multiple of the family's k1; powers of two, so each
# k is its k1 scaled exactly
TIMESTEP_FACTORS = {"k1": 1.0, "k2": 2.0, "k3": 4.0}


def timestep_family(element_area, label):
    """k1 = 3 h_E / |beta| (|beta| = 1), k2 = 2 k1, k3 = 4 k1."""
    h_E = h_E_from_area(element_area)
    if label not in TIMESTEP_FACTORS:
        raise SymbolError(f"unknown timestep label {label!r} "
                          f"(choose from {sorted(TIMESTEP_FACTORS)})")
    return TIMESTEP_FACTORS[label] * (3.0 * h_E)


def velocity_mirror(pattern, t0, t1):
    """Phase map T of the pattern's mirror about the cone bisector, or None.

    S, the reflection about the direction (t0 + t1) / 2, takes velocity
    angle theta to t0 + t1 - theta and the lattice vectors to
    S a_i = sum_j T_ij a_j. If T is integral and unimodular and S takes
    every element onto an element up to a lattice translation, S maps the
    tiling onto itself, and the Jacobi symbol at (t0 + t1 - theta, T phi)
    is similar to the one at (theta, phi): the spectral radii agree.
    """
    c = t0 + t1
    S = np.array([[np.cos(c), np.sin(c)], [np.sin(c), -np.cos(c)]])
    A = pattern.lattice
    T = A @ S @ np.linalg.inv(A)
    Ti = np.rint(T).astype(int)
    det = Ti[0, 0] * Ti[1, 1] - Ti[0, 1] * Ti[1, 0]
    if np.max(np.abs(T - Ti)) > 1e-9 or abs(det) != 1:
        return None
    # the elements of a pattern have equal vertex counts
    els = np.array(pattern.elements)
    images = els @ S
    # per (image, element): the centroid shift, its lattice coordinates and
    # the distance from each shifted image vertex to the nearest vertex
    shift = els.mean(axis=1) - images.mean(axis=1)[:, None]
    m = np.linalg.solve(A.T, shift.reshape(-1, 2).T).T
    lattice = np.max(np.abs(m - np.rint(m)), axis=1) <= 1e-9
    gap = np.linalg.norm(images[:, None, :, None] + shift[:, :, None, None]
                         - els[None, :, None], axis=-1).min(axis=-1)
    onto = lattice.reshape(shift.shape[:2]) & np.all(
        gap < 1e-9 * np.linalg.norm(A[0]), axis=-1)
    return Ti if onto.any(axis=1).all() else None


def screened_grid(syms, k, n, n_theta, mirror=None):
    """Screened spectral radii on the grid of n_theta velocity angles and
    the phases 2 pi (j1, j2) / n, shape (n_theta, n * n), phases in C order.

    Each phase gets an orbit label, equal on phases whose radii are equal
    by symmetry: rho(-phi) = rho(phi) always, and where the pattern has a
    `phase_direction` d, rho depends on the phases only through d.phi. So
    the label is min(j1 n + j2, its conjugate's) without a direction
    (hexagon), and min(c, -c mod n), c = d1 j1 + d2 j2 mod n, with one
    (square, rtri, etri): about n^2 / 2 or n / 2 + 1 orbits. Only the first
    phase of each orbit in C order is screened, and its value is copied to
    the whole orbit.

    `syms` holds the symbols of the angles to screen. Without a mirror
    they are all n_theta angles; with the phase map `mirror` of
    `velocity_mirror` they are the first ceil(n_theta / 2), and angle
    n_theta - 1 - t takes angle t's radii at the phases T phi.

    Each angle is screened with the floor
    best - SCREEN_TOL - ROUNDING_MARGIN, best being the largest radius
    found so far: at phase zero of every angle, then on each angle
    screened. A pruned point's bound b, and so its radius r <= b, lies
    below the grid's peak minus SCREEN_TOL; the margin covers rounding
    (~1e-15) in b, in the phase-zero radii and between the members of an
    orbit. So the points within SCREEN_TOL of the peak, and their values,
    are an unfloored screen's.
    """
    j1, j2 = np.divmod(np.arange(n * n), n)
    d = syms[0].phase_direction
    if d is None:
        label = np.minimum(j1 * n + j2, (-j1 % n) * n + (-j2 % n))
    else:
        c = (d[0] * j1 + d[1] * j2) % n
        label = np.minimum(c, -c % n)
    # reps[o]: orbit o's first phase; orbit[g]: phase g's orbit
    _, reps, orbit = np.unique(label, return_index=True, return_inverse=True)
    phis = 2.0 * np.pi * np.arange(n) / n
    screened = np.empty((n_theta, n * n))
    best = max(sym.spectral_radius_phases(k, 0.0, 0.0, screen=True)
               for sym in syms)
    for sym, row in zip(syms, screened):
        row[:] = sym.spectral_radius_phases(
            k, phis[j1[reps]], phis[j2[reps]], screen=True,
            floor=best - SCREEN_TOL - ROUNDING_MARGIN)[orbit]
        best = max(best, row.max())
    if mirror is not None:
        # rho(t0 + t1 - theta, T phi) = rho(theta, phi)
        i1, i2 = (mirror @ np.stack([j1, j2])) % n
        m = n_theta // 2
        screened[::-1][:m, i1 * n + i2] = screened[:m]
    return screened


def nelder_mead(f, x0, xatol, fatol, maxiter):
    """Minimize f from x0 by the simplex search of Nelder and Mead
    (Comput. J. 7(4), 1965); returns the best vertex and its value.

    It replays scipy 1.17.1's `minimize(f, x0, method="Nelder-Mead",
    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})`, which
    is non-adaptive and unbounded, operation for operation: the same
    initial simplex, re-sorting and step expressions, and f gets a fresh
    copy of each point. So it evaluates the same points and returns the
    same value, bit for bit.
    """
    x0 = np.asarray(x0, float).ravel()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for j in range(N):
        y = x0.copy()
        y[j] = 1.05 * y[j] if y[j] != 0 else 0.00025
        sim[j + 1] = y
    fsim = np.array([f(np.copy(x)) for x in sim], dtype=float)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # sorted twice, as scipy does: an unstable argsort may reorder ties
    sim, fsim = ordered(*ordered(sim, fsim))
    for _ in range(maxiter - 1):
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = f(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # contract outside the simplex, or inside it
            outside = fxr < fsim[-1]
            xc = (1.5 * xbar - 0.5 * sim[-1] if outside
                  else 0.5 * xbar + 0.5 * sim[-1])
            fxc = f(np.copy(xc))
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(np.copy(sim[j]))
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim)


def max_spectral_radius(kind, p, k, element_area, config=None):
    """Max Jacobi symbol spectral radius over velocity angle and wavenumber.

    A coarse (theta x phase-grid) sweep locates the peak; a derivative-free
    local search, `nelder_mead` from the peak (theta clamped to the cone),
    then refines it, since the maximizer can be sharp. The timestep k must
    be finite and positive.

    The coarse grid is screened with the cheap `screen=True` path on part
    of it: one phase per orbit of phases with equal radii (`screened_grid`:
    rho(-phi) = rho(phi), and on square, rtri and etri rho depends on
    d.phi only, d the `phase_direction` of `PatternOperators`), and when
    the pattern is mirror-symmetric about its cone's bisector
    (`velocity_mirror`: square and etri with T = [[0, 1], [1, 0]], hexagon
    with T = [[1, 0], [1, -1]]; not rtri, and no pattern on the quarter-pi
    range) only the first ceil(N/2) angles are screened and angle N-1-t
    takes angle t's values at the phases T phi. A point whose norm-power
    bound proves it more than SCREEN_TOL below a radius already found keeps
    the bound instead of an eigen-solve (`screened_grid`), which leaves the
    values within SCREEN_TOL of the peak as they are. Every such point,
    mirrored rows included, is then recomputed on the reference path, so
    the peak, its first location in C order and thus the refine's start
    are bit for bit those of a full reference grid. The recompute builds
    and eigen-solves each distinct symbol of a slice once
    (`PatternSymbol.spectral_radius_phases`): at theta = 0, rtri's symbol
    does not depend on phi2, and its 2304 near-peak points at p = 2, k2
    take 54 symbols over the slices. The refine evaluates the points scipy's
    Nelder-Mead would, so the result is also bit for bit the one
    `scipy.optimize.minimize` gave.
    """
    config = config or SweepConfig()
    if config.theta_samples < 1 or config.wave_samples < 1:
        raise SymbolError("sample counts must be >= 1")
    if not (np.isfinite(k) and k > 0.0):
        raise SymbolError(f"timestep k must be finite and positive, got {k}")
    if kind not in THETA_RANGES:
        raise SymbolError(f"unknown pattern kind {kind!r}")
    if config.theta_range == "quarter-pi":
        t0, t1 = 0.0, np.pi / 4.0
    elif config.theta_range == "per-pattern":
        t0, t1 = THETA_RANGES[kind]
    else:
        raise SymbolError(f"unknown theta range {config.theta_range!r} "
                          f"(choose from {', '.join(THETA_RANGE_MODES)})")
    thetas = np.linspace(t0, t1, config.theta_samples)
    n = config.wave_samples
    phis = 2.0 * np.pi * np.arange(n) / n
    mirror = velocity_mirror(pattern_operators(kind, p, element_area).pattern,
                             t0, t1)

    def symbol(th):
        return PatternSymbol(kind, p, element_area, (np.cos(th), np.sin(th)))

    # build the screened angles' symbols before any eigen-solve: built
    # between solves, each costs several times more
    n_theta = len(thetas)
    syms = [symbol(th) for th in
            thetas[:n_theta if mirror is None else (n_theta + 1) // 2]]
    screened = screened_grid(syms, k, n, n_theta, mirror)
    # Verify every point the screen puts near the peak on the reference
    # path, so the peak and its location are those of a full reference grid
    # (first in C order over theta, then phase); the refine below starts
    # from a symmetric critical point and amplifies a 1-ulp change.
    exact = np.full_like(screened, -np.inf)
    near = screened >= screened.max() - SCREEN_TOL
    for t in np.flatnonzero(near.any(axis=1)):
        sym = syms[t] if t < len(syms) else symbol(thetas[t])
        points = np.flatnonzero(near[t])
        for start in range(0, len(points), RECOMPUTE_SLICE):
            g = points[start:start + RECOMPUTE_SLICE]
            exact[t, g] = sym.spectral_radius_phases(k, phis[g // n],
                                                     phis[g % n])
    t, g = np.unravel_index(np.argmax(exact), exact.shape)
    best = max(float(exact[t, g]), 0.0)
    best_point = (thetas[t], phis[g // n], phis[g % n]) if best > 0.0 else None
    if best_point is None:
        return best

    def neg_rho(x):
        sym = symbol(min(max(x[0], t0), t1))
        return -float(sym.spectral_radius_phases(k, x[1], x[2]))

    _, fun = nelder_mead(neg_rho, np.array(best_point), xatol=1e-8,
                         fatol=1e-12, maxiter=400)
    return max(best, -float(fun))


def ratio_table(p_list, k_labels, config=None):
    """Per (p, k) and pattern kind: log(lambda_max(best pattern)) /
    log(lambda_max(pattern)).

    Returns {(kind, p, k_label): (lambda_max, ratio)}; the winning pattern in
    each (p, k) column has ratio exactly 1.
    """
    config = config or SweepConfig()
    if not p_list or not k_labels:
        raise SymbolError("empty p or k list")
    area = np.sqrt(3.0) / 4.0   # h_E = 1
    for p in p_list:
        check_degree(p)   # a bad degree fails before any sweep
    # a bad label fails before any sweep
    steps = {lab: timestep_family(area, lab) for lab in k_labels}
    out = {}
    for p in p_list:
        for lab, k in steps.items():
            lams = {kind: max_spectral_radius(kind, p, k, area, config)
                    for kind in PATTERN_KINDS}
            best = min(lams.values())
            for kind in PATTERN_KINDS:
                out[(kind, p, lab)] = (lams[kind], np.log(best) / np.log(lams[kind]))
    return out
