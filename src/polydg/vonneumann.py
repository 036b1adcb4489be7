"""Fourier symbol analysis of the block Jacobi iteration on the four regular
generating patterns: symbol matrices, closed-form p=0 eigenvalues, spectral
radius sweeps, and the log-ratio comparison table."""

import functools
from dataclasses import dataclass

import numpy as np

from .basis import CellBases, check_degree, edge_quadrature, n_local
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
        # the elements of a pattern have equal vertex counts
        verts = np.concatenate(self.pattern.elements)
        nv = len(self.pattern.elements[0])
        self.bases = CellBases(verts, np.arange(0, len(verts) + 1, nv),
                               np.arange(len(verts)), p).bases
        elem = np.arange(self.dim) // self.n_loc
        self.mask = elem[:, None] == elem
        self._assemble()

    def _find_partner(self, mid, direction, scale):
        """Element index and lattice offset of the cell across an edge; the
        partner traverses the shared side in the opposite direction."""
        a1, a2 = self.pattern.lattice
        for b, el in enumerate(self.pattern.elements):
            nb = len(el)
            for j in range(nb):
                d = el[(j + 1) % nb] - el[j]
                if np.linalg.norm(d + direction) > 1e-9 * scale:
                    continue
                smid = 0.5 * (el[j] + el[(j + 1) % nb])
                for m1 in (-1, 0, 1):
                    for m2 in (-1, 0, 1):
                        if np.linalg.norm(smid + m1 * a1 + m2 * a2 - mid) < 1e-9 * scale:
                            return b, (m1, m2)
        raise SymbolError(f"no neighbor found across edge at {mid} ({self.kind})")

    def _assemble(self):
        nl = self.n_loc
        th = _representative_theta(self.kind)
        ra, rb = np.cos(th), np.sin(th)
        a1, a2 = self.pattern.lattice
        scale = np.linalg.norm(a1)
        parts = {}   # offset -> (alpha part, beta part), in first-seen order

        def add(m, a, b, blk_a, blk_b):
            P = parts.setdefault(m, np.zeros((2, self.dim, self.dim)))
            P[:, a * nl:(a + 1) * nl, b * nl:(b + 1) * nl] += (blk_a, blk_b)

        self.mass = np.zeros((self.dim, self.dim))
        for a, basis in enumerate(self.bases):
            q = basis.quadrature
            B = basis.eval(q.nodes)
            G = basis.eval_grad(q.nodes)
            self.mass[a * nl:(a + 1) * nl, a * nl:(a + 1) * nl] = \
                np.einsum("q,qi,qj->ij", q.weights, B, B)
            add((0, 0), a, a,
                -np.einsum("q,qi,ql->il", q.weights, G[:, :, 0], B),
                -np.einsum("q,qi,ql->il", q.weights, G[:, :, 1], B))
        edge_deg = 2 * self.p + 1
        for a, el in enumerate(self.pattern.elements):
            nv = len(el)
            for j in range(nv):
                p0, p1 = el[j], el[(j + 1) % nv]
                d = p1 - p0
                length = np.hypot(d[0], d[1])
                normal = np.array([d[1], -d[0]]) / length
                q = edge_quadrature(p0, p1, edge_deg)
                wa = self.bases[a].eval(q.nodes)
                # in/outflow decided by the representative cone direction
                if ra * normal[0] + rb * normal[1] >= 0.0:
                    E = np.einsum("q,qi,ql->il", q.weights, wa, wa)
                    add((0, 0), a, a, normal[0] * E, normal[1] * E)
                else:
                    b, (m1, m2) = self._find_partner(0.5 * (p0 + p1), d, scale)
                    off = m1 * a1 + m2 * a2
                    wb = self.bases[b].eval(q.nodes - off)
                    E = np.einsum("q,qi,ql->il", q.weights, wa, wb)
                    add((m1, m2), a, b, normal[0] * E, normal[1] * E)
        self.offsets = np.array(list(parts))
        self.parts = np.stack(list(parts.values()))


@functools.cache
def pattern_operators(kind, p, element_area):
    """The PatternOperators of (kind, p, element_area), built once."""
    return PatternOperators(kind, p, element_area)


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
        self.blocks = alpha * ops.parts[:, 0] + beta * ops.parts[:, 1]
        # per-element diagonal blocks only (intra-pattern couplings excluded)
        self.diag = np.where(ops.mask, self.blocks[0], 0.0)
        # Two elements that couple only to each other outside the Jacobi
        # diagonal make R_hat = [[0, X], [Y, 0]] (two-cyclic), whose
        # eigenvalues are +-sqrt(eig(X Y)).
        self.two_cyclic = (ops.n_elems == 2
                           and not self.blocks[1:, ops.mask].any())
        self._parts_by_k = {}

    def l_hat_phases(self, phi1, phi2):
        """Fourier-space operator for lattice phases (phi1, phi2); broadcasts
        over arrays of phases."""
        phi1 = np.asarray(phi1, float)
        phi2 = np.asarray(phi2, float)
        shape = np.broadcast(phi1, phi2).shape
        out = np.zeros(shape + (self.dim, self.dim), dtype=complex)
        for (m1, m2), B in zip(self.offsets, self.blocks):
            phase = np.exp(1j * (m1 * phi1 + m2 * phi2))
            out += phase[..., None, None] * B
        return out

    def wave_phases(self, nx, ny):
        """Lattice phases of the planar wave with geometric wavenumber (nx, ny)."""
        a1, a2 = self.pattern.lattice
        return nx * a1[0] + ny * a1[1], nx * a2[0] + ny * a2[1]

    def jacobi_symbol(self, k, phi1, phi2):
        """R_hat = I - D^{-1} (M + k L_hat) at lattice phases (phi1, phi2)."""
        Dinv = np.linalg.inv(self.mass + k * self.diag)
        A = self.mass + k * self.l_hat_phases(phi1, phi2)
        return np.eye(self.dim) - Dinv @ A

    def _symbol_parts(self, k):
        """Offsets (n, 2) and real parts C_m = -k D^{-1} B_m, with the
        element-diagonal blocks taken out of B_00, so that
        R_hat(phi) = sum_m exp(i m.phi) C_m. For a two-cyclic pattern the
        parts are the pair (X_m, Y_m) of off-diagonal element blocks."""
        parts = self._parts_by_k.get(k)
        if parts is None:
            Dinv = np.linalg.inv(self.mass + k * self.diag)
            C = -k * (Dinv @ np.concatenate([[self.blocks[0] - self.diag],
                                             self.blocks[1:]]))
            if self.two_cyclic:
                nl = self.n_loc
                C = (C[:, :nl, nl:], C[:, nl:, :nl])
            parts = (self.offsets, C)
            self._parts_by_k[k] = parts
        return parts

    def spectral_radius_phases(self, k, phi1, phi2, screen=False, floor=None):
        """max |eig(R_hat)| at lattice phases (phi1, phi2); broadcasts.

        The reference path builds R_hat with `jacobi_symbol`. `screen=True`
        sums it from `_symbol_parts` and returns rho(M)^(1/root): M = R_hat,
        root = 1, or on a two-cyclic pattern the half-size M = X Y, root = 2.
        The two paths agree to rounding but not bitwise.

        With a `floor`, points are proven low instead of solved. By
        Gelfand's formula (Horn and Johnson, Matrix Analysis, 2nd ed.,
        5.6), b_s = ||M^(2^s)||_F^(1/(2^s root)) >= rho(R_hat) for every s,
        up to rounding. M is squared up to BOUND_SQUARINGS times, rescaled
        to unit norm before each squaring, and the log-norms are summed
        with doubling weights. A point whose b_s is below the floor gets
        b_s; every other point gets its eigenvalue radius, bitwise the
        value without a floor.
        """
        if not screen:
            R = self.jacobi_symbol(k, phi1, phi2)
            return np.max(np.abs(np.linalg.eigvals(R)), axis=-1)
        phi1, phi2 = np.broadcast_arrays(np.asarray(phi1, float),
                                         np.asarray(phi2, float))
        offsets, parts = self._symbol_parts(k)
        phase = np.exp(1j * (np.multiply.outer(phi1, offsets[:, 0])
                             + np.multiply.outer(phi2, offsets[:, 1])))

        def symbol(C):
            return (phase @ C.reshape(len(C), -1)).reshape(
                phi1.shape + C.shape[1:])

        M = (symbol(parts[0]) @ symbol(parts[1]) if self.two_cyclic
             else symbol(parts))

        def radius(M):
            r = np.max(np.abs(np.linalg.eigvals(M)), axis=-1)
            return np.sqrt(r) if self.two_cyclic else r

        if floor is None:
            return radius(M)
        M = M.reshape((-1,) + M.shape[-2:])
        rho = np.empty(len(M))
        todo = np.arange(len(M))
        A, log_norm = M, np.zeros(len(M))
        for s in range(BOUND_SQUARINGS + 1):
            F = A.reshape(len(A), -1).view(float)
            norm = np.sqrt(np.einsum("ij,ij->i", F, F))
            with np.errstate(divide="ignore"):
                log_norm = 2.0 * log_norm + np.log(norm)
            bound = np.exp(log_norm / (2 ** s * (2 if self.two_cyclic else 1)))
            low = bound < floor
            rho[todo[low]] = bound[low]
            todo, log_norm = todo[~low], log_norm[~low]
            if s == BOUND_SQUARINGS or not len(todo):
                break
            A, norm = A[~low], norm[~low]
            A *= 1.0 / np.where(norm > 0.0, norm, 1.0)[:, None, None]
            A = A @ A
        rho[todo] = radius(M[todo])
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
# Squarings before a point is eigen-solved: on the default grid 12 or 20
# cost within 4 % of 16 in squarings plus eigen-solves, and 8 cost 50 % more.
BOUND_SQUARINGS = 16
# Points recomputed on the reference path per call: a whole near-peak row
# (rtri p=2 k2 puts all 2304 phases of theta = 0 there) in one call holds
# ~28 MB of complex symbols; eigenvalues are solved per matrix, so slices
# give the same values bitwise.
RECOMPUTE_SLICE = 256


# the velocity angles a sweep covers: each pattern's own cone, or [0, pi/4]
THETA_RANGE_MODES = ("per-pattern", "quarter-pi")


@dataclass
class SweepConfig:
    theta_samples: int = 32
    wave_samples: int = 48
    theta_range: str = "per-pattern"   # one of THETA_RANGE_MODES
    refine: bool = True                # polish the coarse-grid peak locally


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


def _is_lattice_translate(a, b, lattice, scale):
    """Whether polygon b has the vertices of polygon a (in any order) moved
    by an integer combination of the lattice vectors."""
    if len(a) != len(b):
        return False
    shift = b.mean(axis=0) - a.mean(axis=0)
    m = np.linalg.solve(lattice.T, shift)
    if np.max(np.abs(m - np.rint(m))) > 1e-9:
        return False
    d = np.linalg.norm((a + shift)[:, None, :] - b[None, :, :], axis=-1)
    return bool(np.all(d.min(axis=1) < 1e-9 * scale))


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
    scale = np.linalg.norm(A[0])
    for el in pattern.elements:
        image = el @ S
        if not any(_is_lattice_translate(image, other, A, scale)
                   for other in pattern.elements):
            return None
    return Ti


def screened_grid(syms, k, n, n_theta, mirror=None):
    """Screened spectral radii on the grid of n_theta velocity angles and
    the phases 2 pi (j1, j2) / n, shape (n_theta, n * n), phases in C order.

    `syms` holds the symbols of the angles to screen, each on half the
    phases, since rho(-phi) = rho(phi). Without a mirror they are all
    n_theta angles; with the phase map `mirror` of `velocity_mirror` they
    are the first ceil(n_theta / 2), and angle n_theta - 1 - t takes angle
    t's radii at the phases T phi.

    Each angle is screened with the floor
    best - SCREEN_TOL - ROUNDING_MARGIN, best being the largest radius
    found so far: at phase zero of every angle, then on each angle
    screened. A pruned point's bound b, and so its radius r <= b, lies
    below the grid's peak minus SCREEN_TOL; the margin covers rounding
    (~1e-15) in b and in the phase-zero radii. So the points within
    SCREEN_TOL of the peak, and their values, are an unfloored screen's.
    """
    # screen the half of the phases that is at or before its conjugate
    # point -phi in C order and copy each value to the conjugate
    flat = np.arange(n * n)
    conj = (-(flat // n) % n) * n + (-flat % n)
    half = flat <= conj
    keep, copy = flat[half], conj[half]
    phis = 2.0 * np.pi * np.arange(n) / n
    screened = np.empty((n_theta, n * n))
    best = max(sym.spectral_radius_phases(k, 0.0, 0.0, screen=True)
               for sym in syms)
    for sym, row in zip(syms, screened):
        row[keep] = row[copy] = sym.spectral_radius_phases(
            k, phis[keep // n], phis[keep % n], screen=True,
            floor=best - SCREEN_TOL - ROUNDING_MARGIN)
        best = max(best, row.max())
    if mirror is not None:
        # rho(t0 + t1 - theta, T phi) = rho(theta, phi)
        i1, i2 = (mirror @ np.stack(np.divmod(flat, n))) % n
        m = n_theta // 2
        screened[::-1][:m, i1 * n + i2] = screened[:m]
    return screened


def max_spectral_radius(kind, p, k, element_area, config=None):
    """Max Jacobi symbol spectral radius over velocity angle and wavenumber.

    A coarse (theta x phase-grid) sweep locates the peak; a derivative-free
    local search then refines it, since the maximizer can be sharp. The
    timestep k must be finite and positive.

    The coarse grid is screened with the cheap `screen=True` path on half
    of it: rho(-phi) = rho(phi) halves each phase grid, and when the
    pattern is mirror-symmetric about its cone's bisector
    (`velocity_mirror`: square and etri with T = [[0, 1], [1, 0]], hexagon
    with T = [[1, 0], [1, -1]]; not rtri, and no pattern on the quarter-pi
    range) only the first ceil(N/2) angles are screened and angle N-1-t
    takes angle t's values at the phases T phi. A point whose norm-power
    bound proves it more than SCREEN_TOL below a radius already found keeps
    the bound instead of an eigen-solve (`screened_grid`), which leaves the
    values within SCREEN_TOL of the peak as they are. Every such point,
    mirrored rows included, is then
    recomputed on the reference path, so the peak, its first location in C
    order and thus the refine's start are bit for bit those of a full
    reference grid.
    """
    from scipy.optimize import minimize

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
    if not config.refine or best_point is None:
        return best

    def neg_rho(x):
        sym = symbol(min(max(x[0], t0), t1))
        return -float(sym.spectral_radius_phases(k, x[1], x[2]))

    res = minimize(neg_rho, np.array(best_point), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 400})
    return max(best, -float(res.fun))


def ratio_table(p_list, k_labels, config=None, kinds=PATTERN_KINDS):
    """Per (p, k): log(lambda_max(best pattern)) / log(lambda_max(pattern)).

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
                    for kind in kinds}
            best = min(lams.values())
            for kind in kinds:
                out[(kind, p, lab)] = (lams[kind], np.log(best) / np.log(lams[kind]))
    return out
