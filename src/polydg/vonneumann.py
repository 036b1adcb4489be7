"""Fourier symbol analysis of the block Jacobi iteration on the four regular
generating patterns: symbol matrices, closed-form p=0 eigenvalues, spectral
radius sweeps, and the log-ratio comparison table."""

from dataclasses import dataclass

import numpy as np

from .basis import ElementBasis, edge_quadrature, n_local
from .mesh import GeneratingPattern, MeshError, PATTERN_KINDS, h_E_from_area, pattern_side_length


class SymbolError(Exception):
    pass


THETA_RANGES = {
    "square": (0.0, np.pi / 2.0),
    "hexagon": (0.0, np.pi / 3.0),
    "etri": (0.0, np.pi / 3.0),
    "rtri": (0.0, np.pi / 4.0),
}


def check_admissible(kind, alpha, beta, tol=1e-12):
    ok = alpha >= -tol and beta >= -tol
    if kind in ("hexagon", "etri"):
        ok = ok and (np.sqrt(3.0) * alpha - beta >= -tol)
    elif kind == "rtri":
        ok = ok and (alpha - beta >= -tol)
    if not ok:
        raise SymbolError(
            f"velocity ({alpha}, {beta}) violates the sign conditions for {kind}")


def _representative_theta(kind):
    """A direction strictly inside the admissible cone; the upwind in/outflow
    split of every pattern edge is constant across the whole cone, so this
    direction fixes the splitting for all admissible velocities."""
    t0, t1 = THETA_RANGES[kind]
    return 0.5 * (t0 + t1)


class PatternOperators:
    """Velocity-independent generating-pattern assembly for one (kind, p).

    The upwind operator is linear in the velocity (alpha, beta) on the
    admissible cone, so the per-offset coupling blocks are stored as a pair
    (alpha part, beta part). Couplings to the pattern at lattice offset
    m1*a1 + m2*a2 are keyed by (m1, m2).
    """

    def __init__(self, kind, p, element_area):
        if kind not in PATTERN_KINDS:
            raise SymbolError(f"unknown pattern kind {kind!r}")
        self.kind = kind
        self.p = p
        self.element_area = float(element_area)
        self.pattern = GeneratingPattern.make(kind, element_area)
        self.n_elems = len(self.pattern.elements)
        self.n_loc = n_local(p)
        self.dim = self.n_elems * self.n_loc
        self.bases = [ElementBasis(el, p) for el in self.pattern.elements]
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
        parts = {}   # offset -> (alpha part, beta part)

        def add(m, a, b, blk_a, blk_b):
            zero = lambda: np.zeros((self.dim, self.dim))
            Ba, Bb = parts.setdefault(m, (zero(), zero()))
            Ba[a * nl:(a + 1) * nl, b * nl:(b + 1) * nl] += blk_a
            Bb[a * nl:(a + 1) * nl, b * nl:(b + 1) * nl] += blk_b

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
        self.parts = parts

    def blocks_for(self, alpha, beta):
        return {m: alpha * Ba + beta * Bb for m, (Ba, Bb) in self.parts.items()}


_OPERATOR_CACHE = {}


def pattern_operators(kind, p, element_area):
    key = (kind, p, round(float(element_area), 14))
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[key] = PatternOperators(kind, p, element_area)
    return _OPERATOR_CACHE[key]


class PatternSymbol:
    """Generating-pattern symbol blocks for one (pattern, p, velocity)."""

    def __init__(self, kind, p, element_area, velocity, check_signs=True):
        alpha, beta = float(velocity[0]), float(velocity[1])
        if check_signs:
            check_admissible(kind, alpha, beta)
        ops = pattern_operators(kind, p, element_area)
        self.kind = kind
        self.p = p
        self.alpha = alpha
        self.beta = beta
        self.pattern = ops.pattern
        self.n_elems = ops.n_elems
        self.n_loc = ops.n_loc
        self.dim = ops.dim
        self.bases = ops.bases
        self.mass = ops.mass
        self.blocks = ops.blocks_for(alpha, beta)
        # per-element diagonal blocks only (intra-pattern couplings excluded)
        nl = self.n_loc
        self.diag = np.zeros((self.dim, self.dim))
        for a in range(self.n_elems):
            sl = slice(a * nl, (a + 1) * nl)
            self.diag[sl, sl] = self.blocks[(0, 0)][sl, sl]
        # Two elements that couple only to each other outside the Jacobi
        # diagonal make R_hat = [[0, X], [Y, 0]] (two-cyclic), whose
        # eigenvalues are +-sqrt(eig(X Y)).
        self.two_cyclic = self.n_elems == 2 and not any(
            np.any(B[:nl, :nl]) or np.any(B[nl:, nl:])
            for m, B in self.blocks.items() if m != (0, 0))
        self._parts_by_k = {}

    def l_hat_phases(self, phi1, phi2):
        """Fourier-space operator for lattice phases (phi1, phi2); broadcasts
        over arrays of phases."""
        phi1 = np.asarray(phi1, float)
        phi2 = np.asarray(phi2, float)
        shape = np.broadcast(phi1, phi2).shape
        out = np.zeros(shape + (self.dim, self.dim), dtype=complex)
        for (m1, m2), B in self.blocks.items():
            phase = np.exp(1j * (m1 * phi1 + m2 * phi2))
            out += phase[..., None, None] * B
        return out

    def wave_phases(self, nx, ny):
        """Lattice phases of the planar wave with geometric wavenumber (nx, ny)."""
        a1, a2 = self.pattern.lattice
        return nx * a1[0] + ny * a1[1], nx * a2[0] + ny * a2[1]

    def l_hat(self, nx, ny):
        return self.l_hat_phases(*self.wave_phases(nx, ny))

    def jacobi_symbol(self, k, nx=None, ny=None, phases=None):
        """R_hat = I - D^{-1} (M + k L_hat) at the given wavenumber/phases."""
        if phases is not None:
            L = self.l_hat_phases(*phases)
        else:
            L = self.l_hat(nx, ny)
        D = self.mass + k * self.diag
        A = self.mass + k * L
        Dinv = np.linalg.inv(D)
        return np.eye(self.dim) - Dinv @ A

    def _symbol_parts(self, k):
        """Offsets (n, 2) and real parts C_m = -k D^{-1} B_m, with the
        element-diagonal blocks taken out of B_00, so that
        R_hat(phi) = sum_m exp(i m.phi) C_m. For a two-cyclic pattern the
        parts are the pair (X_m, Y_m) of off-diagonal element blocks."""
        parts = self._parts_by_k.get(k)
        if parts is None:
            Dinv = np.linalg.inv(self.mass + k * self.diag)
            C = np.stack([-k * (Dinv @ (B - self.diag if m == (0, 0) else B))
                          for m, B in self.blocks.items()])
            if self.two_cyclic:
                nl = self.n_loc
                C = (C[:, :nl, nl:], C[:, nl:, :nl])
            parts = (np.array(list(self.blocks), float), C)
            self._parts_by_k[k] = parts
        return parts

    def spectral_radius_phases(self, k, phi1, phi2, screen=False):
        """max |eig(R_hat)| at lattice phases (phi1, phi2); broadcasts.

        The reference path builds R_hat with `jacobi_symbol`. `screen=True`
        sums it from `_symbol_parts` and, on a two-cyclic pattern, takes
        sqrt(rho(X Y)) of the half-size blocks; the two agree to rounding
        but not bitwise.
        """
        if not screen:
            R = self.jacobi_symbol(k, phases=(phi1, phi2))
            return np.max(np.abs(np.linalg.eigvals(R)), axis=-1)
        phi1, phi2 = np.broadcast_arrays(np.asarray(phi1, float),
                                         np.asarray(phi2, float))
        offsets, parts = self._symbol_parts(k)
        phase = np.exp(1j * (np.multiply.outer(phi1, offsets[:, 0])
                             + np.multiply.outer(phi2, offsets[:, 1])))

        def symbol(C):
            return (phase @ C.reshape(len(C), -1)).reshape(
                phi1.shape + C.shape[1:])

        if self.two_cyclic:
            X, Y = parts
            ev = np.linalg.eigvals(symbol(X) @ symbol(Y))
            return np.sqrt(np.max(np.abs(ev), axis=-1))
        return np.max(np.abs(np.linalg.eigvals(symbol(parts))), axis=-1)


# -- closed forms --------------------------------------------------------

def paper_wave_coords(kind, element_area, nx, ny):
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


@dataclass
class SweepConfig:
    theta_samples: int = 32
    wave_samples: int = 48
    theta_range: str = "per-pattern"   # per-pattern | quarter-pi
    k_reference: str = "hE"            # which length the CFL-type step scales
    refine: bool = True                # polish the coarse-grid peak locally


def timestep_family(element_area, label, reference="hE"):
    """k1 = 3 h / |beta| (|beta| = 1), k2 = 2 k1, k3 = 4 k1."""
    h_E = h_E_from_area(element_area)
    href = h_E if reference == "hE" else pattern_side_length("square", h_E)
    k1 = 3.0 * href
    return {"k1": k1, "k2": 2.0 * k1, "k3": 4.0 * k1}[label]


def max_spectral_radius(kind, p, k, element_area=None, config=None):
    """Max Jacobi symbol spectral radius over velocity angle and wavenumber.

    A coarse (theta x phase-grid) sweep locates the peak; a derivative-free
    local search then refines it, since the maximizer can be sharp.
    """
    from scipy.optimize import minimize

    config = config or SweepConfig()
    if element_area is None:
        element_area = np.sqrt(3.0) / 4.0
    if config.theta_samples < 1 or config.wave_samples < 1:
        raise SymbolError("sample counts must be >= 1")
    if config.theta_range == "quarter-pi":
        t0, t1 = 0.0, np.pi / 4.0
    else:
        t0, t1 = THETA_RANGES[kind]
    thetas = np.linspace(t0, t1, config.theta_samples)
    n = config.wave_samples
    phis = 2.0 * np.pi * np.arange(n) / n
    # rho(-phi) = rho(phi): screen the half of the grid that is at or
    # before its mirror point in C order and copy each value to the mirror
    flat = np.arange(n * n)
    mirror = (-(flat // n) % n) * n + (-flat % n)
    half = flat <= mirror
    keep, copy = flat[half], mirror[half]
    syms = [PatternSymbol(kind, p, element_area, (np.cos(th), np.sin(th)))
            for th in thetas]
    screened = np.empty((len(thetas), n * n))
    for sym, row in zip(syms, screened):
        row[keep] = row[copy] = sym.spectral_radius_phases(
            k, phis[keep // n], phis[keep % n], screen=True)
    # Verify every point the screen puts near the peak on the reference
    # path, so the peak and its location are those of a full reference grid
    # (first in C order over theta, then phase); the refine below starts
    # from a symmetric critical point and amplifies a 1-ulp change.
    exact = np.full_like(screened, -np.inf)
    near = screened >= screened.max() - SCREEN_TOL
    for t in np.flatnonzero(near.any(axis=1)):
        g = np.flatnonzero(near[t])
        exact[t, g] = syms[t].spectral_radius_phases(k, phis[g // n],
                                                     phis[g % n])
    t, g = np.unravel_index(np.argmax(exact), exact.shape)
    best = max(float(exact[t, g]), 0.0)
    best_point = (thetas[t], phis[g // n], phis[g % n]) if best > 0.0 else None
    if not config.refine or best_point is None:
        return best

    def neg_rho(x):
        th = min(max(x[0], t0), t1)
        sym = PatternSymbol(kind, p, element_area, (np.cos(th), np.sin(th)))
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
    out = {}
    for p in p_list:
        for lab in k_labels:
            k = timestep_family(area, lab, config.k_reference)
            lams = {kind: max_spectral_radius(kind, p, k, area, config)
                    for kind in kinds}
            best = min(lams.values())
            for kind in kinds:
                out[(kind, p, lab)] = (lams[kind], np.log(best) / np.log(lams[kind]))
    return out
