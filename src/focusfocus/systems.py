"""Built-in integrable systems and the pluggable system interface.

Two models around a focus-focus equilibrium at energy-momentum value (0,0):

* rotating champagne bottle (loxodromic for gamma != 0)
      H = (px^2+py^2)/2 + gamma (x py - y px) - (x^2+y^2) + (x^2+y^2)^2
      L = x py - y px
  S^1-reduced radial profile:  rdot^2 = P(r) = 2(h - gamma l) - l^2/r^2
                                              + 2 r^2 - 2 r^4,
                               phidot = a(r) = l/r^2 + gamma.
  In s = r^2 the profile is a cubic, s P = C(s) = 2 (s - s3)(s - s1)(s2 - s)
  with s3 < 0 < s1 < s2.

* spherical pendulum (unit length and gravity; omega = 0)
  reduced in the vertical coordinate z in [-1, 1]:
      zdot^2 = f(z) = 2(h_raw - z)(1 - z^2) - l^2,   phidot = l/(1 - z^2),
  with the upright equilibrium at (h_raw, l) = (1, 0); all (h, l) used by
  this toolkit are shifted so the critical value sits at (0, 0).
  f(z) = 2 (z - z1)(z - z2)(z - z3) with -1 < z1 < z2 < 1 < z3.

Both profiles being cubics, the first-return time T and the azimuth
advance Theta of a torus are complete elliptic integrals of the first and
third kind, both from one quadratically convergent loop on Python floats,
Bulirsch's cel(kc, p) = int_0^{pi/2} dt / ((cos^2 + p sin^2) sqrt(cos^2 +
kc^2 sin^2)) (Numer. Math. 13 (1969) 305-315): K = cel(kc, 1) = R_F(0,
kc^2, 1), so R_F(0, x, y) = cel(sqrt(x/y), 1)/sqrt(y), and Pi(n) =
cel(kc, 1 - n) = K + (n/3) R_J(0, kc^2, 1, 1 - n) (DLMF 19.25.2).  The
roots are taken without cancellation (the largest by Newton, the small
pair by Vieta), and 1 - n comes from them: near l = 0 it is tiny.  scipy
serves only numerics.quad_singular, a test reference.

The closed form has two forms, one body each, that every system shares
(SystemDefinition).  period_rotation takes one torus on Python floats
(7-14 us on a shared 2-core Xeon): reduced_period_rotation uses it.
period_rotation_array takes arrays h, l (~1 us per torus on thousands) and
returns T, Theta and an ok mask, False where the scalar form raises or a
step would leave its domain.  It runs the scalar operations in the scalar
order (numpy's + - * / sqrt round as Python's do), and each lane leaves
the Newton and cel loops by compaction at the iteration at which its
scalar loop stops, so every accepted real lane is bit-identical to
period_rotation, whatever its batch.  It also takes complex h, l: every
comparison reads the real parts, so a lane at (h + i d, l) or
(h, l + i d), d tiny, holds the derivative of T and Theta in h or l as
its imaginary part over d (lattice.derivatives).

Values (h, l) are always relative to the critical value.  Systems are
frozen dataclasses: immutable and hashable, so eval_constants memoizes
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (FlowError, NoTorusError, SystemRejected,
                     TurningPointDegeneracy, WindowError)
from .numerics import FLOW_RTOL, _lanes

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)
NEWTON_MAX_ITER = 100
# cel stops once its means agree to CEL_TOL; its last pass squares that, ~EPS
CEL_TOL = math.sqrt(EPS)

# treat |l| below this as exactly on the l = 0 axis (the third-kind
# integrals' 1 - n vanishes there; the angular jump is added analytically)
L_AXIS_TOL = 1e-13


@dataclass(frozen=True)
class FocusFocusData:
    """Eigenvalue data of the equilibrium: quadruple +-alpha +- i omega."""
    alpha: float
    omega: float

    @property
    def A0(self) -> float:
        """omega / alpha, the leading rotation-number coefficient."""
        return self.omega / self.alpha


@dataclass(frozen=True)
class EMValue:
    """Point in the energy-momentum image, relative to the critical value."""
    h: float
    l: float


@dataclass(frozen=True)
class MomentumValue:
    """Point in the linearized momentum chart, identified with
    zeta = j1 + i j2."""
    j1: float
    j2: float

    @property
    def modulus(self) -> float:
        return math.hypot(self.j1, self.j2)


def _cubic_roots(b: float, c: float, d: float, x0: float,
                 where: str) -> tuple[float, float, float]:
    """Roots top > y >= 0 >= z of x^3 + b x^2 + c x + d, d >= 0, given a
    start x0 at or right of top.

    Newton takes top: right of the inflection -b/3, the mean of the roots
    and so left of top, the cubic is convex and the iterates fall
    monotonically onto top.  An iterate left of -b/3, or a slope <= 0,
    means no real root there: a single real root, so no torus.  Vieta then
    gives the pair without cancellation: y z = -d/top and
    y + z = (c + d/top)/top, the larger magnitude first, the other as the
    quotient.
    """
    x = x0
    for _ in range(NEWTON_MAX_ITER):
        if x < -b / 3.0:
            raise NoTorusError(f"no regular torus at {where}")
        value = ((x + b) * x + c) * x + d
        if value <= 0.0:   # reached top (to rounding) from the right
            break
        slope = (3.0 * x + 2.0 * b) * x + c
        if slope <= 0.0:
            raise NoTorusError(f"no regular torus at {where}")
        step = value / slope
        x -= step
        if step <= 4.0 * EPS * x:
            break
    else:
        raise NoTorusError(f"no regular torus at {where}: root iteration "
                           "did not settle")
    prod = -d / x
    total = (c - prod) / x
    big = 0.5 * (total + math.copysign(math.sqrt(total * total - 4.0 * prod),
                                       total))
    small = prod / big
    return (x, big, small) if big >= 0.0 else (x, small, big)


def _cubic_roots_array(b: np.ndarray, c: np.ndarray, d: np.ndarray,
                       x0: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
    """_cubic_roots over arrays of coefficients: (top, y, z, ok), with ok
    False where the scalar form raises or its Vieta step would fail (a
    negative discriminant, a zero divisor).  Complex coefficients take
    every comparison on their real parts.

    Each lane runs the scalar Newton loop in the scalar order of
    operations and leaves the batch, by compaction, at the iteration at
    which that loop stops.
    """
    top = np.array(x0, dtype=np.result_type(b, c, d, float))
    settled = np.zeros(top.shape, dtype=bool)
    lane = np.arange(top.size)
    x, bl, cl, dl = top, b, c, d
    for _ in range(NEWTON_MAX_ITER):
        if not lane.size:
            break
        fail = x.real < -bl.real / 3.0
        value = ((x + bl) * x + cl) * x + dl
        done = ~fail & (value.real <= 0.0)
        slope = (3.0 * x + 2.0 * bl) * x + cl
        settled[lane[done]], top[lane[done]] = True, x[done]
        lane, x, value, slope, bl, cl, dl = _lanes(
            ~(fail | done | (slope.real <= 0.0)), lane, x, value, slope, bl,
            cl, dl)
        step = value / slope
        x = x - step
        done = step.real <= 4.0 * EPS * x.real
        settled[lane[done]], top[lane[done]] = True, x[done]
        lane, x, bl, cl, dl = _lanes(~done, lane, x, bl, cl, dl)
    i = np.flatnonzero(settled & (top != 0.0))
    if top.dtype.kind == "c":   # Im, a derivative, lags Re by one step
        x = top[i]
        top[i] = x - ((((x + b[i]) * x + c[i]) * x + d[i])
                      / ((3.0 * x + 2.0 * b[i]) * x + c[i]))
    prod = -d[i] / top[i]
    total = (c[i] - prod) / top[i]
    disc = total * total - 4.0 * prod
    i, prod, total, disc = _lanes(disc.real >= 0.0, i, prod, total, disc)
    root = np.sqrt(disc)
    big = 0.5 * (total + np.where(np.signbit(total.real), -root, root))
    i, prod, big = _lanes(big != 0.0, i, prod, big)
    small = prod / big
    pos = big.real >= 0.0
    y, z = np.zeros_like(top), np.zeros_like(top)
    y[i], z[i] = np.where(pos, big, small), np.where(pos, small, big)
    ok = np.zeros(top.shape, dtype=bool)
    ok[i] = True
    return top, y, z, ok


def _cel(kc: float, p: float) -> float:
    """Bulirsch's cel(kc, p, 1, 1) for kc > 0 and p > 0 (Numer. Math. 13
    (1969) 305-315): K(kc) at p = 1, Pi(n; kc) at p = 1 - n."""
    p = math.sqrt(p)
    a, b, e, m = 1.0, 1.0 / p, kc, 1.0
    while True:
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = m
        m += kc
        if abs(g - kc) <= g * CEL_TOL:
            return 0.5 * math.pi * (b + a * m) / (m * (m + p))
        kc = 2.0 * math.sqrt(e)
        e = kc * m


def _cel_array(kc: np.ndarray, p: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """_cel over arrays, real or complex: (values, ok).  Each lane runs the
    scalar loop and leaves, by compaction, when the real parts of its means
    agree.  ok is False where kc is not > 0 or p < 0 (real parts); such a
    lane runs as cel(1, 1).  At p = 0, a pole passage on the l = 0 axis, a
    lane takes the finite part of cel(kc, p) = pi/(2 kc sqrt(p)) + K -
    E/kc^2 + O(p) (DLMF 19.7.9), which is Bulirsch's cel(kc, 1, 1 - 1/kc^2,
    0)."""
    ok = (kc.real > 0.0) & (p.real >= 0.0)
    passage = p == 0.0
    kc, p = np.where(ok, kc, 1.0), np.where(ok & ~passage, p, 1.0)
    out = np.empty(kc.shape, dtype=np.result_type(kc, p))
    lane = np.arange(kc.size)
    p = np.sqrt(p)
    a = np.where(passage, 1.0 - 1.0 / np.where(passage, kc * kc, 1.0), 1.0)
    b, e, m = np.where(passage, 0.0, 1.0) / p, kc, np.ones(kc.shape)
    while lane.size:
        f = a
        a = a + b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p = p + g
        g = m
        m = m + kc
        done = np.abs((g - kc).real) <= g.real * CEL_TOL
        if done.any():
            md = m[done]
            out[lane[done]] = (0.5 * math.pi * (b[done] + a[done] * md)
                               / (md * (md + p[done])))
            go = ~done
            lane, a, b, e, m, p = (lane[go], a[go], b[go], e[go], m[go],
                                   p[go])
        kc = 2.0 * np.sqrt(e)
        e = kc * m
    return out, ok


class SystemDefinition:
    """Duck-typed interface shared by the built-in systems.

    Required surface, what the engines read: name, j_floor, j_cap,
    hessian() and second_integral_hessian() at the equilibrium (on one
    4-dim symplectic chart), reduced_profile(c) -> the turning points (lo,
    hi), the closed form's three parts, frame_rate, flow components
    (field, flow_start(c) -> seeds (d, m) from one solve of the reduced
    cubic, section value and rate, energy on the flow chart).

    The closed form, period_rotation(c) -> (T, Theta) on floats and
    period_rotation_array(h, l) -> (T, Theta, ok) on arrays, has one body
    each, here.  A system states its cubic and its elliptic terms once:
    _roots(c) -> roots, raising where there is no regular torus;
    _roots_array(h, l, axis) -> (lane, roots) of the lanes _roots accepts;
    and _elliptic(h, roots, sqrt) -> (scale, kc, terms, passages), one
    body for floats and arrays: T = sqrt(2) K(kc)/scale, and Theta =
    frame_rate T + sqrt(2) l sum cel(kc_k, p_k)/den_k over the third-kind
    terms (kc_k, p_k, den_k), or frame_rate T + pi passages sign(l) on the
    l = 0 axis.  frame_rate is the rate of the frame in which the azimuth
    obeys psi' = l/r^2 (r the distance from the axis), turning
    monotonically with the sign of l; the flow oracle counts turns in it.

    The flow state is Cartesian, its first two rows the position (x, y) in
    the plane of the S^1 action, so the azimuth is read from positions and
    not integrated.  The flow field, the section value and rate and the
    energy take a block of states (d, m), one per column, unpacked row by
    row; they are never handed a lone state (d,).  Each seed is a
    turning-point state on Fix(R) of a reversor R of the flow (an
    involution, with t -> -t, that keeps H and L) at azimuth 0, on the
    positive x axis, and lies on the section without crossing it.  The
    legs from the seeds to their first falling crossings of the section
    make half a return together, so T = 2 sum t and Theta = 2 sum dphi
    over them (lattice._tori_flow).
    """

    name = "abstract"
    j_floor = 1e-5
    j_cap = 0.3
    flow_rtol = FLOW_RTOL   # the flow oracle's solver tolerance

    def check_window(self, c: EMValue) -> None:
        r = to_momentum_chart(self, c).modulus
        if r < self.j_floor:
            raise WindowError(f"|j|={r:.17g} below floor {self.j_floor:.17g}"
                              ": too close to the singular fiber")
        if r > self.j_cap:
            raise WindowError(f"|j|={r:.17g} above cap {self.j_cap:.17g}")

    def window_radius(self, h: np.ndarray, l: np.ndarray) -> np.ndarray:
        """|j| of the tori (h, l), arrays (their real parts), as
        check_window measures it: math.hypot lane by lane, so the two agree
        to the last bit."""
        j1 = to_momentum_chart(self, EMValue(h.real, l.real)).j1
        return np.array(list(map(math.hypot, j1.ravel().tolist(),
                                 l.real.ravel().tolist())),
                        dtype=float).reshape(h.shape)

    def period_rotation(self, c: EMValue) -> tuple[float, float]:
        """(T, Theta) of one torus in closed form, on Python floats."""
        scale, kc, terms, passages = self._elliptic(c.h, self._roots(c),
                                                    math.sqrt)
        T = SQRT2 * _cel(kc, 1.0) / scale
        if abs(c.l) <= L_AXIS_TOL:
            # pi per pole passage, with the sign of l (l = +0.0 takes the
            # upper sign); none adds +0.0, as the array form does
            turn = (math.pi * passages * math.copysign(1.0, c.l) if passages
                    else 0.0)
            return T, self.frame_rate * T + turn
        third = sum(_cel(k, p) / den for k, p, den in terms)
        return T, self.frame_rate * T + SQRT2 * c.l * third

    def period_rotation_array(self, h: np.ndarray, l: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """period_rotation over flat arrays h, l: (T, Theta, ok), ok False
        where the scalar form raises or a step would leave its domain.  On
        the axis a complex l adds i Im(l) sqrt(2) sum cel(kc_k, p_k)/den_k,
        the l -> 0 limit of the l-derivative of the third-kind terms: l
        times their pole parts (_cel_array) is pi sign(l) per passage."""
        size, axis = h.size, np.abs(l.real) <= L_AXIS_TOL
        lane, roots = self._roots_array(h, l, axis)
        h, l, axis = h[lane], l[lane], axis[lane]
        scale, kc, terms, passages = self._elliptic(h, roots, np.sqrt)
        kcs, ps, dens = zip(*terms)
        # one cel pass: K, then each third-kind term (on the axis, d/dl only)
        cels, ok = (x.reshape(1 + len(dens), kc.size) for x in _cel_array(
            np.concatenate((kc,) + kcs), np.concatenate([np.ones(kc.size)] + [
                np.where(axis & (l.imag == 0.0), 1.0, p) for p in ps])))
        T = SQRT2 * cels[0] / scale
        third = sum(cel / den for cel, den in zip(cels[1:], dens))
        poles = np.where(axis, math.pi * passages * np.copysign(1.0, l.real),
                         0.0)
        theta = self.frame_rate * T + (
            poles + SQRT2 * np.where(axis, l - l.real, l) * third)
        ok = ok.all(axis=0)
        T_out, theta_out = (np.full(size, np.nan, dtype=x.dtype)
                            for x in (T, theta))
        accepted = np.zeros(size, dtype=bool)
        lane = lane[ok]
        T_out[lane], theta_out[lane], accepted[lane] = T[ok], theta[ok], True
        return T_out, theta_out, accepted


def to_momentum_chart(system: SystemDefinition, c: EMValue) -> MomentumValue:
    """The linear momentum chart at the origin, j1 = (h - omega l) / alpha
    and j2 = l, on floats or arrays (one torus per lane)."""
    ff = eval_constants(system)
    return MomentumValue(j1=(c.h - ff.omega * c.l) / ff.alpha, j2=c.l)


def from_momentum_chart(system: SystemDefinition, j: MomentumValue) -> EMValue:
    """(h, l) = (alpha j1 + omega j2, j2), on floats or arrays."""
    ff = eval_constants(system)
    return EMValue(h=j.j1 * ff.alpha + j.j2 * ff.omega, l=j.j2)


def polar(radii, angles) -> MomentumValue:
    """The chart points at |j| = radii (rows) and arg zeta = angles (along
    each row), (len(radii), len(angles)) arrays.  The cosines and sines
    are math's, so each point is rho * math.cos(th), rho * math.sin(th) to
    the last bit."""
    angles = np.asarray(angles, dtype=float).tolist()
    return MomentumValue(np.outer(radii, [math.cos(th) for th in angles]),
                         np.outer(radii, [math.sin(th) for th in angles]))


@lru_cache(maxsize=1024)
def eval_constants(system: SystemDefinition) -> FocusFocusData:
    """Eigenvalue data (alpha, omega) of J d^2H at the equilibrium.

    alpha is the positive real part of the quadruple +-alpha +- i omega,
    and the S^1 action orients omega: alpha + i omega is the eigenvalue on
    the eigenvector where J d^2L acts as +i (H + gamma L turns by +gamma).
    Rejects spectra that do not form such a quadruple within 1e-8.

    Memoized per system (systems are frozen, so the Hessians are fixed); a
    rejection is raised afresh on every call, never cached.
    """
    d2h = np.asarray(system.hessian(), dtype=float)
    if d2h.shape != (4, 4):
        raise SystemRejected(f"hessian must be 4x4, got {d2h.shape}")
    J = np.zeros((4, 4))
    J[0, 2] = J[1, 3] = 1.0
    J[2, 0] = J[3, 1] = -1.0
    eig, vec = np.linalg.eig(J @ d2h)
    scale = max(1.0, float(np.max(np.abs(eig))))
    pos = np.flatnonzero(eig.real > 1e-8 * scale)
    if len(pos) != 2:
        raise SystemRejected(
            f"expected two eigenvalues with positive real part, got {len(pos)}"
            f" (spectrum {np.round(eig, 6)})")
    d2l = np.asarray(system.second_integral_hessian(), dtype=float)
    turn = [(v.conj() @ J @ d2l @ v).imag for v in vec[:, pos].T]
    lam = eig[pos[np.argmax(turn)]]
    alpha, omega = float(lam.real), float(lam.imag) + 0.0   # never -0.0
    target = np.array([alpha + 1j * omega, alpha - 1j * omega,
                       -alpha + 1j * omega, -alpha - 1j * omega])
    # multiset match of the quadruple
    got = np.sort_complex(eig)
    want = np.sort_complex(target)
    if np.max(np.abs(got - want)) > 1e-8 * scale:
        raise SystemRejected(
            f"spectrum {np.round(got, 8)} is not a +-alpha +- i omega "
            "quadruple")
    return FocusFocusData(alpha=alpha, omega=omega)


def _rotation_hessian(system: SystemDefinition) -> np.ndarray:
    """d^2L of L = x p_y - y p_x on (x, y, p_x, p_y), both built-ins'."""
    return np.fliplr(np.diag([1.0, -1.0, -1.0, 1.0]))


# --------------------------------------------------------------------------
# rotating champagne bottle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChampagneBottle(SystemDefinition):
    """Loxodromic model; the (H, L) foliation is independent of gamma (H
    differs from the gamma=0 Hamiltonian by a function of L), only the
    dynamics and hence W change."""
    gamma: float = 0.5
    j_floor: float = 1e-5
    j_cap: float = 0.3

    name = "champagne"

    def __post_init__(self):
        if abs(self.gamma) >= 2.0:
            raise ValueError("need |gamma| < 2 to keep the regular window "
                             "usable")

    # -- 4-dim chart (x, y, px, py) -----------------------------------
    def hessian(self) -> np.ndarray:
        g = self.gamma
        return np.array([[-2.0, 0.0, 0.0, g],
                         [0.0, -2.0, -g, 0.0],
                         [0.0, -g, 1.0, 0.0],
                         [g, 0.0, 0.0, 1.0]])

    second_integral_hessian = _rotation_hessian

    # -- reduced profile and closed form -------------------------------
    def _roots(self, c: EMValue) -> tuple[float, float, float]:
        """Roots s3 <= 0 <= s1 < s2 of s^3 - s^2 - g s + l^2/2 = -C(s)/2,
        g = h - gamma l.  On the l = 0 axis s1 (g > 0) or s3 (g < 0) is
        exactly 0."""
        h, l = c.h, c.l
        g = h - self.gamma * l
        on_axis = abs(l) <= L_AXIS_TOL
        if on_axis and g == 0.0:
            raise NoTorusError("(h, l) = (0, 0) is the singular fiber")
        disc = 1.0 + 4.0 * g
        if disc < 0.0:
            raise NoTorusError(f"no torus at (h, l)=({h:.4g}, {l:.4g})")
        # the l = 0 root (1 + sqrt(disc))/2 lies at or right of s2
        s2, s1, s3 = _cubic_roots(-1.0, -g, 0.0 if on_axis else 0.5 * l * l,
                                  0.5 * (1.0 + math.sqrt(disc)),
                                  f"(h, l)=({h:.4g}, {l:.4g})")
        if (s2 - s1) <= (1e-6 if on_axis else 1e-12) * max(1.0, s2):
            raise TurningPointDegeneracy(
                f"double turning point at (h, l)=({h:.4g}, {l:.4g}): "
                "elliptic boundary")
        return s1, s2, s3

    def reduced_profile(self, c: EMValue) -> tuple[float, float]:
        """Turning points (sqrt(s1), sqrt(s2)) of the reduced orbit; on the
        l = 0 axis at g > 0, r_lo = 0 is a center passage."""
        s1, s2, _ = self._roots(c)
        return math.sqrt(s1), math.sqrt(s2)

    def _roots_array(self, h: np.ndarray, l: np.ndarray, axis: np.ndarray):
        """The lanes of h, l that _roots accepts, and what it returns there."""
        lane = np.arange(h.size)
        g = h - self.gamma * l
        disc = 1.0 + 4.0 * g
        lane, g, l, axis, disc = _lanes(
            (disc.real >= 0.0) & ~(axis & (g.real == 0.0)), lane, g, l, axis,
            disc)
        s2, s1, s3, ok = _cubic_roots_array(
            np.full(lane.size, -1.0), -g, np.where(axis, 0.0, 0.5 * l * l),
            0.5 * (1.0 + np.sqrt(disc)))
        ok &= ((s2 - s1).real
               > np.where(axis, 1e-6, 1e-12) * np.maximum(1.0, s2.real))
        lane, s1, s2, s3 = _lanes(ok, lane, s1, s2, s3)
        return lane, (s1, s2, s3)

    def _elliptic(self, h, roots, sqrt):
        """T = int ds/sqrt(C) over [s1, s2] and Theta = gamma T + l int
        ds/(s sqrt(C)), one third-kind term with its pole at s = 0, passed
        (s1 = 0) on the l = 0 axis at g > 0."""
        s1, s2, s3 = roots
        scale, kc = sqrt(s2 - s3), sqrt((s1 - s3) / (s2 - s3))
        return scale, kc, [(kc, s1 / s2, s2 * scale)], s1 == 0.0

    # -- full flow (oracle engine) ------------------------------------
    def flow_field(self, s) -> np.ndarray:
        """The Cartesian field on a block of states (x, y, px, py), one
        per column."""
        g = self.gamma
        x, y, px, py = s
        acc = 2 * s[:2] - 4 * s[:2] * (x * x + y * y)
        acc[0] -= g * py
        acc[1] += g * px
        return np.concatenate([[px - g * y, py + g * x], acc])

    def flow_start(self, c: EMValue) -> np.ndarray:
        """One seed, as a column: the state at the inner turning point r =
        r_lo on the x axis.  It lies on Fix(R) of the reversor R: (x, y,
        px, py) -> (x, -y, -px, py), t -> -t, which keeps H and L; so the
        orbit reaches the outer turning point after half a return, T/2
        and Theta/2.  Seeded beside the saddle passage and landing at
        r_hi, the leg is ~100x more accurate in T and Theta than the
        reverse one.  On the l = 0 axis at g > 0, r_lo = 0 is a center
        passage, not a turning point: FlowError."""
        r_lo, _ = self.reduced_profile(c)
        if r_lo == 0.0:
            raise FlowError(f"no turning-point seed on the l = 0 axis at "
                            f"(h, l)=({c.h:.4g}, {c.l:.4g}): r_lo = 0 is a "
                            "center passage")
        return np.array([[r_lo], [0.0], [0.0], [c.l / r_lo]])

    def flow_section_value(self, s):
        """r rdot = x px + y py (the gamma terms cancel): zero at both
        turning points, falling through zero at the outer one."""
        return s[0] * s[2] + s[1] * s[3]

    def flow_section_rate(self, s, f):
        """d(x px + y py)/dt where the field takes the value f."""
        return f[0] * s[2] + s[0] * f[2] + f[1] * s[3] + s[1] * f[3]

    @property
    def frame_rate(self) -> float:
        """gamma: in the frame turning at gamma, phi' = gamma + l/r^2
        leaves l/r^2."""
        return self.gamma

    def flow_hamiltonian(self, s) -> float:
        x, y, px, py = s[:4]
        r2 = x * x + y * y
        return ((px * px + py * py) / 2.0 + self.gamma * (x * py - y * px)
                - r2 + r2 * r2)


# --------------------------------------------------------------------------
# spherical pendulum
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalPendulum(SystemDefinition):
    """Degenerate focus-focus model (omega = 0).

    Primary engine is the reduced profile in z (chart-free).  The flow
    oracle runs in ambient Cartesian coordinates on the unit sphere
    (polynomial field, smooth across pole passages).  The only 4-dim
    symplectic chart is the north-pole one of the Hessians.
    """
    j_floor: float = 1e-5
    j_cap: float = 0.2

    name = "pendulum"
    flow_rtol = 2e-13   # near-pole passages need headroom under the
                        # 1e-10 energy-drift budget

    def hessian(self) -> np.ndarray:
        # d^2H at the upright equilibrium in the north-pole chart (x, y, px, py):
        # H = (px^2 + py^2)/2 - (x px + y py)^2/2 + sqrt(1 - x^2 - y^2); the
        # quartic term does not contribute.
        return np.array([[-1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])

    second_integral_hessian = _rotation_hessian

    # -- reduced profile and closed form -------------------------------
    def _roots(self, c: EMValue) -> tuple[float, float, float, float]:
        """(wc, w2, w3, 1 + z1) with wc = 1 - z1 > w2 = 1 - z2 >= 0 >= w3
        = 1 - z3, the roots of w^3 + (h - 2) w^2 - 2 h w + l^2/2 = 0, which
        is f(1 - w) = 0.  1 + z1 comes from the turning-point identity
        2 (h + wc) wc (1 + z1) = l^2, free of the cancellation in 2 - wc.
        On the l = 0 axis, z1 = -1 and z2 = 1 (h > 0) or z3 = 1 (h < 0)."""
        h, l = c.h, c.l
        on_axis = abs(l) <= L_AXIS_TOL
        if on_axis and h == 0.0:
            raise NoTorusError("(h, l) = (0, 0) is the singular fiber")
        l2h = 0.0 if on_axis else 0.5 * l * l
        where = f"(h, l)=({h:.4g}, {l:.4g})"
        # w (w - 2)(w + h) + l^2/2 > 0 for w > 2 > -h: wc <= 2
        wc, w2, w3 = _cubic_roots(h - 2.0, -2.0 * h, l2h, 2.0, where)
        if h + wc <= 0.0:
            raise NoTorusError(f"no torus at {where}")
        if (wc - w2) <= 1e-12:
            raise TurningPointDegeneracy(f"double turning point at {where}")
        return wc, w2, w3, l2h / ((h + wc) * wc)

    def reduced_profile(self, c: EMValue) -> tuple[float, float]:
        """Turning points (z1, z2) of the reduced orbit; on the l = 0 axis
        they are pole passages, z1 = -1 and, at h > 0, z2 = 1."""
        _, w2, _, one_z1 = self._roots(c)
        return one_z1 - 1.0, 1.0 - w2

    def _roots_array(self, h: np.ndarray, l: np.ndarray, axis: np.ndarray):
        """The lanes of h, l that _roots accepts, and what it returns there."""
        lane = np.arange(h.size)
        lane, h, l, axis = _lanes(~(axis & (h.real == 0.0)), lane, h, l, axis)
        l2h = np.where(axis, 0.0, 0.5 * l * l)
        wc, w2, w3, ok = _cubic_roots_array(h - 2.0, -2.0 * h, l2h,
                                            np.full(lane.size, 2.0))
        ok &= ((h + wc).real > 0.0) & ((wc - w2).real > 1e-12)
        lane, h, l2h, wc, w2, w3 = _lanes(ok, lane, h, l2h, wc, w2, w3)
        return lane, (wc, w2, w3, l2h / ((h + wc) * wc))

    def _elliptic(self, h, roots, sqrt):
        """T = 2 int dz/sqrt(f) over [z1, z2]; Theta = l int (1/(1 - z) +
        1/(1 + z)) dz/sqrt(f) splits into two third-kind terms, with poles
        at the north (z = 1) and the south (z = -1) pole; each 1 - n is the
        ratio of that pole's distances to the near and the far turning
        point.  On the l = 0 axis the orbit passes the south pole, and the
        north one too at h > 0."""
        wc, w2, w3, one_z1 = roots
        one_z2 = one_z1 + (wc - w2)
        scale, kc = sqrt(wc - w3), sqrt((w2 - w3) / (wc - w3))
        return (0.5 * scale, kc,
                [(kc, w2 / wc, wc * scale),
                 (sqrt((wc - w3) / (w2 - w3)), one_z1 / one_z2,
                  one_z2 * sqrt(w2 - w3))],
                1.0 + (h.real > 0.0))

    # -- full flow (oracle engine) ------------------------------------
    def flow_field(self, s) -> np.ndarray:
        """Constrained Cartesian flow on T S^2, on a block of states (x, y,
        z, vx, vy, vz), one per column; qddot = -e_z + (z - |v|^2) q.

        The -eta[(q.v) q + (|q|^2 - 1) v] damping vanishes identically on
        the constraint manifold (trajectories unchanged) and keeps the
        numerical drift of |q| = 1, q.v = 0 -- and with it the energy
        drift -- inside the 1e-10 budget on near-fiber tori."""
        eta = 2.0
        q, v = s[:3], s[3:]
        qq, qv3, vv = q * q, q * v, v * v
        q2m1 = (qq[0] + qq[1]) + qq[2] - 1.0
        qv = (qv3[0] + qv3[1]) + qv3[2]
        acc = (q[2] - ((vv[0] + vv[1]) + vv[2])) * q   # lam q
        acc[2] -= 1.0
        return np.concatenate([v, acc - eta * (qv * q + q2m1 * v)])

    def flow_start(self, c: EMValue) -> np.ndarray:
        """Two seeds, one per column: the states at the turning points z2
        and z1 in the x-z plane, x0 = sqrt((1 - z)(1 + z)) from _roots'
        cancellation-free 1 - z2 and 1 + z1.  Both lie on Fix(R) of the
        reversor R: (x, y, z, vx, vy, vz) -> (x, -y, z, -vx, vy, -vz),
        t -> -t, which keeps H and L; so the legs from z2 down and from z1
        up to the equator z = 0 make half a return together, T/2 and
        Theta/2.  Both land where z moves fast and phi' = l/(1 - z^2) is
        small: a one-leg half return lands at z2, beside the slow saddle
        passage, or at z1, the south-pole graze, and is some 1000x less
        accurate in T or Theta.  On the l = 0 axis z1 = -1 is a pole
        passage, not a turning point, and an orbit that misses the equator
        has no landing: FlowError."""
        wc, w2, _, one_z1 = self._roots(c)
        where = f"(h, l)=({c.h:.4g}, {c.l:.4g})"
        if one_z1 == 0.0:
            raise FlowError(f"no turning-point seed on the l = 0 axis at "
                            f"{where}: z1 = -1 is a pole passage")
        if not (one_z1 < 1.0 and w2 < 1.0):
            raise FlowError(f"the orbit at {where} misses the equator z = 0")
        x2, x1 = math.sqrt(w2 * (2.0 - w2)), math.sqrt(one_z1 * wc)
        return np.array([[x2, 0.0, 1.0 - w2, 0.0, c.l / x2, 0.0],
                         [x1, 0.0, one_z1 - 1.0, 0.0, c.l / x1, 0.0]]).T

    def flow_section_value(self, s):
        """-z sgn(vz), the height left to the equator z = 0 along the
        motion: zero at both turning points, where it jumps up, and falling
        through zero at each equator passage."""
        return -s[2] * np.sign(s[5])

    def flow_section_rate(self, s, f):
        """d(-z sgn(vz))/dt = -|vz| where the field takes the value f."""
        return -f[2] * np.sign(s[5])

    frame_rate = 0.0   # phi' = l/(1 - z^2) is the l/r^2 itself

    def flow_hamiltonian(self, s) -> float:
        x, y, z, vx, vy, vz = s[:6]
        return (vx * vx + vy * vy + vz * vz) / 2.0 + z - 1.0


SYSTEMS = {
    "champagne": ChampagneBottle,
    "pendulum": SphericalPendulum,
}


def make_system(name: str, **params) -> SystemDefinition:
    """Instantiate a built-in system by name; unknown parameters rejected."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; available: "
                         f"{sorted(SYSTEMS)}")
    try:
        return SYSTEMS[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for system {name!r}: {exc}") from exc
