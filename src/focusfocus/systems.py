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
third kind, both from one quadratically convergent loop on arrays,
Bulirsch's cel(kc, p) = int_0^{pi/2} dt / ((cos^2 + p sin^2) sqrt(cos^2 +
kc^2 sin^2)) (Numer. Math. 13 (1969) 305-315): K = cel(kc, 1) = R_F(0,
kc^2, 1), so R_F(0, x, y) = cel(sqrt(x/y), 1)/sqrt(y), and Pi(n) =
cel(kc, 1 - n) = K + (n/3) R_J(0, kc^2, 1, 1 - n) (DLMF 19.25.2).  The
roots are taken without cancellation (the largest by Newton, the small
pair by Vieta), and 1 - n comes from them: near l = 0 it is tiny, and the
pole is split off exactly (SystemDefinition).  scipy serves only
numerics.quad_singular, a test reference, and traces replace an
eigensolver (eval_constants): M = J d^2H is Hamiltonian, so its
eigenvalues, the roots of lambda^4 - (tr M^2/2) lambda^2 + det M, det M =
((tr M^2)^2 - 2 tr M^4)/8, are +-alpha +- i omega with alpha^2, omega^2 =
(sqrt(det M) +- tr M^2/4)/2; N = J d^2L generates the S^1 action (N^2 =
-I, MN = NM), so M = A + omega N, A^2 = alpha^2, tr AN = 0, and omega =
-tr(MN)/4, alpha = sqrt(tr M^2/4 + omega^2), both exact to rounding.

The closed form has one body, SystemDefinition.period_rotation_array, on
arrays h, l (~1 us per torus on thousands, ~0.4 ms for a lone one): T,
Theta and each rejected lane's reason, named once in REJECTIONS.  Each
lane leaves the Newton and cel loops by compaction, so it does not depend
on its batch.  On complex h, l every comparison reads the real parts: a
lane at (h + i d, l) or (h, l + i d), d tiny, holds the derivative of T
and Theta in h or l as its imaginary part over d (lattice.derivatives).

Values (h, l) are always relative to the critical value.  Systems are
frozen dataclasses: immutable and hashable, so eval_constants memoizes
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (FlowError, FocusFocusError, NoTorusError,
                     SystemRejected, TurningPointDegeneracy, WindowError)
from .numerics import FLOW_RTOL, _lanes

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)
NEWTON_MAX_ITER = 100
# cel stops once its means agree to CEL_TOL; its last pass squares that, ~EPS
CEL_TOL = math.sqrt(EPS)

# why a torus is rejected (0: it is not) by the window, the roots
# (_roots_array), cel's domain (complex lanes only) or the flow seeds
# (flow_start): each reason's class and message, at the torus's "(h, l)="
REJECTIONS = {
    1: (WindowError, "|j|={r:.17g} below floor {floor:.17g}: too close to "
                     "the singular fiber"),
    2: (WindowError, "|j|={r:.17g} above cap {cap:.17g}"),
    3: (NoTorusError, "no torus at {at}"),
    4: (NoTorusError, "no regular torus at {at}"),
    5: (NoTorusError, "no regular torus at {at}: root iteration did not "
                      "settle"),
    6: (NoTorusError, "{at} is on the singular fiber"),
    7: (TurningPointDegeneracy, "double turning point at {at}: elliptic "
                                "boundary"),
    8: (TurningPointDegeneracy, "double turning point at {at}"),
    9: (FocusFocusError, "no derivative at {at}: the complex step leaves the "
                         "closed form's domain"),
    10: (FlowError, "no turning-point seed on the l = 0 axis at {at}: r_lo "
                    "= 0 is a center passage"),
    11: (FlowError, "no turning-point seed on the l = 0 axis at {at}: z1 = "
                    "-1 is a pole passage"),
    12: (FlowError, "the orbit at {at} misses the equator z = 0"),
}
(BELOW_FLOOR, ABOVE_CAP, NO_TORUS, NO_REGULAR_TORUS, UNSETTLED,
 SINGULAR_FIBER, ELLIPTIC_BOUNDARY, DOUBLE_TURNING_POINT, NO_DERIVATIVE,
 CENTER_PASSAGE, POLE_PASSAGE, MISSES_EQUATOR) = REJECTIONS


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


def _cubic_roots_array(b: np.ndarray, c: np.ndarray, d: np.ndarray,
                       x0: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
    """Roots top > y >= 0 >= z of x^3 + b x^2 + c x + d, d >= 0, over arrays
    of coefficients given starts x0 at or right of top: (top, y, z,
    reason), reason 0 where they are found (REJECTIONS).  Complex
    coefficients take every comparison on their real parts.

    Newton takes top, each lane leaving the loop by compaction: right of
    the inflection -b/3, the mean of the roots and so left of top, the
    cubic is convex and the iterates fall monotonically onto top.  An
    iterate left of -b/3, or a slope <= 0, means a single real root: no
    regular torus.  Vieta then gives the pair without cancellation: y z =
    -d/top and y + z = (c + d/top)/top, the larger magnitude first, the
    other as the quotient.  A double root at 0 is the singular fiber.
    """
    top = np.array(x0, dtype=np.result_type(b, c, d, float))
    reason = np.full(top.shape, UNSETTLED)
    lane = np.arange(top.size)
    x, bl, cl, dl = top, b, c, d
    for _ in range(NEWTON_MAX_ITER):
        if not lane.size:
            break
        fail = x.real < -bl.real / 3.0
        value = ((x + bl) * x + cl) * x + dl
        done = ~fail & (value.real <= 0.0)
        slope = (3.0 * x + 2.0 * bl) * x + cl
        fail |= ~done & (slope.real <= 0.0)
        reason[lane[done]], top[lane[done]] = 0, x[done]
        reason[lane[fail]] = NO_REGULAR_TORUS
        lane, x, value, slope, bl, cl, dl = _lanes(
            ~(fail | done), lane, x, value, slope, bl, cl, dl)
        step = value / slope
        x = x - step
        done = step.real <= 4.0 * EPS * x.real
        reason[lane[done]], top[lane[done]] = 0, x[done]
        lane, x, bl, cl, dl = _lanes(~done, lane, x, bl, cl, dl)
    reason[(reason == 0) & (top == 0.0)] = NO_REGULAR_TORUS
    i = np.flatnonzero(reason == 0)
    if top.dtype.kind == "c":   # Im, a derivative, lags Re by one step
        x = top[i]
        top[i] = x - ((((x + b[i]) * x + c[i]) * x + d[i])
                      / ((3.0 * x + 2.0 * b[i]) * x + c[i]))
    prod = -d[i] / top[i]
    total = (c[i] - prod) / top[i]
    disc = total * total - 4.0 * prod
    reason[i[disc.real < 0.0]] = NO_DERIVATIVE   # a real d >= 0 has disc >= 0
    i, prod, total, disc = _lanes(disc.real >= 0.0, i, prod, total, disc)
    root = np.sqrt(disc)
    big = 0.5 * (total + np.where(np.signbit(total.real), -root, root))
    reason[i[big == 0.0]] = SINGULAR_FIBER
    i, prod, big = _lanes(big != 0.0, i, prod, big)
    small = prod / big
    pos = big.real >= 0.0
    y, z = np.zeros_like(top), np.zeros_like(top)
    y[i], z[i] = np.where(pos, big, small), np.where(pos, small, big)
    return top, y, z, reason


def _cel_array(kc: np.ndarray, p: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Bulirsch's cel(kc, p, 1, 1) over arrays, real or complex: (values,
    ok).  Each lane leaves the loop, by compaction, when the real parts of
    its means agree.  ok is False where kc or p is not > 0 (real parts);
    such a lane runs as cel(1, 1)."""
    ok = (kc.real > 0.0) & (p.real > 0.0)
    kc, p = np.where(ok, kc, 1.0), np.where(ok, p, 1.0)
    out = np.empty(kc.shape, dtype=np.result_type(kc, p))
    lane, p = np.arange(kc.size), np.sqrt(p)
    a, b, e, m = np.ones(kc.shape), 1.0 / p, kc, np.ones(kc.shape)
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
            lane, a, b, e, m, p = _lanes(~done, lane, a, b, e, m, p)
        kc = 2.0 * np.sqrt(e)
        e = kc * m
    return out, ok


class SystemDefinition:
    """Duck-typed interface shared by the built-in systems.

    Required surface, what the engines read: name, j_floor, j_cap,
    hessian() and second_integral_hessian() at the equilibrium (on one
    4-dim symplectic chart), the closed form's two parts, frame_rate, flow
    components (field, flow_start(h, l) -> seeds from one solve of the
    reduced cubics, section value and rate, energy on the flow chart).

    The closed form, period_rotation_array(h, l) -> (T, Theta, reason), has
    one body, here.  A system states its cubic and its elliptic terms once:
    _roots_array(h, l) -> (lane, roots, reason), the roots at the lanes it
    accepts and why it rejects each other lane (REJECTIONS; 0 where it
    accepts); and _elliptic(h, roots) -> (scale, kc, terms): T = sqrt(2)
    K/scale, K = K(kc), and Theta = frame_rate T + sqrt(2) l sum cel(kc_k,
    p_k)/den_k over the third-kind terms (kc_k, p_k, den_k, |l|/sqrt(p_k),
    K(kc_k)/K).  Where p < kc^2/2, cel(kc, p) = K(kc) + (pi/2) sqrt((1 -
    p)/(p (kc^2 - p))) - cel(kc, (kc^2 - p)/(1 - p)) (DLMF 19.7.9) splits
    the pole off, |l|/sqrt(p_k) from the roots: pi sign(l) per pole
    passage at l = +-0.0.  frame_rate is the rate of the frame in which
    the azimuth obeys psi' = l/r^2 (r the distance from the axis), turning
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

    def __post_init__(self):
        if not 0.0 < self.j_floor < self.j_cap:
            raise ValueError(f"need 0 < j_floor < j_cap, got j_floor="
                             f"{self.j_floor:g}, j_cap={self.j_cap:g}")

    def window(self, h: np.ndarray, l: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """(|j|, reason) of the tori (h, l), arrays (their real parts):
        window_radius, and BELOW_FLOOR, ABOVE_CAP or 0 inside."""
        r = self.window_radius(h, l)
        return r, np.where(r < self.j_floor, BELOW_FLOOR,
                           np.where(r > self.j_cap, ABOVE_CAP, 0))

    def check_window(self, c: EMValue) -> None:
        """Raise the WindowError of a torus outside the window: the
        one-torus case of window, kept for the tracer under perfbench/."""
        _, (reason,) = self.window(np.array([c.h]), np.array([c.l]))
        if reason:
            raise self.rejection(int(reason), c.h, c.l)

    def window_radius(self, h: np.ndarray, l: np.ndarray) -> np.ndarray:
        """|j| of the tori (h, l), arrays (their real parts), as
        to_momentum_chart(...).modulus measures it: math.hypot lane by
        lane, so the two agree to the last bit."""
        j1 = to_momentum_chart(self, EMValue(h.real, l.real)).j1
        return np.array(list(map(math.hypot, j1.ravel().tolist(),
                                 l.real.ravel().tolist())),
                        dtype=float).reshape(h.shape)

    def rejection(self, reason: int, h: float, l: float) -> FocusFocusError:
        """The exception that names why the torus (h, l), floats, is
        rejected for reason (REJECTIONS)."""
        cls, text = REJECTIONS[reason]
        return cls(text.format(
            at=f"(h, l)=({h:.4g}, {l:.4g})", floor=self.j_floor,
            cap=self.j_cap, r=to_momentum_chart(self, EMValue(h, l)).modulus))

    def _torus_roots(self, c: EMValue) -> tuple[float, ...]:
        """_roots_array's roots at one torus c, or its rejection raised."""
        _, roots, reason = self._roots_array(np.array([c.h]), np.array([c.l]))
        if reason[0]:
            raise self.rejection(int(reason[0]), c.h, c.l)
        return tuple(float(x[0]) for x in roots)

    def period_rotation_array(self, h: np.ndarray, l: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, Theta, reason) of the tori (h, l), flat arrays, in closed
        form: NaN where reason, nonzero, names why a lane is rejected
        (REJECTIONS).  The window is not checked here (window)."""
        lane, roots, reason = self._roots_array(h, l)
        l = l[lane]
        scale, kc, terms = self._elliptic(h[lane], roots)
        ks, ps, dens, lsps, kks = zip(*terms)
        splits = [p.real < 0.5 * (k * k).real for k, p in zip(ks, ps)]
        gaps = [np.where(s, k * k - p, 1.0) for s, k, p in zip(splits, ks, ps)]
        # one cel pass: K, then each third-kind term at p_k or q_k
        cels, ok = (x.reshape(1 + len(ks), kc.size) for x in _cel_array(
            np.concatenate((kc,) + ks), np.concatenate([np.ones(kc.size)] + [
                np.where(s, gap / (1.0 - p), p)
                for s, gap, p in zip(splits, gaps, ps)])))
        K = cels[0]
        T = SQRT2 * K / scale
        sign = np.where(np.signbit(l.real), -1.0, 1.0)
        third = sum(np.where(s, kk * K - cel, cel) / den
                    for s, kk, cel, den in zip(splits, kks, cels[1:], dens))
        jump = sum(np.where(s, 0.5 * math.pi * sign * lsp
                            * np.sqrt((1.0 - p) / gap), 0.0) / den
                   for s, lsp, p, gap, den in zip(splits, lsps, ps, gaps,
                                                  dens))
        theta = self.frame_rate * T + SQRT2 * l * third + SQRT2 * jump
        ok = ok.all(axis=0)
        reason[lane[~ok]] = NO_DERIVATIVE
        T_out, theta_out = (np.full(h.size, np.nan, dtype=x.dtype)
                            for x in (T, theta))
        lane = lane[ok]
        T_out[lane], theta_out[lane] = T[ok], theta[ok]
        return T_out, theta_out, reason


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


def _j_times(d2, what: str) -> list[list[float]]:
    """J d2, J = [[0, I], [-I, 0]], on rows of floats; d2 symmetric 4x4."""
    d2 = np.asarray(d2, dtype=float)
    if d2.shape != (4, 4) or np.any(np.abs(d2 - d2.T)
                                    > 1e-8 * max(1.0, np.max(np.abs(d2)))):
        raise SystemRejected(f"{what} is no symmetric 4x4: {d2.tolist()}")
    return d2[2:].tolist() + (-d2[:2]).tolist()


def _product(a, b) -> list[list[float]]:
    """a b on rows of floats, each entry one fsum."""
    return [[math.fsum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@lru_cache(maxsize=1024)
def eval_constants(system: SystemDefinition) -> FocusFocusData:
    """Eigenvalue data (alpha, omega) of M = J d^2H at the equilibrium, from
    the traces of the module docstring on Python floats: N acts as +i on
    the eigenvectors of alpha + i omega (H + gamma L turns by +gamma).
    SystemRejected, within 1e-8 of max(1, |lambda|) (squared for squared
    eigenvalues), unless: d^2H is a symmetric 4x4 with alpha^2 > 0 <=
    omega^2 (both checked before d^2L is read); d^2L is a symmetric 4x4;
    N^2 = -I; MN = NM; and (tr MN/4)^2 = omega^2.

    Memoized per system (systems are frozen, so the Hessians are fixed); a
    rejection is raised afresh on every call, never cached.
    """
    m = _j_times(system.hessian(), "d^2H")
    m2 = _product(m, m)
    t2, t4 = (math.fsum(a[i][i] for i in range(4))
              for a in (m2, _product(m2, m2)))
    det = (t2 * t2 - 2.0 * t4) / 8.0
    root = math.sqrt(max(det, 0.0))   # |lambda|^2
    tol = 1e-8 * max(1.0, root)
    omega2 = 0.5 * (root - 0.25 * t2)
    if not (det > 0.0 and root + 0.25 * t2 > 2.0 * tol and omega2 >= -tol):
        raise SystemRejected(f"J d^2H has no +-alpha +- i omega spectrum, "
                             f"alpha > 0: tr M^2 = {t2:.8g}, det M = {det:.8g}")
    n = _j_times(system.second_integral_hessian(), "d^2L")
    mn = _product(m, n)
    omega = -0.25 * math.fsum(mn[i][i] for i in range(4)) + 0.0   # not -0.0
    for off, bound, claim in (
            (np.add(_product(n, n), np.eye(4)), 1e-8, "N^2 = -I"),
            (np.subtract(mn, _product(n, m)), math.sqrt(1e-8 * tol),
             "MN = NM"),
            (omega * omega - omega2, tol, f"(tr MN/4)^2 = the spectrum's "
                                          f"omega^2 = {omega2:.8g}")):
        if np.max(np.abs(off)) > bound:
            raise SystemRejected(f"N = J d^2L fails {claim}")
    return FocusFocusData(alpha=math.sqrt(0.25 * t2 + omega * omega),
                          omega=omega)


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
        super().__post_init__()
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
    def reduced_profile(self, c: EMValue) -> tuple[float, float]:
        """Turning points (sqrt(s1), sqrt(s2)) of the reduced orbit of one
        torus, or its rejection raised; on the l = 0 axis at g > 0, r_lo =
        0 is a center passage.  The one-torus case of _roots_array (~0.3
        ms), which no engine calls; the tracer under perfbench/ wraps it."""
        s1, s2, _ = self._torus_roots(c)
        return math.sqrt(s1), math.sqrt(s2)

    def _roots_array(self, h: np.ndarray, l: np.ndarray):
        """Roots s3 <= 0 <= s1 < s2 of s^3 - s^2 - g s + l^2/2 = -C(s)/2,
        g = h - gamma l (SystemDefinition).  On the l = 0 axis s1 (g > 0)
        or s3 (g < 0) is exactly 0."""
        g = h - self.gamma * l
        disc = 1.0 + 4.0 * g
        reason = np.where(disc.real >= 0.0, 0, NO_TORUS)
        lane, g, l, disc = _lanes(reason == 0, np.arange(h.size), g, l, disc)
        # the l = 0 root (1 + sqrt(disc))/2 lies at or right of s2
        s2, s1, s3, why = _cubic_roots_array(
            np.full(lane.size, -1.0), -g, 0.5 * l * l,
            0.5 * (1.0 + np.sqrt(disc)))
        near = (s2 - s1).real <= 1e-12 * np.maximum(1.0, s2.real)
        why[(why == 0) & near] = ELLIPTIC_BOUNDARY
        reason[lane] = why
        lane, s1, s2, s3 = _lanes(why == 0, lane, s1, s2, s3)
        return lane, (s1, s2, s3), reason

    def _elliptic(self, h, roots):
        """T = int ds/sqrt(C) over [s1, s2] and Theta = gamma T + l int
        ds/(s sqrt(C)), one third-kind term with its pole at s = 0, passed
        (s1 = 0) on the l = 0 axis at g > 0; |l|/sqrt(s1/s2) = s2 sqrt(-2
        s3) by Vieta."""
        s1, s2, s3 = roots
        scale, kc = np.sqrt(s2 - s3), np.sqrt((s1 - s3) / (s2 - s3))
        return scale, kc, [(kc, s1 / s2, s2 * scale, s2 * np.sqrt(-2.0 * s3),
                            1.0)]

    # -- full flow (oracle engine) ------------------------------------
    def flow_field(self, s) -> np.ndarray:
        """The Cartesian field on a block of states (x, y, px, py), one
        per column."""
        x, y, px, py = s
        gx, gy, gpx, gpy = self.gamma * s
        out = np.empty_like(s)
        out[0], out[1] = px - gy, py + gx
        out[2:] = 2 * s[:2] - 4 * s[:2] * (x * x + y * y)
        out[2] -= gpy
        out[3] += gpx
        return out

    def flow_start(self, h: np.ndarray, l: np.ndarray):
        """(lane, seeds, reason): one seed (4, lanes, 1) per torus (h, l) at
        the lanes that have one, and why each other lane has none.  A seed
        is the state at the inner turning point r = r_lo on the x axis.  It
        lies on Fix(R) of the reversor R: (x, y, px, py) -> (x, -y, -px,
        py), t -> -t, which keeps H and L; so the orbit reaches the outer
        turning point after half a return, T/2 and Theta/2.  Seeded beside
        the saddle passage and landing at r_hi, the leg is ~100x more
        accurate in T and Theta than the reverse one.  On the l = 0 axis at
        g > 0, r_lo = 0 is a center passage, not a turning point."""
        lane, (s1, _, _), reason = self._roots_array(h, l)
        r_lo = np.sqrt(s1)
        reason[lane[r_lo == 0.0]] = CENTER_PASSAGE
        lane, r_lo = _lanes(r_lo != 0.0, lane, r_lo)
        zero = np.zeros(lane.size)
        return (lane, np.array([r_lo, zero, zero, l[lane] / r_lo])[..., None],
                reason)

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
    def reduced_profile(self, c: EMValue) -> tuple[float, float]:
        """Turning points (z1, z2) of the reduced orbit of one torus, or its
        rejection raised; on the l = 0 axis they are pole passages, z1 = -1
        and, at h > 0, z2 = 1.  The one-torus case of _roots_array (~0.3
        ms), which no engine calls; the tracer under perfbench/ wraps it."""
        _, w2, _, one_z1 = self._torus_roots(c)
        return one_z1 - 1.0, 1.0 - w2

    def _roots_array(self, h: np.ndarray, l: np.ndarray):
        """(wc, w2, w3, 1 + z1) with wc = 1 - z1 > w2 = 1 - z2 >= 0 >= w3
        = 1 - z3, the roots of w^3 + (h - 2) w^2 - 2 h w + l^2/2 = 0, which
        is f(1 - w) = 0 (SystemDefinition).  1 + z1 comes from the
        turning-point identity 2 (h + wc) wc (1 + z1) = l^2, free of the
        cancellation in 2 - wc.  On the l = 0 axis, z1 = -1 and z2 = 1 (h >
        0) or z3 = 1 (h < 0)."""
        l2h = 0.5 * l * l
        # w (w - 2)(w + h) + l^2/2 > 0 for w > 2 > -h: wc <= 2
        wc, w2, w3, reason = _cubic_roots_array(h - 2.0, -2.0 * h, l2h,
                                                np.full(h.size, 2.0))
        for bad, why in (((h + wc).real <= 0.0, NO_TORUS),
                         ((wc - w2).real <= 1e-12, DOUBLE_TURNING_POINT)):
            reason[(reason == 0) & bad] = why
        lane, h, l2h, wc, w2, w3 = _lanes(reason == 0, np.arange(h.size), h,
                                          l2h, wc, w2, w3)
        return lane, (wc, w2, w3, l2h / ((h + wc) * wc)), reason

    def _elliptic(self, h, roots):
        """T = 2 int dz/sqrt(f) over [z1, z2]; Theta = l int (1/(1 - z) +
        1/(1 + z)) dz/sqrt(f) splits into two third-kind terms, with poles
        at the north (z = 1) and the south (z = -1) pole; each 1 - n is the
        ratio of that pole's distances to the near and the far turning
        point.  On the l = 0 axis the orbit passes the south pole, and the
        north one too at h > 0.  |l|/sqrt(1 - n) is wc sqrt(-2 w3) (Vieta)
        at the north pole and sqrt(2 (h + wc) wc (1 + z2)) (_roots_array's
        identity) at the south one, whose modulus 1/kc has K(1/kc) = kc K."""
        wc, w2, w3, one_z1 = roots
        one_z2 = one_z1 + (wc - w2)
        scale, kc = np.sqrt(wc - w3), np.sqrt((w2 - w3) / (wc - w3))
        return (0.5 * scale, kc,
                [(kc, w2 / wc, wc * scale, wc * np.sqrt(-2.0 * w3), 1.0),
                 (np.sqrt((wc - w3) / (w2 - w3)), one_z1 / one_z2,
                  one_z2 * np.sqrt(w2 - w3),
                  np.sqrt(2.0 * (h + wc) * wc * one_z2), kc)])

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
        out = np.empty_like(s)
        out[:3], out[3:] = v, acc - eta * (qv * q + q2m1 * v)
        return out

    def flow_start(self, h: np.ndarray, l: np.ndarray):
        """(lane, seeds, reason) as the champagne bottle's, two seeds (6,
        lanes, 2) per torus: the states at the turning points z2 and z1 in
        the x-z plane, x0 = sqrt((1 - z)(1 + z)) from _roots_array's
        cancellation-free 1 - z2 and 1 + z1.  Both lie on Fix(R) of the
        reversor R: (x, y, z, vx, vy, vz) -> (x, -y, z, -vx, vy, -vz), t ->
        -t, which keeps H and L; so the legs from z2 down and from z1 up to
        the equator z = 0 make half a return together, T/2 and Theta/2.
        Both land where z moves fast and phi' = l/(1 - z^2) is small: a
        one-leg half return lands at z2, beside the slow saddle passage, or
        at z1, the south-pole graze, and is some 1000x less accurate in T or
        Theta.  On the l = 0 axis z1 = -1 is a pole passage, not a turning
        point, and an orbit that misses the equator has no landing."""
        lane, (wc, w2, _, one_z1), reason = self._roots_array(h, l)
        pole = one_z1 == 0.0
        miss = ~pole & ~((one_z1 < 1.0) & (w2 < 1.0))
        reason[lane[pole]], reason[lane[miss]] = POLE_PASSAGE, MISSES_EQUATOR
        lane, wc, w2, one_z1 = _lanes(~(pole | miss), lane, wc, w2, one_z1)
        x2, x1 = np.sqrt(w2 * (2.0 - w2)), np.sqrt(one_z1 * wc)
        zero, l = np.zeros(lane.size), l[lane]
        return lane, np.array([[x2, zero, 1.0 - w2, zero, l / x2, zero],
                               [x1, zero, one_z1 - 1.0, zero, l / x1, zero]]
                              ).transpose(1, 2, 0), reason

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
