"""Built-in integrable systems and the pluggable system interface.

Two models around a focus-focus equilibrium at energy-momentum value (0,0):

* rotating champagne bottle (loxodromic for gamma != 0)
      H = (px^2+py^2)/2 + gamma (x py - y px) - (x^2+y^2) + (x^2+y^2)^2
      L = x py - y px
  S^1-reduced radial profile:  rdot^2 = P(r) = 2(h - gamma l) - l^2/r^2
                                              + 2 r^2 - 2 r^4,
                               phidot = a(r) = l/r^2 + gamma.

* spherical pendulum (unit length and gravity; omega = 0)
  reduced in the vertical coordinate z in [-1, 1]:
      zdot^2 = f(z) = 2(h_raw - z)(1 - z^2) - l^2,   phidot = l/(1 - z^2),
  with the upright equilibrium at (h_raw, l) = (1, 0); all (h, l) used by
  this toolkit are shifted so the critical value sits at (0, 0).

Values (h, l) are always relative to the critical value.  Systems are
frozen dataclasses: immutable, hashable, safely shareable across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NoTorusError, SystemRejected, TurningPointDegeneracy, WindowError

TWO_PI = 2.0 * math.pi

ROOT_DEGENERACY_TOL = 1e-8
# treat |l| below this as exactly on the l = 0 axis (turning-point root
# finding degenerates there; the angular jump is added analytically)
L_AXIS_TOL = 1e-13


@dataclass(frozen=True)
class FocusFocusData:
    """Eigenvalue data of the equilibrium: quadruple +-alpha +- i omega."""
    alpha: float
    omega: float

    @property
    def lam(self) -> complex:
        return complex(self.alpha, self.omega)

    @property
    def A0(self) -> float:
        """omega / alpha, the leading rotation-number coefficient."""
        return self.omega / self.alpha


@dataclass(frozen=True)
class EMValue:
    """Point in the energy-momentum image, relative to the critical value."""
    h: float
    l: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.h, self.l)


@dataclass(frozen=True)
class ReducedProfile:
    """S^1-reduced radial data of one torus.

    r_lo/r_hi bound the reduced orbit; pole_lo/pole_hi flag endpoints where
    the angular coordinate degenerates (center / sphere pole) -- reachable
    only on the l = 0 axis, where each passage adds pi to Theta
    analytically.  The u-space integrands are smooth on (0, pi/2) after the
    r = r_lo + (r_hi - r_lo) sin^2 u substitution; Theta additionally gets
    theta_closed (analytic pole-model part).
    """
    r_lo: float
    r_hi: float
    pole_lo: bool
    pole_hi: bool
    p: Callable[[float], float]
    dp: Callable[[float], float]
    angular_rate: Callable[[float], float]
    t_integrand_u: Callable[[float], float]
    theta_integrand_u: Callable[[float], float] | None
    theta_closed: float


def _cubic_roots_polished(coeffs: tuple[float, float, float, float]) -> np.ndarray:
    """Real roots of a cubic, Newton-polished (tiny roots from the
    companion-matrix eigensolve carry O(eps) absolute error, which is a
    large relative error; two Newton steps restore it)."""
    c3, c2, c1, c0 = coeffs
    rts = np.roots([c3, c2, c1, c0])
    real = rts.real[np.abs(rts.imag) <= 1e-9 * (1.0 + np.abs(rts.real))]
    out = []
    for x in real:
        for _ in range(2):
            fx = ((c3 * x + c2) * x + c1) * x + c0
            dfx = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if dfx != 0.0:
                x = x - fx / dfx
        out.append(x)
    return np.sort(np.asarray(out))


def _check_window(system: "SystemDefinition", c: EMValue) -> None:
    ff = system.constants()
    j1 = (c.h - ff.omega * c.l) / ff.alpha
    r = math.hypot(j1, c.l)
    if r < system.j_floor:
        raise WindowError(
            f"|j|={r:.3g} below floor {system.j_floor:.3g}: too close to the "
            "singular fiber")
    if r > system.j_cap:
        raise WindowError(f"|j|={r:.3g} above cap {system.j_cap:.3g}")


class SystemDefinition:
    """Duck-typed interface shared by the built-in systems.

    Required surface: name, j_floor, j_cap, hamiltonian/second_integral and
    their gradients on a 4-dim symplectic chart, hessian() at the
    equilibrium, reduced_profile(c), flow components (field, seed, section,
    angle index, invariants on the flow chart), constants().
    """

    name = "abstract"
    j_floor = 1e-5
    j_cap = 0.3
    flow_rtol = 1e-12   # per-system default for the flow oracle

    def constants(self) -> FocusFocusData:
        return eval_constants(self)

    def check_window(self, c: EMValue) -> None:
        _check_window(self, c)


@lru_cache(maxsize=1024)
def eval_constants(system: SystemDefinition) -> FocusFocusData:
    """Eigenvalue data (alpha, omega) of J d^2H at the equilibrium.

    alpha is the positive real part, omega the |imaginary part| of the
    quadruple +-alpha +- i omega.  Rejects spectra that do not form such a
    quadruple within 1e-8.

    Memoized per system (systems are frozen, so the Hessian is fixed); a
    rejection is raised afresh on every call, never cached.
    """
    d2h = np.asarray(system.hessian(), dtype=float)
    if d2h.shape != (4, 4):
        raise SystemRejected(f"hessian must be 4x4, got {d2h.shape}")
    J = np.zeros((4, 4))
    J[0, 2] = J[1, 3] = 1.0
    J[2, 0] = J[3, 1] = -1.0
    eig = np.linalg.eigvals(J @ d2h)
    scale = max(1.0, float(np.max(np.abs(eig))))
    pos = eig[eig.real > 1e-8 * scale]
    if len(pos) != 2:
        raise SystemRejected(
            f"expected two eigenvalues with positive real part, got {len(pos)}"
            f" (spectrum {np.round(eig, 6)})")
    lam = pos[np.argmax(pos.imag)]
    alpha, omega = float(lam.real), abs(float(lam.imag))
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


def turning_points(system: SystemDefinition, c: EMValue) -> tuple[float, float]:
    """Endpoints of the reduced orbit through c, with a simple-root check
    |P'(r)| > tol on genuine roots (pole endpoints on the l = 0 axis are
    domain boundaries, not roots, and are exempt)."""
    system.check_window(c)
    prof = system.reduced_profile(c)
    for r, is_pole in ((prof.r_lo, prof.pole_lo), (prof.r_hi, prof.pole_hi)):
        if is_pole and prof.p(r) > 0:
            continue  # center/pole passage endpoint, not a turning point
        if abs(prof.dp(r)) <= ROOT_DEGENERACY_TOL:
            raise TurningPointDegeneracy(
                f"|P'({r:.6g})|={abs(prof.dp(r)):.2g} <= "
                f"{ROOT_DEGENERACY_TOL}: too close to an elliptic boundary")
    return prof.r_lo, prof.r_hi


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
    def hamiltonian(self, s) -> float:
        x, y, px, py = s[:4]
        r2 = x * x + y * y
        return ((px * px + py * py) / 2.0 + self.gamma * (x * py - y * px)
                - r2 + r2 * r2)

    def second_integral(self, s) -> float:
        x, y, px, py = s[:4]
        return x * py - y * px

    def grad_hamiltonian(self, s) -> np.ndarray:
        x, y, px, py = s[:4]
        r2 = x * x + y * y
        g = self.gamma
        return np.array([g * py - 2 * x + 4 * x * r2,
                         -g * px - 2 * y + 4 * y * r2,
                         px - g * y,
                         py + g * x])

    def grad_second_integral(self, s) -> np.ndarray:
        x, y, px, py = s[:4]
        return np.array([py, -px, -y, x])

    def equilibrium(self) -> np.ndarray:
        return np.zeros(4)

    def hessian(self) -> np.ndarray:
        g = self.gamma
        return np.array([[-2.0, 0.0, 0.0, g],
                         [0.0, -2.0, -g, 0.0],
                         [0.0, -g, 1.0, 0.0],
                         [g, 0.0, 0.0, 1.0]])

    def random_phase_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(-0.8, 0.8, size=(n, 4))

    # -- reduced profile ----------------------------------------------
    def _cubic(self, c: EMValue) -> tuple[float, float, float, float]:
        # s^2 P(r) form, s = r^2:  -2 s^3 + 2 s^2 + 2(h - gamma l) s - l^2
        g = c.h - self.gamma * c.l
        return (-2.0, 2.0, 2.0 * g, -c.l * c.l)

    def reduced_profile(self, c: EMValue) -> ReducedProfile:
        h, l = c.h, c.l
        geff = h - self.gamma * l
        gamma = self.gamma

        def p(r):
            r2 = r * r
            cf = -l * l / r2 if l != 0.0 else 0.0
            return 2.0 * geff + cf + 2.0 * r2 - 2.0 * r2 * r2

        def dp(r):
            cf = 2.0 * l * l / r ** 3 if l != 0.0 else 0.0
            return cf + 4.0 * r - 8.0 * r ** 3

        def a(r):
            return (l / (r * r) if l != 0.0 else 0.0) + gamma

        if abs(l) <= L_AXIS_TOL:
            if geff == 0.0:
                raise NoTorusError("(h, l) = (0, 0) is the singular fiber")
            disc = 1.0 + 4.0 * geff
            if disc < 0.0:
                raise NoTorusError(f"no torus at (h, l)=({h:.4g}, {l:.4g})")
            sq = math.sqrt(disc)
            if geff > 0.0:
                s1, s2, s3, pole = 0.0, (1.0 + sq) / 2.0, (1.0 - sq) / 2.0, True
            else:
                s1, s2, s3, pole = (1.0 - sq) / 2.0, (1.0 + sq) / 2.0, 0.0, False
                if (s2 - s1) <= 1e-6 * max(1.0, s2):
                    raise TurningPointDegeneracy(
                        f"double turning point at (h, l)=({h:.4g}, 0): "
                        "elliptic boundary")
            theta_closed = math.pi * math.copysign(1.0, l) if pole else 0.0
            # l = +0.0 takes the upper sign; copysign(1, +0.0) = +1
        else:
            roots = _cubic_roots_polished(self._cubic(c))
            pos = roots[roots > 0.0]
            if len(roots) < 3 or len(pos) != 2 or roots[0] >= 0.0:
                raise NoTorusError(
                    f"no regular torus at (h, l)=({h:.4g}, {l:.4g}) "
                    f"(cubic roots {np.round(roots, 8)})")
            s3, s1, s2 = roots[0], pos[0], pos[1]
            if (s2 - s1) <= 1e-12 * max(1.0, s2):
                raise TurningPointDegeneracy(
                    f"double turning point at (h, l)=({h:.4g}, {l:.4g})")
            pole = False
            theta_closed = 0.0

        r1, r2 = math.sqrt(s1), math.sqrt(s2)
        dd = r2 - r1

        # P(r) = 2 (r - r1)(r2 - r)(r + r1)(r + r2)(s - s3) / s  with s = r^2;
        # Qhat = P / ((r - r1)(r2 - r)) stays positive and cancellation-free.
        def qhat(r):
            s = r * r
            if s1 == 0.0:
                return 2.0 * (r + r2) * (s - s3) / r
            return 2.0 * (r + r1) * (r + r2) * (s - s3) / s

        def r_of_u(u):
            si = math.sin(u)
            return r1 + dd * si * si

        def t_integrand(u):
            return 4.0 / math.sqrt(qhat(r_of_u(u)))

        def theta_integrand(u):
            r = r_of_u(u)
            return a(r) * 4.0 / math.sqrt(qhat(r))

        return ReducedProfile(
            r_lo=r1, r_hi=r2, pole_lo=pole, pole_hi=False,
            p=p, dp=dp, angular_rate=a,
            t_integrand_u=t_integrand,
            theta_integrand_u=theta_integrand,
            theta_closed=theta_closed)

    # -- full flow (oracle engine) ------------------------------------
    def flow_field(self, c: EMValue) -> Callable:
        """Cartesian field augmented with the unwrapped polar angle:
        state (x, y, px, py, phi)."""
        g = self.gamma

        def field(t, s):
            x, y, px, py, _ = s
            r2 = x * x + y * y
            xd = px - g * y
            yd = py + g * x
            return [xd, yd,
                    2 * x - 4 * x * r2 - g * py,
                    2 * y - 4 * y * r2 + g * px,
                    (x * yd - y * xd) / r2]
        return field

    def flow_seed(self, c: EMValue) -> np.ndarray:
        prof = self.reduced_profile(c)
        r2 = prof.r_hi
        return np.array([r2, 0.0, 0.0, c.l / r2, 0.0])

    def flow_section(self, c: EMValue) -> tuple[Callable, float]:
        """Event g(state) with one falling crossing per radial period."""
        prof = self.reduced_profile(c)
        smid = 0.5 * (prof.r_lo ** 2 + prof.r_hi ** 2)

        def g(s):
            return s[0] * s[0] + s[1] * s[1] - smid
        return g, -1.0

    flow_angle_index = 4

    def flow_hamiltonian(self, s) -> float:
        return self.hamiltonian(s)

    def flow_second_integral(self, s) -> float:
        return self.second_integral(s)


# --------------------------------------------------------------------------
# spherical pendulum
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalPendulum(SystemDefinition):
    """Degenerate focus-focus model (omega = 0).

    Primary engine is the reduced profile in z (chart-free).  The flow
    oracle runs in ambient Cartesian coordinates on the unit sphere
    (polynomial field, smooth across pole passages); the (z, p_z) chart is
    only used for the 4-dim symplectic surface (H, L, Poisson brackets),
    where it is valid away from the poles.
    """
    j_floor: float = 1e-5
    j_cap: float = 0.2

    name = "pendulum"
    flow_rtol = 2e-13   # near-pole passages need headroom under the
                        # 1e-10 energy-drift budget

    # -- 4-dim chart (z, phi, pz, pphi), valid for |z| < 1 -------------
    def hamiltonian(self, s) -> float:
        z, _phi, pz, pphi = s[:4]
        om2 = 1.0 - z * z
        return om2 * pz * pz / 2.0 + pphi * pphi / (2.0 * om2) + z - 1.0

    def second_integral(self, s) -> float:
        return s[3]

    def grad_hamiltonian(self, s) -> np.ndarray:
        z, _phi, pz, pphi = s[:4]
        om2 = 1.0 - z * z
        return np.array([-z * pz * pz + pphi * pphi * z / om2 ** 2 + 1.0,
                         0.0,
                         om2 * pz,
                         pphi / om2])

    def grad_second_integral(self, s) -> np.ndarray:
        return np.array([0.0, 0.0, 0.0, 1.0])

    def equilibrium(self) -> np.ndarray:
        # upright position; in the north-pole tangent chart used by hessian()
        return np.zeros(4)

    def hessian(self) -> np.ndarray:
        # d^2H at the upright equilibrium in the north-pole chart (x, y, px, py):
        # H = (px^2 + py^2)/2 - (x px + y py)^2/2 + sqrt(1 - x^2 - y^2); the
        # quartic term does not contribute.
        return np.array([[-1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])

    def random_phase_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        pts = np.empty((n, 4))
        pts[:, 0] = rng.uniform(-0.9, 0.9, n)      # z away from the poles
        pts[:, 1] = rng.uniform(0.0, TWO_PI, n)
        pts[:, 2] = rng.uniform(-1.0, 1.0, n)
        pts[:, 3] = rng.uniform(-0.5, 0.5, n)
        return pts

    # -- reduced profile ----------------------------------------------
    def _cubic(self, c: EMValue) -> tuple[float, float, float, float]:
        # f(z) = 2 z^3 - 2 h_raw z^2 - 2 z + (2 h_raw - l^2)
        hr = c.h + 1.0
        return (2.0, -2.0 * hr, -2.0, 2.0 * hr - c.l * c.l)

    def reduced_profile(self, c: EMValue) -> ReducedProfile:
        h, l = c.h, c.l
        hr = h + 1.0
        l2 = l * l

        def p(z):
            return 2.0 * (hr - z) * (1.0 - z * z) - l2

        def dp(z):
            return -2.0 * (1.0 - z * z) - 4.0 * z * (hr - z)

        def a(z):
            return l / (1.0 - z * z) if l != 0.0 else 0.0

        if abs(l) <= L_AXIS_TOL:
            if h == 0.0:
                raise NoTorusError("(h, l) = (0, 0) is the singular fiber")
            if h > 0.0:
                z1, z2, z3 = -1.0, 1.0, hr
                npoles, pole_hi = 2, True
            else:
                if hr <= -1.0:
                    raise NoTorusError(f"no torus at (h, l)=({h:.4g}, 0)")
                z1, z2, z3 = -1.0, hr, 1.0
                npoles, pole_hi = 1, False
            theta_closed = npoles * math.pi * math.copysign(1.0, l)
            dd = z2 - z1

            def zu(u):
                si = math.sin(u)
                return z1 + dd * si * si

            def t_integrand(u):
                return 4.0 / math.sqrt(2.0 * (z3 - zu(u)))

            return ReducedProfile(
                r_lo=z1, r_hi=z2, pole_lo=True, pole_hi=pole_hi,
                p=p, dp=dp, angular_rate=a,
                t_integrand_u=t_integrand,
                theta_integrand_u=None,
                theta_closed=theta_closed)

        roots = _cubic_roots_polished(self._cubic(c))
        inside = roots[(roots > -1.0) & (roots < 1.0)]
        if len(roots) < 3 or len(inside) != 2:
            raise NoTorusError(
                f"no regular torus at (h, l)=({h:.4g}, {l:.4g}) "
                f"(cubic roots {np.round(roots, 8)})")
        z1, z2 = inside
        z3 = roots[-1]
        if (z2 - z1) <= 1e-12:
            raise TurningPointDegeneracy(
                f"double turning point at (h, l)=({h:.4g}, {l:.4g})")
        dd = z2 - z1

        # Theta handling: a(z) = (l/2)(1/(1+z) + 1/(1-z)).  Each 1/w factor
        # is integrated against an exact local model sharing the turning
        # point (f = w gS - l^2 frozen at z1, f = v gN - l^2 frozen at z2),
        # whose integral is an arctan; only the bounded remainder is
        # integrated numerically.  This keeps Theta accurate arbitrarily
        # close to the l = 0 axis, where the pole passage makes the naive
        # integrand an unresolvable spike of width ~|l|.
        gS = 2.0 * (hr - z1) * (1.0 - z1)
        if (1.0 - z2) > (hr - z2):
            gN = l2 / (1.0 - z2)      # turning-point identity, stable for z2 near 1
        else:
            gN = 2.0 * (hr - z2) * (1.0 + z2)
        sq_dd = math.sqrt(dd)
        s_fS = math.sqrt(gS)
        s_fN = math.sqrt(gN)

        def zu(u):
            si = math.sin(u)
            return z1 + dd * si * si

        def t_integrand(u):
            return 4.0 / math.sqrt(2.0 * (z3 - zu(u)))

        def theta_remainder(u):
            si, cu = math.sin(u), math.cos(u)
            z = z1 + dd * si * si
            w = (1.0 + z1) + dd * si * si       # 1 + z, no cancellation
            v = (1.0 - z2) + dd * cu * cu       # 1 - z, no cancellation
            s_f = math.sqrt(2.0 * (z3 - z))
            tS = 2.0 / (w * s_f) - 2.0 * sq_dd * cu / (w * s_fS)
            tN = 2.0 / (v * s_f) - 2.0 * sq_dd * si / (v * s_fN)
            return (l / 2.0) * (tS + tN) * 2.0   # full period = 2x half

        sgn = math.copysign(1.0, l)
        atan_s = math.atan(math.sqrt(max(gS * (1.0 + z2) - l2, 0.0)) / abs(l))
        atan_n = math.atan(math.sqrt(max(gN * (1.0 - z1) - l2, 0.0)) / abs(l))
        theta_closed = 2.0 * sgn * (atan_s + atan_n)

        return ReducedProfile(
            r_lo=z1, r_hi=z2, pole_lo=False, pole_hi=False,
            p=p, dp=dp, angular_rate=a,
            t_integrand_u=t_integrand,
            theta_integrand_u=theta_remainder,
            theta_closed=theta_closed)

    # -- full flow (oracle engine) ------------------------------------
    def flow_field(self, c: EMValue) -> Callable:
        """Constrained Cartesian flow on T S^2 with unwrapped azimuth:
        state (x, y, z, vx, vy, vz, phi); qddot = -e_z + (z - |v|^2) q.

        The -eta[(q.v) q + (|q|^2 - 1) v] damping vanishes identically on
        the constraint manifold (trajectories unchanged) and keeps the
        numerical drift of |q| = 1, q.v = 0 -- and with it the energy
        drift -- inside the 1e-10 budget on near-fiber tori."""
        eta = 2.0

        def field(t, s):
            x, y, z, vx, vy, vz, _ = s
            q2m1 = x * x + y * y + z * z - 1.0
            qv = x * vx + y * vy + z * vz
            lam = z - (vx * vx + vy * vy + vz * vz)
            r2 = x * x + y * y
            return [vx, vy, vz,
                    lam * x - eta * (qv * x + q2m1 * vx),
                    lam * y - eta * (qv * y + q2m1 * vy),
                    lam * z - 1.0 - eta * (qv * z + q2m1 * vz),
                    (x * vy - y * vx) / r2]
        return field

    def flow_seed(self, c: EMValue) -> np.ndarray:
        prof = self.reduced_profile(c)
        z2 = prof.r_hi
        x0 = math.sqrt(1.0 - z2 * z2)
        return np.array([x0, 0.0, z2, 0.0, c.l / x0, 0.0, 0.0])

    def flow_section(self, c: EMValue) -> tuple[Callable, float]:
        prof = self.reduced_profile(c)
        zmid = 0.5 * (prof.r_lo + prof.r_hi)

        def g(s):
            return s[2] - zmid
        return g, -1.0

    flow_angle_index = 6

    def flow_hamiltonian(self, s) -> float:
        x, y, z, vx, vy, vz = s[:6]
        return (vx * vx + vy * vy + vz * vz) / 2.0 + z - 1.0

    def flow_second_integral(self, s) -> float:
        x, y, _z, vx, vy, _vz = s[:6]
        return x * vy - y * vx


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


def poisson_bracket(system: SystemDefinition, s) -> float:
    """{H, L} at a phase point, from the analytic gradients.  States are
    ordered (q1, q2, p1, p2)."""
    gh = system.grad_hamiltonian(s)
    gl = system.grad_second_integral(s)
    return float(gh[0] * gl[2] + gh[1] * gl[3] - gh[2] * gl[0] - gh[3] * gl[1])
