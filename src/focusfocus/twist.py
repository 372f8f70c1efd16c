"""Twist along isoenergy curves and the twistless torus.

The twist S = dW/dl at fixed energy h is computed by central differences
with Richardson extrapolation (numerics.fd_derivative) of Theta aligned to
the stencil centre (lattice.period_lattice), which makes the derivative
sheet-independent.  The rescaled twist S~ = 2 pi |j|^2 S extends
continuously by 0 to the origin with gradient (A0^2 - 1, -2 A0); its zero
set is a curve through the origin whose tangent satisfies
h = omega (omega^2 + alpha^2)/(omega^2 - alpha^2) l in the loxodromic case.
For omega = 0 the transversality degenerates and the toolkit only reports
the |h|/|l*| trend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FocusFocusError, ScanError
from .numerics import (FD_STEP_FLOOR, FD_STEP_REL, TWO_PI, fd_derivative,
                       find_root_bracketed)
from .lattice import period_lattice, reduced_period_rotation, to_momentum_chart
from .systems import EMValue, SystemDefinition

# twistless scans stay within |j| <= SCAN_CAP (and the system's j_cap)
SCAN_CAP = 0.2


@dataclass(frozen=True)
class TorusInvariants:
    """Per-torus dynamical invariants on one branch sheet."""
    c: EMValue
    W: float
    omega1: float
    omega2: float
    S: float
    S_tilde: float


def twist(system: SystemDefinition, c: EMValue,
          dl_rel: float = FD_STEP_REL) -> float:
    """S = dW/dl at fixed h: Richardson-extrapolated central differences of
    the branch-aligned rotation number along the isoenergy line."""
    _, theta0 = reduced_period_rotation(system, c)

    def w(l: float) -> float:
        return period_lattice(system, EMValue(c.h, l), theta0).theta / TWO_PI

    return fd_derivative(w, c.l, "richardson",
                         step=max(FD_STEP_FLOOR, dl_rel * abs(c.l)))


def twist_via_j_chart(system: SystemDefinition, c: EMValue) -> float:
    """S from the momentum-chart form -A dW/dj1 + dW/dj2 with A = A0 and
    the exact linear chart.  Algebraically identical to twist(); computed
    on different stencils, so agreement checks the FD machinery."""
    ff = system.constants()
    h, l = c.h, c.l
    dj = max(FD_STEP_FLOOR, FD_STEP_REL * abs(l))
    _, theta0 = reduced_period_rotation(system, c)

    def w(hv: float, lv: float) -> float:
        return period_lattice(system, EMValue(hv, lv), theta0).theta / TWO_PI

    g1 = fd_derivative(lambda t: w(h + ff.alpha * t, l), 0.0, "richardson",
                       step=dj)
    g2 = fd_derivative(lambda t: w(h + ff.omega * t, l + t), 0.0,
                       "richardson", step=dj)
    return -ff.A0 * g1 + g2


def tilde_s(system: SystemDefinition, c: EMValue, S: float | None = None) -> float:
    """S~ = 2 pi |j|^2 S."""
    if S is None:
        S = twist(system, c)
    j = to_momentum_chart(system, c)
    return TWO_PI * (j.j1 ** 2 + j.j2 ** 2) * S


def torus_invariants(system: SystemDefinition, c: EMValue) -> TorusInvariants:
    T, theta = reduced_period_rotation(system, c)
    S = twist(system, c)
    return TorusInvariants(c=c, W=theta / TWO_PI,
                           omega1=TWO_PI / T, omega2=theta / T,
                           S=S, S_tilde=tilde_s(system, c, S))


# --------------------------------------------------------------------------
# twistless torus per energy
# --------------------------------------------------------------------------

def _l_window(system: SystemDefinition, h: float, j_cap: float) -> float:
    """Largest |l| with |j(h, l)| <= j_cap (conservative bisection)."""
    lo, hi = 0.0, j_cap * 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if to_momentum_chart(system, EMValue(h, mid)).modulus <= j_cap:
            lo = mid
        else:
            hi = mid
    return lo


def twistless_point(system: SystemDefinition, h: float, n_scan: int = 64,
                    l_range: tuple[float, float] | None = None
                    ) -> tuple[float, float]:
    """The unique zero of S along the isoenergy curve C_h inside the scan
    window, by sign scan (refined x4 near candidate changes) plus a
    bracketed root.  Returns (l*, S(l*)).

    Raises ScanError when no sign change exists in the window (expected for
    omega = 0 systems at one sign of h) or when several exist (window too
    large for the asymptotic regime).
    """
    if h == 0.0:
        raise ValueError("h must be nonzero")
    if l_range is None:
        lmax = _l_window(system, h, min(SCAN_CAP, system.j_cap))
        l_range = (-lmax, lmax)

    def s_or_nan(l: float) -> float:
        try:
            return twist(system, EMValue(h, l))
        except FocusFocusError:   # window edge / failed torus
            return math.nan

    # plain floats: NumPy scalars would slow every stencil point's arithmetic
    ls = np.linspace(l_range[0], l_range[1], n_scan).tolist()
    sv = np.array([s_or_nan(l) for l in ls])
    flips = np.flatnonzero(sv[:-1] * sv[1:] < 0)   # NaN pairs compare False

    brackets = []
    for i in flips:
        fine = np.linspace(ls[i], ls[i + 1], 5).tolist()
        fv = [sv[i]] + [s_or_nan(l) for l in fine[1:-1]] + [sv[i + 1]]
        for k in range(4):
            if fv[k] * fv[k + 1] < 0:
                brackets.append((fine[k], fine[k + 1]))
    if not brackets:
        raise ScanError(f"no twistless torus on C_h, h={h:.6g}, within "
                        f"|l| <= {l_range[1]:.3g}")
    if len(brackets) > 1:
        raise ScanError(f"{len(brackets)} sign changes of S on C_h, "
                        f"h={h:.6g}: window too large")

    l_star = find_root_bracketed(lambda l: twist(system, EMValue(h, l)),
                                 brackets[0])
    return float(l_star), float(twist(system, EMValue(h, l_star)))


@dataclass(frozen=True)
class TwistlessSample:
    h: float
    l_star: float
    j1: float
    j2: float
    s_residual: float


@dataclass
class TwistlessCurve:
    """Samples of the vanishing-twist curve, ordered by h, plus the fitted
    tangent slope dh/dj2 at the origin.  In degenerate mode (omega = 0) no
    slope is fitted; ratios carries |h|/|l*| ordered by decreasing |h|,
    whose decay witnesses the lost transversality (tangency to {h = 0})."""
    samples: list[TwistlessSample]
    failures: list[tuple[float, str]]
    expected_slope: float
    tangent_slope_fit: float = math.nan
    degenerate: bool = False
    ratios: list[float] = field(default_factory=list)


def expected_twistless_slope(alpha: float, omega: float) -> float:
    """Tangent slope dh/dj2 of the twistless curve at the origin,
    omega (omega^2 + alpha^2) / (omega^2 - alpha^2); 0 signals the
    degenerate omega = 0 mode."""
    if omega == 0.0:
        return 0.0
    return omega * (omega ** 2 + alpha ** 2) / (omega ** 2 - alpha ** 2)


def twistless_curve(system: SystemDefinition,
                    h_values: list[float]) -> TwistlessCurve:
    """Vanishing-twist curve over the given energies.

    Loxodromic systems: one root per h, then a weighted through-origin fit
    of h against j2 on the 4 smallest |h| samples (weights 1/h^2) compared
    against the predicted tangent.  omega = 0 systems: scan each half-axis
    of l separately per h; report found roots and the |h|/|l*| trend.
    """
    ff = system.constants()
    degenerate = ff.omega == 0.0
    samples: list[TwistlessSample] = []
    failures: list[tuple[float, str]] = []

    for h in sorted(h_values):
        if h == 0.0:
            failures.append((h, "h = 0 excluded"))
            continue
        try:
            if degenerate:
                lmax = _l_window(system, h, min(SCAN_CAP, system.j_cap))
                found = []
                for rng in ((1e-4 * lmax, lmax), (-lmax, -1e-4 * lmax)):
                    try:
                        found.append(twistless_point(system, h, l_range=rng))
                    except ScanError:
                        pass
                if not found:
                    raise ScanError(f"no twistless torus at h={h:.6g} "
                                    "(expected for one h sign at omega = 0)")
                l_star, resid = min(found, key=lambda t: abs(t[0]))
            else:
                l_star, resid = twistless_point(system, h)
        except ScanError as exc:
            failures.append((h, str(exc)))
            continue
        j = to_momentum_chart(system, EMValue(h, l_star))
        samples.append(TwistlessSample(h=h, l_star=l_star, j1=j.j1, j2=j.j2,
                                       s_residual=resid))

    curve = TwistlessCurve(samples=samples, failures=failures,
                           expected_slope=expected_twistless_slope(
                               ff.alpha, ff.omega),
                           degenerate=degenerate)
    if degenerate:
        ordered = sorted(samples, key=lambda s: -abs(s.h))
        curve.ratios = [abs(s.h) / abs(s.l_star) for s in ordered]
        return curve

    if len(samples) < 4:
        raise ScanError(f"tangent fit needs >= 4 twistless samples, got "
                        f"{len(samples)}")
    smallest = sorted(samples, key=lambda s: abs(s.h))[:4]
    wgt = np.array([1.0 / s.h ** 2 for s in smallest])
    hh = np.array([s.h for s in smallest])
    jj = np.array([s.j2 for s in smallest])
    # through-origin weighted least squares of h = slope * j2
    curve.tangent_slope_fit = float(np.sum(wgt * hh * jj)
                                    / np.sum(wgt * jj * jj))
    return curve
