"""Twist along isoenergy curves and the twistless torus.

The twist S = dW/dl at fixed energy h is (dTheta/dl)/2 pi, one
complex-step lane per torus (lattice.derivatives), exact to rounding.  The
rescaled twist S~ = 2 pi |j|^2 S extends continuously by 0 to the origin
with gradient (A0^2 - 1, -2 A0); its zero set is a curve through the
origin whose tangent satisfies h = omega (omega^2 + alpha^2)/(omega^2 -
alpha^2) l in the loxodromic case.  For omega = 0 the transversality
degenerates and the toolkit only reports the |h|/|l*| trend.

A twistless curve is found by sign scans along each C_h: the scans of all
its energies are one array call (twist_scan), the refinement points around
their sign changes a second, then each round of Brent's iterates of all
roots one more; S(l*) is the value Brent holds at its root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScanError
from .numerics import TWO_PI, find_root_bracketed
from .lattice import derivatives
from .systems import EMValue, SystemDefinition, to_momentum_chart

# twistless scans stay within |j| <= SCAN_CAP (and the system's j_cap)
SCAN_CAP = 0.2
# omega = 0: half-axis roots of an S even in l (the pendulum's) agree in |l*|
# to 3.2e-14 relative (measured at h = 0.002-0.02); within MIRROR_RTOL, over
# 100x that, they are one mirror pair, whose l > 0 root is taken
MIRROR_RTOL = 1e-10


def twists(system: SystemDefinition, cs: list[EMValue]) -> list[float]:
    """twist at each torus of cs, in one array call; raises the first
    torus's FocusFocusError."""
    _, dtheta, failed = derivatives(system, [c.h for c in cs],
                                    [c.l for c in cs], 0.0, 1.0)
    if failed:
        raise failed[min(failed)]
    return (dtheta / TWO_PI).tolist()


def twist(system: SystemDefinition, c: EMValue) -> float:
    """S = dW/dl at fixed h: (dTheta/dl)/2 pi by a complex step in l."""
    return twists(system, [c])[0]


def twist_scan(system: SystemDefinition, h, ls) -> np.ndarray:
    """twist at each (h, l) of h and ls broadcast together (h a float, or
    one energy per lane), one lane each in one array call, with the
    broadcast shape; NaN where twist raises a FocusFocusError."""
    _, dtheta, _ = derivatives(system, h, ls, 0.0, 1.0)
    return (dtheta / TWO_PI).reshape(np.broadcast_shapes(np.shape(h),
                                                         np.shape(ls)))


def tilde_s(system: SystemDefinition, c: EMValue, S: float | None = None) -> float:
    """S~ = 2 pi |j|^2 S."""
    if S is None:
        S = twist(system, c)
    j = to_momentum_chart(system, c)
    return TWO_PI * (j.j1 ** 2 + j.j2 ** 2) * S


# --------------------------------------------------------------------------
# twistless torus per energy
# --------------------------------------------------------------------------

def _l_window(system: SystemDefinition, h: float, j_cap: float) -> float:
    """Largest l >= 0 with |j(h, l)| <= j_cap (|j| of to_momentum_chart),
    or 0.0 where no l >= 0 has it.  The larger root of the quadratic |j|^2
    = j_cap^2 in l is within an ulp or two of it, but near a double root
    (|h| ~ alpha j_cap, omega = 0) many ulps off; so steps doubling from an
    ulp of the root bracket the last l inside, and a bisection ends there.
    """
    ff = system.constants()
    a2 = ff.alpha * ff.alpha + ff.omega * ff.omega
    # (alpha^2 + omega^2) l^2 - 2 h omega l + h^2 - alpha^2 j_cap^2 = 0 has
    # discriminant 4 alpha^2 disc; at disc < 0, start at the least |j|
    disc = max(0.0, a2 * j_cap * j_cap - h * h)

    def inside(l: float) -> bool:
        return to_momentum_chart(system, EMValue(h, l)).modulus <= j_cap

    lo = hi = max(0.0, (h * ff.omega + ff.alpha * math.sqrt(disc)) / a2)
    step = math.ulp(lo)
    while not inside(lo):
        if lo == 0.0:
            return 0.0
        hi, lo, step = lo, max(0.0, lo - step), 2.0 * step
    while inside(hi):
        lo, hi, step = hi, hi + step, 2.0 * step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def _no_window(h: float, cap: float) -> ScanError:
    """The failure at an energy whose scan window _l_window leaves empty."""
    return ScanError(f"no twistless torus on C_h, h={h:.6g}: every l >= 0 "
                     f"puts |j| above the scan cap {cap:.3g}")


def _twistless_roots(system: SystemDefinition,
                     jobs: list[tuple[float, tuple[float, float]]],
                     n_scan: int = 64) -> list:
    """The unique zero of S along C_h inside l_range, for each job
    (h, l_range): (l*, S(l*)), or the ScanError that rules it out.

    The n_scan points of every job's sign scan are one twist_scan, and the
    3 refinement points inside every interval where S changes sign, over
    all jobs, another; a point whose torus fails reads NaN and brackets no
    root.  Brent then starts each root from the scanned S at its bracket
    ends, the iterates of all roots go through twists together, one lane
    per live root per round (a failing one raises), and S(l*) is the value
    Brent holds at the root it returns.
    """
    hs = np.array([h for h, _ in jobs], dtype=float).reshape(-1, 1)
    ls = np.array([np.linspace(lo, hi, n_scan)
                   for _, (lo, hi) in jobs]).reshape(-1, n_scan)
    sv = twist_scan(system, hs, ls)
    job, i = np.nonzero(sv[:, :-1] * sv[:, 1:] < 0)   # NaN pairs: False

    fine = np.array([np.linspace(ls[r, k], ls[r, k + 1], 5)
                     for r, k in zip(job.tolist(), i.tolist())]
                    ).reshape(-1, 5)
    fv = np.column_stack([sv[job, i], twist_scan(system, hs[job],
                                                 fine[:, 1:-1]),
                          sv[job, i + 1]])
    f, k = np.nonzero(fv[:, :-1] * fv[:, 1:] < 0)
    brackets = [[] for _ in jobs]   # (bracket, S at its ends) per job
    for r, a, b, fa, fb in zip(job[f].tolist(), fine[f, k].tolist(),
                               fine[f, k + 1].tolist(), fv[f, k].tolist(),
                               fv[f, k + 1].tolist()):
        brackets[r].append(((a, b), (fa, fb)))

    out: list = [None] * len(jobs)
    brent = {}   # job -> Brent's generator for its root
    for r, ((h, (_, l_hi)), found) in enumerate(zip(jobs, brackets)):
        if not found:
            out[r] = ScanError(f"no twistless torus on C_h, h={h:.6g}, "
                               f"within |l| <= {l_hi:.3g}")
        elif len(found) > 1:
            out[r] = ScanError(f"{len(found)} sign changes of S on C_h, "
                               f"h={h:.6g}: window too large")
        else:
            brent[r] = find_root_bracketed(*found[0])
    sent = dict.fromkeys(brent)   # None starts each generator
    while brent:
        at = {}
        for r, gen in list(brent.items()):
            try:
                at[r] = gen.send(sent[r])
            except StopIteration as stop:
                out[r] = tuple(map(float, stop.value))
                del brent[r]
        if at:
            sent = dict(zip(at, twists(system, [EMValue(jobs[r][0], x)
                                                for r, x in at.items()])))
    return out


def twistless_point(system: SystemDefinition, h: float, n_scan: int = 64,
                    l_range: tuple[float, float] | None = None
                    ) -> tuple[float, float]:
    """The unique zero of S along the isoenergy curve C_h inside the scan
    window, by sign scan (refined x4 near candidate changes) plus a
    bracketed root: the one-job case of the twistless core.  Returns (l*,
    S(l*)).

    Raises ScanError when no sign change exists in the window (expected for
    omega = 0 systems at one sign of h) or when several exist (window too
    large for the asymptotic regime).
    """
    if h == 0.0:
        raise ValueError("h must be nonzero")
    if l_range is None:
        cap = min(SCAN_CAP, system.j_cap)
        if (lmax := _l_window(system, h, cap)) == 0.0:
            raise _no_window(h, cap)
        l_range = (-lmax, lmax)
    (root,) = _twistless_roots(system, [(h, l_range)], n_scan)
    if isinstance(root, ScanError):
        raise root
    return root


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
    against the predicted tangent.  omega = 0 systems: per h, the half-axis
    root nearest the axis (l > 0 of a mirror pair), and the |h|/|l*| trend.

    Each energy (each half-axis at omega = 0) is one job of the twistless
    core, as twistless_point is, so the roots equal a loop of
    twistless_point bit for bit; the scans of all jobs are one twist_scan
    call, their refinement points another, and Brent's iterates of all
    roots one call per round.
    """
    ff = system.constants()
    degenerate = ff.omega == 0.0
    samples: list[TwistlessSample] = []
    failures: list[tuple[float, str]] = []

    energies = sorted(h_values)
    cap = min(SCAN_CAP, system.j_cap)
    windows = []   # the l ranges scanned at each energy: half-axes at omega = 0
    for h in energies:
        lmax = _l_window(system, h, cap) if h != 0.0 else 0.0
        windows.append(() if lmax == 0.0 else
                       ((1e-4 * lmax, lmax), (-lmax, -1e-4 * lmax))
                       if degenerate else ((-lmax, lmax),))
    roots = iter(_twistless_roots(system, [
        (h, rng) for h, rngs in zip(energies, windows) for rng in rngs]))

    for h, rngs in zip(energies, windows):
        if not rngs:
            failures.append((h, "h = 0 excluded" if h == 0.0
                             else str(_no_window(h, cap))))
            continue
        results = [next(roots) for _ in rngs]
        found = [r for r in results if not isinstance(r, ScanError)]
        if not found:
            failures.append((h, f"no twistless torus at h={h:.6g} (expected "
                             "for one h sign at omega = 0)" if degenerate
                             else str(results[0])))
            continue
        l_star, resid = min(found, key=lambda t: abs(t[0]) * (
            1.0 - MIRROR_RTOL if t[0] > 0.0 else 1.0))
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
        first = (f"; the first failure at h={failures[0][0]:.6g}: "
                 f"{failures[0][1]}" if failures else "")
        raise ScanError(f"tangent fit needs >= 4 twistless samples, got "
                        f"{len(samples)}{first}")
    smallest = sorted(samples, key=lambda s: abs(s.h))[:4]
    wgt = np.array([1.0 / s.h ** 2 for s in smallest])
    hh = np.array([s.h for s in smallest])
    jj = np.array([s.j2 for s in smallest])
    # through-origin weighted least squares of h = slope * j2
    curve.tangent_slope_fit = float(np.sum(wgt * hh * jj)
                                    / np.sum(wgt * jj * jj))
    return curve
