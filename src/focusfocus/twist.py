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
from .systems import (EMValue, SystemDefinition, eval_constants,
                      to_momentum_chart)

# twistless scans stay within |j| <= SCAN_CAP (and the system's j_cap)
SCAN_CAP = 0.2
# points of each sign scan along C_h (of each half-axis at omega = 0)
N_SCAN = 64
# omega = 0: half-axis roots of an S even in l (the pendulum's) agree in |l*|
# to 3.2e-14 relative (measured at h = 0.002-0.02); within MIRROR_RTOL, over
# 100x that, they are one mirror pair, whose l > 0 root is taken
MIRROR_RTOL = 1e-10


def twists(system: SystemDefinition, h, l) -> np.ndarray:
    """twist at each torus (h, l), broadcast together and flattened, in one
    array call; raises the first torus's FocusFocusError."""
    *_, dtheta, failed = derivatives(system, h, l, 0.0, 1.0)
    if failed:
        raise failed[min(failed)]
    return dtheta / TWO_PI


def twist(system: SystemDefinition, c: EMValue) -> float:
    """S = dW/dl at fixed h: (dTheta/dl)/2 pi by a complex step in l."""
    return float(twists(system, c.h, c.l)[0])


def twist_scan(system: SystemDefinition, h, ls) -> np.ndarray:
    """twist at each (h, l) of h and ls broadcast together (h a float, or
    one energy per lane), one lane each in one array call, with the
    broadcast shape; NaN where twist raises a FocusFocusError."""
    *_, dtheta, _ = derivatives(system, h, ls, 0.0, 1.0)
    return (dtheta / TWO_PI).reshape(np.broadcast_shapes(np.shape(h),
                                                         np.shape(ls)))


def tilde_s(system: SystemDefinition, h, l, S):
    """S~ = 2 pi |j|^2 S at the tori (h, l), given the twist S there."""
    j = to_momentum_chart(system, EMValue(h, l))
    return TWO_PI * (j.j1 ** 2 + j.j2 ** 2) * S


# --------------------------------------------------------------------------
# twistless torus per energy
# --------------------------------------------------------------------------

def _l_window(system: SystemDefinition, h: float, j_cap: float
              ) -> tuple[float, float] | None:
    """The scan window (l_lo, l_hi) of C_h, its least and largest l with
    |j(h, l)| <= j_cap (|j| of to_momentum_chart), or None where even the
    least |j| on C_h is above: at omega != 0 |j| is not even in l, so each
    side has its own end.  A root of the quadratic |j|^2 = j_cap^2 in l is
    within an ulp or two of it, but near a double root (|h| ~ alpha j_cap,
    omega = 0) many ulps off; so steps doubling from an ulp of the root
    bracket the last l inside, and a bisection ends there."""
    ff = eval_constants(system)
    a2 = ff.alpha * ff.alpha + ff.omega * ff.omega
    # (alpha^2 + omega^2) l^2 - 2 h omega l + h^2 - alpha^2 j_cap^2 = 0 has
    # discriminant 4 alpha^2 disc; at disc < 0, start at the least |j|
    disc = max(0.0, a2 * j_cap * j_cap - h * h)
    least = h * ff.omega / a2

    def inside(l: float) -> bool:
        return to_momentum_chart(system, EMValue(h, l)).modulus <= j_cap

    if not inside(least):
        return None
    ends = []
    for side in (-1.0, 1.0):
        # in u = side l, from the root on this side; u never passes least
        floor = side * least
        lo = hi = (side * h * ff.omega + ff.alpha * math.sqrt(disc)) / a2
        step = math.ulp(lo)
        while not inside(side * lo):
            hi, lo, step = lo, max(floor, lo - step), 2.0 * step
        while inside(side * hi):
            lo, hi, step = hi, hi + step, 2.0 * step
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if inside(side * mid) else (lo, mid)
        ends.append(side * lo)
    return ends[0], ends[1]


def _twistless_roots(system: SystemDefinition,
                     jobs: list[tuple[float, tuple[float, float]]]) -> list:
    """The unique zero of S along C_h inside l_range, for each job
    (h, l_range): (l*, S(l*)), or the ScanError that rules it out.

    The N_SCAN points of every job's sign scan are one twist_scan, and the
    3 refinement points inside every interval where S changes sign, over
    all jobs, another; a point whose torus fails reads NaN and brackets no
    root.  Brent then starts each root from the scanned S at its bracket
    ends, the iterates of all roots go through twists together, one lane
    per live root per round (a failing one raises), and S(l*) is the value
    Brent holds at the root it returns.
    """
    hs = np.array([h for h, _ in jobs], dtype=float).reshape(-1, 1)
    ls = np.array([np.linspace(lo, hi, N_SCAN)
                   for _, (lo, hi) in jobs]).reshape(-1, N_SCAN)
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
    for r, ((h, (l_lo, l_hi)), found) in enumerate(zip(jobs, brackets)):
        if not found:
            out[r] = ScanError(f"no twistless torus on C_h, h={h:.6g}, "
                               f"within {l_lo:.3g} <= l <= {l_hi:.3g}")
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
            sent = dict(zip(at, twists(system, [jobs[r][0] for r in at],
                                       list(at.values())).tolist()))
    return out


def _twistless(system: SystemDefinition, energies: list[float]) -> list:
    """The twistless torus of each energy: (l*, S(l*)), or the ScanError
    that rules it out.  Each energy's window on C_h (_l_window) is one job
    of _twistless_roots, or at omega = 0 each of its half-axes one, of
    which the root nearest the axis is taken (the l > 0 one of a mirror
    pair, MIRROR_RTOL); h = 0 is excluded."""
    degenerate = eval_constants(system).omega == 0.0
    cap = min(SCAN_CAP, system.j_cap)
    ranges = []   # the l ranges scanned at each energy
    for h in energies:
        window = _l_window(system, h, cap) if h != 0.0 else None
        ranges.append(() if window is None else
                      ((1e-4 * window[1], window[1]),
                       (window[0], 1e-4 * window[0]))
                      if degenerate else (window,))
    jobs = [(h, rng) for h, rngs in zip(energies, ranges) for rng in rngs]
    roots = iter(_twistless_roots(system, jobs) if jobs else ())
    out = []
    for h, rngs in zip(energies, ranges):
        results = [next(roots) for _ in rngs]
        found = [r for r in results if not isinstance(r, ScanError)]
        if found:
            out.append(min(found, key=lambda t: abs(t[0]) * (
                1.0 - MIRROR_RTOL if t[0] > 0.0 else 1.0)))
        elif not rngs:
            out.append(ScanError(
                "h = 0 excluded" if h == 0.0 else
                f"no twistless torus on C_h, h={h:.6g}: every l puts |j| "
                f"above the scan cap {cap:.3g}"))
        else:
            out.append(ScanError(f"no twistless torus at h={h:.6g} "
                                 "(expected for one h sign at omega = 0)")
                       if degenerate else results[0])
    return out


def twistless_point(system: SystemDefinition, h: float
                    ) -> tuple[float, float]:
    """The unique zero of S along the isoenergy curve C_h inside the scan
    window, by sign scan (refined x4 near candidate changes) plus a
    bracketed root: the one-energy case of twistless_curve.  Returns (l*,
    S(l*)).

    Raises ScanError when no sign change exists in the window (expected for
    omega = 0 systems at one sign of h) or when several exist (window too
    large for the asymptotic regime).
    """
    if h == 0.0:
        raise ValueError("h must be nonzero")
    (root,) = _twistless(system, [h])
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

    Every energy goes through the one twistless core that twistless_point
    calls (_twistless), so the roots equal a loop of twistless_point bit
    for bit; the scans of all energies (half-axes at omega = 0) are one
    twist_scan call, their refinement points another, and Brent's iterates
    of all roots one call per round.
    """
    ff = eval_constants(system)
    degenerate = ff.omega == 0.0
    samples: list[TwistlessSample] = []
    failures: list[tuple[float, str]] = []
    energies = sorted(h_values)
    for h, root in zip(energies, _twistless(system, energies)):
        if isinstance(root, ScanError):
            failures.append((h, str(root)))
            continue
        l_star, resid = root
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
