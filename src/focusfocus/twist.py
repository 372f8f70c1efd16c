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

A twistless curve is found by sign scans along each C_h.  The scans of all
its energies are one array call (twist_scan) and the refinement points
around their sign changes a second; only Brent's iterates, one root at a
time, call the scalar twist, and S(l*) is the value Brent holds at its
root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScanError
from .numerics import (FD_STEP_FLOOR, FD_STEP_REL, TWO_PI, fd_derivative,
                       find_root_bracketed, richardson)
from .lattice import (_tori_quadrature, fill_rejected, period_lattice,
                      reduced_period_rotation)
from .systems import EMValue, SystemDefinition, to_momentum_chart

# twistless scans stay within |j| <= SCAN_CAP (and the system's j_cap)
SCAN_CAP = 0.2
# omega = 0: half-axis roots of an S even in l (the pendulum's) agree in |l*|
# to Brent's stopping noise (<= 5e-11 measured); within fd_derivative's 1e-8
# relative noise floor they are one mirror pair, whose l > 0 root is taken
MIRROR_RTOL = 1e-8


def twist(system: SystemDefinition, c: EMValue,
          dl_rel: float = FD_STEP_REL) -> float:
    """S = dW/dl at fixed h: Richardson-extrapolated central differences of
    the branch-aligned rotation number along the isoenergy line."""
    _, theta0 = reduced_period_rotation(system, c)

    def w(l: float) -> float:
        return period_lattice(system, EMValue(c.h, l), theta0).theta / TWO_PI

    return fd_derivative(w, c.l, "richardson",
                         step=max(FD_STEP_FLOOR, dl_rel * abs(c.l)))


def twist_scan(system: SystemDefinition, h, ls) -> np.ndarray:
    """twist at each (h, l) of h and ls broadcast together (h a float, or
    one energy per lane), with the default step, every stencil in one
    array call: the centre torus and the Richardson points l +- step and
    l +- step/2 of each lane go through _tori_quadrature together, the
    lanes it rejects through reduced_period_rotation (fill_rejected).
    Theta is aligned to the centre as align_angle does, so each value
    equals twist bit for bit; it is NaN where twist raises a
    FocusFocusError (at the centre or a stencil point).  The result has
    the broadcast shape."""
    h, l = np.broadcast_arrays(np.asarray(h, dtype=float),
                               np.asarray(ls, dtype=float))
    shape, h, l = l.shape, h.ravel(), l.ravel()
    step = np.maximum(FD_STEP_FLOOR, FD_STEP_REL * np.abs(l))
    lanes = np.concatenate([l, l + step, l - step,
                            l + 0.5 * step, l - 0.5 * step])
    hs = np.tile(h, 5)
    T, raw, ok = _tori_quadrature(system, hs, lanes)
    fill_rejected(system, hs, lanes, T, raw, ok)   # a failed lane stays NaN
    theta0, *stencil = raw.reshape(5, l.size)
    w = [(r + TWO_PI * np.round((theta0 - r) / TWO_PI)) / TWO_PI
         for r in stencil]
    return richardson(*w, step).reshape(shape)


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
    """Largest |l| with |j(h, l)| <= j_cap (conservative bisection)."""
    lo, hi = 0.0, j_cap * 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if to_momentum_chart(system, EMValue(h, mid)).modulus <= j_cap:
            lo = mid
        else:
            hi = mid
    return lo


def _twistless_roots(system: SystemDefinition,
                     jobs: list[tuple[float, tuple[float, float]]],
                     n_scan: int = 64) -> list:
    """The unique zero of S along C_h inside l_range, for each job
    (h, l_range): (l*, S(l*)), or the ScanError that rules it out.

    The n_scan points of every job's sign scan are one twist_scan, and the
    3 refinement points inside every interval where S changes sign, over
    all jobs, another; a point whose torus or stencil fails reads NaN and
    brackets no root.  Each job then brackets its root alone: Brent starts
    from the scanned S at the bracket ends, its iterates call the scalar
    twist, and S(l*) is the value it holds at the root it returns.
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

    out: list = []
    for (h, (_, l_hi)), found in zip(jobs, brackets):
        if not found:
            out.append(ScanError(f"no twistless torus on C_h, h={h:.6g}, "
                                 f"within |l| <= {l_hi:.3g}"))
            continue
        if len(found) > 1:
            out.append(ScanError(f"{len(found)} sign changes of S on C_h, "
                                 f"h={h:.6g}: window too large"))
            continue
        l_star, s_star = find_root_bracketed(
            lambda l: twist(system, EMValue(h, l)), *found[0])
        out.append((float(l_star), float(s_star)))
    return out


def twistless_point(system: SystemDefinition, h: float, n_scan: int = 64,
                    l_range: tuple[float, float] | None = None
                    ) -> tuple[float, float]:
    """The unique zero of S along the isoenergy curve C_h inside the scan
    window, by sign scan (refined x4 near candidate changes) plus a
    bracketed root.  Returns (l*, S(l*)).

    The one-job case of the twistless core: the scan is one twist_scan
    call and its refinement points another, and Brent's iterates call the
    scalar twist.

    Raises ScanError when no sign change exists in the window (expected for
    omega = 0 systems at one sign of h) or when several exist (window too
    large for the asymptotic regime).
    """
    if h == 0.0:
        raise ValueError("h must be nonzero")
    if l_range is None:
        lmax = _l_window(system, h, min(SCAN_CAP, system.j_cap))
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
    call and their refinement points another.
    """
    ff = system.constants()
    degenerate = ff.omega == 0.0
    samples: list[TwistlessSample] = []
    failures: list[tuple[float, str]] = []

    energies = sorted(h_values)
    windows = []   # the l ranges scanned at each energy: half-axes at omega = 0
    for h in energies:
        if h == 0.0:
            windows.append(())
            continue
        lmax = _l_window(system, h, min(SCAN_CAP, system.j_cap))
        windows.append(((1e-4 * lmax, lmax), (-lmax, -1e-4 * lmax))
                       if degenerate else ((-lmax, lmax),))
    roots = iter(_twistless_roots(system, [
        (h, rng) for h, rngs in zip(energies, windows) for rng in rngs]))

    for h, rngs in zip(energies, windows):
        if h == 0.0:
            failures.append((h, "h = 0 excluded"))
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
