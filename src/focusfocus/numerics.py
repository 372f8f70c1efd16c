"""Shared numerical kernels.

Adaptive ODE integration to a section: a batched Dormand-Prince 8(5,3)
integrator (DOP853) that steps a block of seeds at once, each lane with its
own step-size controller, each crossing landed on the section by Henon's
step (one DOP853 step in the section function; M. Henon, Physica D 5
(1982) 412-414), and the running drift of an invariant tracked in the
kernel (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.6).
Quadrature with inverse-square-root endpoint singularities
(singularity-removing substitution + adaptive refinement; no engine uses
it, the tests use it as a reference), Brent root finding (scipy's
brentq.c, ported), and extrapolated finite differences.  With Bulirsch's
cel for T and Theta (systems), the package runs on numpy alone: scipy
serves only the flow oracle (the DOP853 tableau, imported by
integrate_flow) and quad_singular.

All functions here are pure; callers may evaluate them concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BracketError, FlowError, FocusFocusError,
                     QuadratureError, StencilError)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Defaults shared across modules.
QUAD_REL_TOL = 1e-10
FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
ROOT_XTOL = 1e-12
FD_STEP_FLOOR = 1e-6
FD_STEP_REL = 1e-3
T_BUDGET_FACTOR = 50.0
BRENT_MAX_ITER = 100   # brentq's default

# DOP853 step control, as in scipy's solve_ivp driver
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


def align_angle(value: float, reference: float, period: float = TWO_PI) -> float:
    """Shift `value` by an integer multiple of `period` to land nearest
    `reference`.  Exact as long as the true continuous change between the
    two samples is below period/2.  Scalars only: Python's round (half to
    even, as np.round) keeps a float a float, at a tenth of the cost."""
    return value + period * round((reference - value) / period)


@dataclass
class Trajectory:
    """A batch of n lanes integrated together.

    Row i of times (k+1, n) holds every lane's time after the i-th batch
    step; a lane that retries a rejected step or has stopped repeats its
    last time.  final (d, n) holds each lane's last state, event_records
    one list per lane of its landed (time, state) section crossings in
    order, drift each lane's largest |f(y) - f(y0)| / (1 + |f(y0)|) of the
    invariant f over its accepted steps, and errors the FlowError that
    stopped each lane, or None.
    """
    times: np.ndarray
    final: np.ndarray
    event_records: list
    drift: np.ndarray
    errors: list


@dataclass(frozen=True)
class EventSpec:
    """A section g(state) = fn(state) - level, crossed where g changes sign
    in its direction: rising (+1) or falling (-1), at the rate(state, f) =
    dg/dt where the field is f.  A lane stops at its count-th crossing.
    level may hold one value per lane."""
    fn: Callable[[np.ndarray], float]
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    direction: float
    count: int
    level: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.direction not in (-1.0, 1.0) or self.count < 1:
            raise ValueError("a section needs direction +1 or -1 and "
                             "count >= 1")


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=0) / x.shape[0])


def _initial_step(tab, field, t, y, f, t_bound, rtol, atol) -> np.ndarray:
    """solve_ivp's starting step (Hairer-Norsett-Wanner II.4), per lane."""
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = np.minimum(h0, interval)
    f1 = np.asarray(field(t + h0, y + h0 * f), dtype=float)
    d2 = _rms((f1 - f) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    dmax = np.where(flat, 1.0, np.maximum(d1, d2))
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / dmax) ** (1.0 / (tab.error_estimator_order + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


def _lanes(mask, *arrays):
    """The lanes selected by mask, from arrays indexed by lane last."""
    return tuple(a[..., mask] for a in arrays)


def _combine(w: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_s w[..., s] K[s] over the stages K (S, d, m).  einsum sums
    stage by stage within each lane, so a lane's arithmetic does not
    depend on the lanes beside it, as a BLAS product blocked across lanes
    would."""
    return np.einsum("...s,sdm->...dm", w, K[:w.shape[-1]])


def _rk_step(tab, field, t, y, f, h, K):
    """One DOP853 step of every lane; fills the stages K[:13]."""
    K[0] = f
    for s in range(1, tab.n_stages):
        dy = _combine(tab.A[s, :s], K) * h
        K[s] = field(t + tab.C[s] * h, y + dy)
    y_new = y + h * _combine(tab.B, K)
    K[tab.n_stages] = field(t + h, y_new)
    return y_new


def _error_norm(tab, K, h, scale) -> np.ndarray:
    """DOP853's blended 5th/3rd-order error estimate, one value per lane."""
    err5 = _combine(tab.E5, K) / scale
    err3 = _combine(tab.E3, K) / scale
    e5 = np.sum(err5 * err5, axis=0)
    e3 = np.sum(err3 * err3, axis=0)
    denom = e5 + 0.01 * e3
    return (np.abs(h) * e5
            / np.sqrt(np.where(denom > 0.0, denom, 1.0) * scale.shape[0]))


def _one_lane(field):
    """field on a block of one lane (d, 1): the rows of one state (d,)
    unpack to scalars, which is far cheaper than arithmetic on (1,)
    arrays."""
    return lambda t, y: np.asarray(field(t[0], y[:, 0]), dtype=float)[:, None]


def _land(tab, field, rate, t, y, f, g):
    """Henon's step: one DOP853 step of the lanes at (t, y), field values f,
    over -g in their section value g, on the state (y, t) with field
    (f, 1) / rate.  Returns the landing times, states and starting rates."""
    def field_in_g(_, yt):
        fy = np.asarray(field(yt[-1], yt[:-1]), dtype=float)
        return np.vstack([fy, np.ones_like(yt[-1])]) / rate(yt[:-1], fy)

    r = rate(y, f)
    K = np.empty((tab.n_stages + 1, y.shape[0] + 1, y.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yt = _rk_step(tab, field_in_g, g, np.vstack([y, t]),
                      np.vstack([f, np.ones_like(t)]) / r, -g, K)
    return yt[-1], yt[:-1], r


def integrate_flow(field: Callable[[float, np.ndarray], Sequence[float]],
                   p0: np.ndarray,
                   t_max: float | Sequence[float],
                   invariant: Callable[[np.ndarray], np.ndarray],
                   section: EventSpec | None = None,
                   tol: float = FLOW_RTOL) -> Trajectory:
    """Integrate `field` from the seeds p0 (d, n), n lanes stepped together,
    with the embedded Dormand-Prince 8(5,3) pair (DOP853), whose high order
    keeps the step count low at the tight tolerances the flow oracle runs
    at.

    field(t, y) must accept a block of states y (d, m) with times t (m,),
    unpacked row by row; a batch of one, and the landing of one lane, hand
    it a state (d,) and a float.  The section's fn and rate and the
    invariant must accept a block.  t_max may hold one budget per lane.
    Each lane runs solve_ivp's controller on its own: starting step, error
    norm, SAFETY/MIN/MAX factors, no growth right after a rejection, and
    failure once the step falls below ten ulps of t.  A lane crosses the
    section on an accepted step where g, signed by the direction, goes from
    below zero to zero or above (so a seed lying on the section is not a
    crossing); the crossing lanes of a step land on the section together by
    Henon's step (_land) from the step's start.  The invariant is evaluated
    on every accepted state, for each lane's running maximum drift.

    A lane fails with FlowError on step-size underflow (near-singular
    dynamics), when it does not reach its count of crossings before its
    t_max, or when a landing fails: a rate without the section's direction,
    a non-finite landing, or a landing time outside its step.  The error is
    recorded in Trajectory.errors and the other lanes go on.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.integrate import DOP853 as tab   # only the oracle needs scipy
    y0 = np.array(p0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("p0 must hold one seed per column, shape (d, n)")
    d, n = y0.shape
    block = _one_lane(field) if n == 1 else field
    t_bound = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    if not np.all(t_bound > 0.0):
        raise ValueError("t_max must be positive")

    lane = np.arange(n)
    t = np.zeros(n)
    y = y0.copy()
    f = np.asarray(block(t, y), dtype=float)
    h_abs = _initial_step(tab, block, t, y, f, t_bound, tol, FLOW_ATOL)
    rejected = np.zeros(n, dtype=bool)
    v0 = np.asarray(invariant(y0), dtype=float)
    drift = np.zeros(n)
    if section is not None:
        level = np.broadcast_to(np.asarray(section.level, dtype=float), (n,))
        g = section.fn(y) - level

    records: list[list] = [[] for _ in range(n)]
    errors: list[FlowError | None] = [None] * n
    now_t, final = t.copy(), y0.copy()
    times = [now_t.copy()]

    while lane.size:
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        tiny = h_abs < min_step
        if tiny.any():
            for j in np.flatnonzero(tiny):
                errors[lane[j]] = FlowError(
                    f"integration failed near t={t[j]:.6g}: Required step "
                    "size is less than spacing between numbers. "
                    "(near-singular dynamics?)")
            lane, t, y, f, h_abs, rejected = _lanes(
                ~tiny, lane, t, y, f, h_abs, rejected)
            continue
        t_b = t_bound[lane]
        t_new = np.minimum(t + h_abs, t_b)
        h = t_new - t
        K = np.empty((tab.n_stages + 1, d, lane.size))
        y_new = _rk_step(tab, block, t, y, f, h, K)
        scale = FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err = _error_norm(tab, K, h, scale)
        accept = err < 1.0
        base = (np.where(err == 0.0, 1.0, err)
                ** (-1.0 / (tab.error_estimator_order + 1)))
        grow = np.where(err == 0.0, MAX_FACTOR,
                        np.minimum(MAX_FACTOR, SAFETY * base))
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        shrink = np.fmax(MIN_FACTOR, SAFETY * base)   # fmax: NaN -> MIN
        h_abs = h * np.where(accept, grow, shrink)
        rejected = ~accept
        acc = np.flatnonzero(accept)
        if not acc.size:
            continue

        ids = lane[acc]
        t_old, y_old = t[acc], y[:, acc]
        t[acc] = t_new[acc]
        y[:, acc] = y_new[:, acc]
        f[:, acc] = K[tab.n_stages][:, acc]
        done = np.zeros(lane.size, dtype=bool)
        done[acc] = t_new[acc] >= t_b[acc]
        if section is not None:
            g_old, g_new = g[ids], section.fn(y[:, acc]) - level[ids]
            g[ids] = g_new
            s_old, s_new = section.direction * g_old, section.direction * g_new
            # strict before, so a seed on the section is not a crossing
            hit = np.flatnonzero((s_old < 0.0) & (s_new >= 0.0))
            if hit.size:
                t_at, y_at, r = _land(
                    tab, _one_lane(field) if hit.size == 1 else field,
                    section.rate, t_old[hit], y_old[:, hit], K[0][:, acc[hit]],
                    g_old[hit])
            for q, a in enumerate(hit):
                j, i = acc[a], ids[a]
                if not (section.direction * r[q] > 0.0
                        and np.isfinite(y_at[:, q]).all()
                        and t_old[a] <= t_at[q] <= t[j]):
                    errors[i] = FlowError(
                        f"no landing on the section from t={t_old[a]:.6g}: "
                        f"rate {r[q]:.3g}, landing time {t_at[q]:.6g}")
                    done[j] = True
                    continue
                records[i].append((float(t_at[q]), y_at[:, q]))
                if len(records[i]) >= section.count:
                    t[j], y[:, j] = records[i][-1]
                    done[j] = True

        now_t[ids] = t[acc]
        final[:, ids] = y[:, acc]
        drift[ids] = np.maximum(drift[ids],
                                np.abs(invariant(y[:, acc]) - v0[ids]))
        times.append(now_t.copy())
        if done.any():
            for i in lane[done]:
                got = len(records[i])
                if (section is not None and got < section.count
                        and errors[i] is None):
                    errors[i] = FlowError(
                        f"t_max={t_bound[i]:.6g} exceeded with {got}/"
                        f"{section.count} section crossings")
            lane, t, y, f, h_abs, rejected = _lanes(
                ~done, lane, t, y, f, h_abs, rejected)

    return Trajectory(times=np.array(times), final=final,
                      event_records=records,
                      drift=drift / (1.0 + np.abs(v0)), errors=errors)


@dataclass(frozen=True)
class QuadratureSpec:
    """Integrand on (a, b) with declared inverse-power endpoint blow-up.

    singularity_exponents are (at a, at b), each 0 or 1/2; 1/2 declares
    integrand ~ C / sqrt(x - endpoint) there.
    """
    integrand: Callable[[float], float]
    a: float
    b: float
    singularity_exponents: tuple[float, float] = (0.0, 0.0)


def quad_singular(spec: QuadratureSpec, rel_tol: float = QUAD_REL_TOL,
                  abs_tol: float = 1e-12) -> float:
    """Integrate with a singularity-removing substitution plus adaptive
    refinement.  sqrt endpoints use x = a + (b-a) sin^2 u (both ends) or
    x = a + u^2 (one end).  Convergence = estimated error within
    max(rel_tol * |value|, abs_tol); raises QuadratureError otherwise,
    which usually signals a wrong exponent declaration or an interior
    singularity."""
    a, b = float(spec.a), float(spec.b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    ea, eb = spec.singularity_exponents
    if ea not in (0.0, 0.5) or eb not in (0.0, 0.5):
        raise ValueError("singularity exponents must be 0 or 1/2")
    f = spec.integrand
    width = b - a

    if ea == 0.5 and eb == 0.5:
        def g(u):
            s, c = math.sin(u), math.cos(u)
            return f(a + width * s * s) * width * 2.0 * s * c
        lo, hi = 0.0, 0.5 * math.pi
    elif ea == 0.5:
        def g(u):
            return f(a + u * u) * 2.0 * u
        lo, hi = 0.0, math.sqrt(width)
    elif eb == 0.5:
        def g(u):
            return f(b - u * u) * 2.0 * u
        lo, hi = 0.0, math.sqrt(width)
    else:
        g, lo, hi = f, a, b

    return _adaptive_quad(g, lo, hi, rel_tol, abs_tol)


def _adaptive_quad(g: Callable[[float], float], lo: float, hi: float,
                   rel_tol: float, abs_tol: float = 1e-12) -> float:
    """QUADPACK with convergence verification; retries with a larger
    subdivision limit before giving up."""
    from scipy.integrate import quad as _quadpack
    epsrel = max(0.1 * rel_tol, 1e-13)
    last = None
    for limit in (200, 1000):
        out = _quadpack(g, lo, hi, epsabs=1e-14, epsrel=epsrel,
                        limit=limit, full_output=1)
        val, abserr = out[0], out[1]
        converged = len(out) == 3   # no warning message appended
        if converged or abserr <= max(rel_tol * abs(val), abs_tol):
            return val
        last = (val, abserr)
    raise QuadratureError(
        f"no convergence: value={last[0]:.6g}, abserr={last[1]:.2g} "
        f"(wrong exponent declaration or interior singularity?)")


def find_root_bracketed(f: Callable[[float], float],
                        bracket: tuple[float, float],
                        f_ends: tuple[float, float]) -> tuple[float, float]:
    """Brent's method, given the values f_ends of f at the bracket ends: the
    root and the value of f there.  The result never leaves the initial
    bracket.  A port of scipy's brentq.c, line for line, at xtol ROOT_XTOL
    and rtol 8 eps: its iterates and root are brentq's, bit for bit, but it
    does not evaluate f at the ends again.  Raises BracketError on an
    invalid bracket and where brentq raises: f(a), f(b) of one sign, a NaN,
    or no convergence in BRENT_MAX_ITER steps."""
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise BracketError(f"invalid bracket [{a}, {b}]")
    fa, fb = f_ends
    if fa == 0.0 or fb == 0.0:
        return (a, fa) if fa == 0.0 else (b, fb)
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"f({a})={fa:.3g} and f({b})={fb:.3g} do not "
                           "bracket a root")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        stry = math.inf   # bisect unless a short step is computed and good
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + 8 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise BracketError(f"f({xcur})=NaN")
    raise BracketError(f"Brent's method did not converge in "
                       f"{BRENT_MAX_ITER} iterations")


def fd_derivative(f: Callable[[float], float | np.ndarray], x: float,
                  scheme: str = "central",
                  step: float | None = None) -> float | np.ndarray:
    """Finite-difference first derivative; the one stencil of the package.

    central: O(h^2).  richardson: two central estimates at h and h/2
    combined to O(h^4), by richardson(), which also combines precomputed
    values.  f may return a float or a NumPy vector (the derivative of each
    component).  The default step balances truncation against a ~1e-8
    relative noise floor of the evaluated quantities.  A FocusFocusError
    raised by f becomes a StencilError.
    """
    if scheme not in ("central", "richardson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    h = step if step is not None else max(FD_STEP_FLOOR, FD_STEP_REL * abs(x))
    try:
        f_plus, f_minus = f(x + h), f(x - h)
        if scheme == "central":
            return (f_plus - f_minus) / (2.0 * h)
        return richardson(f_plus, f_minus, f(x + 0.5 * h), f(x - 0.5 * h), h)
    except FocusFocusError as exc:   # stencil left the domain
        raise StencilError(f"stencil around x={x:.6g} failed: {exc}") from exc


def richardson(f_plus, f_minus, f_half_plus, f_half_minus, h):
    """The richardson scheme of fd_derivative on precomputed values of f at
    x + h, x - h, x + h/2 and x - h/2.  Scalars, or arrays holding one
    stencil per lane (h a scalar or an array), each lane combined exactly
    as a scalar stencil."""
    d1 = (f_plus - f_minus) / (2.0 * h)
    d2 = (f_half_plus - f_half_minus) / h
    return (4.0 * d2 - d1) / 3.0


def linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """Quantiles qs of values by numpy's 'linear' rule, as np.quantile
    computes them, without its lazy numpy.ma import: virtual index
    (n - 1) q into the sorted values, then numpy's two-sided lerp."""
    s = np.sort(values).tolist()
    n = len(s)
    out = []
    for q in qs:
        v = (n - 1) * q
        if v >= n - 1:   # np.quantile's top clamp: both ends the last value
            i = j = -1
        else:
            i = math.floor(v)
            j = i + 1
        g = v - i
        a, b = s[i], s[j]
        d = b - a
        out.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    return out
