"""Shared numerical kernels.

Adaptive ODE integration to a section: a batched Dormand-Prince 8(5,3)
integrator (DOP853) that steps a block of seeds at once, each lane with its
own step-size controller, crossings of one section localized per lane, and
the running drift of an invariant tracked in the kernel (Hairer, Norsett
and Wanner, Solving ODEs I, II.4-II.6 and II.10).  Quadrature with
inverse-square-root endpoint singularities (singularity-removing
substitution + adaptive refinement; no engine uses it, the tests use it as
a reference), Brent root finding (scipy's brentq.c, ported), and
extrapolated finite differences.  With Bulirsch's cel for T and Theta
(systems), the package runs on numpy alone: scipy serves only the flow
oracle (the DOP853 tableau, imported by integrate_flow) and quad_singular.

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
    one list per lane of its polished (time, state) section crossings in
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
    in its direction: rising (+1) or falling (-1).  A lane stops at its
    count-th crossing.  level may hold one value per lane."""
    fn: Callable[[np.ndarray], float]
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


def _dense_coefficients(tab, field, t_old, y_old, y_new, h, K):
    """7th-order dense-output coefficients F (7, d, q) of the steps
    y_old -> y_new of q lanes, whose stages are K (16, d, q); adds the
    three extra stages."""
    for s, (a, c) in enumerate(zip(tab.A_EXTRA, tab.C_EXTRA),
                               start=tab.n_stages + 1):
        dy = _combine(a[:s], K) * h
        K[s] = field(t_old + c * h, y_old + dy)
    f_old, f_new = K[0], K[tab.n_stages]
    delta_y = y_new - y_old
    F = np.empty((7,) + y_old.shape)
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2.0 * delta_y - h * (f_new + f_old)
    F[3:] = h * _combine(tab.D, K)
    return F


def _dense_output(t_old: float, h: float, y_old: np.ndarray, F: np.ndarray):
    """The interpolant of one lane's step, t -> state (d,)."""
    def sol(t):
        x = (t - t_old) / h
        y = np.zeros_like(y_old)
        for i, f in enumerate(F[::-1]):
            y += f
            y *= x if i % 2 == 0 else 1.0 - x
        return y + y_old
    return sol


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
    unpacked row by row; a batch of one hands it a state (d,) and a float.
    The section's fn must accept both a block and a state (d,), the
    invariant a block.  t_max may hold one budget per lane.  Each lane runs
    solve_ivp's controller on its own: starting step, error norm,
    SAFETY/MIN/MAX factors, no growth right after a rejection, and failure
    once the step falls below ten ulps of t.  Section crossings are
    localized per lane on the 7th-order interpolant by Brent's method at
    4 eps; a seed lying exactly on the section is not a crossing.  The
    invariant is evaluated on every accepted state, for each lane's
    running maximum drift.

    A lane fails with FlowError on step-size underflow (near-singular
    dynamics) or when it does not reach its count of crossings before its
    t_max; the error is recorded in Trajectory.errors and the other lanes
    go on.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.integrate import DOP853 as tab   # only the oracle needs scipy
    y0 = np.array(p0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("p0 must hold one seed per column, shape (d, n)")
    d, n = y0.shape
    if n == 1:
        lone = field

        def field(t, y):
            # the rows of one state (d,) unpack to scalars, which is far
            # cheaper than arithmetic on (1,) arrays
            return np.asarray(lone(t[0], y[:, 0]), dtype=float)[:, None]
    t_bound = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    if not np.all(t_bound > 0.0):
        raise ValueError("t_max must be positive")

    lane = np.arange(n)
    t = np.zeros(n)
    y = y0.copy()
    f = np.asarray(field(t, y), dtype=float)
    h_abs = _initial_step(tab, field, t, y, f, t_bound, tol, FLOW_ATOL)
    rejected = np.zeros(n, dtype=bool)
    v0 = np.asarray(invariant(y0), dtype=float)
    drift = np.zeros(n)
    if section is not None:
        level = np.broadcast_to(np.asarray(section.level, dtype=float), (n,))
        g = section.fn(y) - level
        # a seed lying exactly on the section is not a crossing: it reads
        # as a tiny already-past-zero value at t = 0
        on_section = g == 0.0
        past = section.direction * 1e-300
        g = np.where(on_section, past, g)

    records: list[list] = [[] for _ in range(n)]
    errors: list[FlowError | None] = [None] * n
    now_t, final = t.copy(), y0.copy()
    times = [now_t.copy()]

    def section_value(i: int, tt: float, state: np.ndarray) -> float:
        v = section.fn(state) - level[i]
        if on_section[i] and tt == 0.0 and v == 0.0:
            return past
        return v

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
        K = np.empty((tab.n_stages + 4, d, lane.size))
        y_new = _rk_step(tab, field, t, y, f, h, K)
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
            hit = np.flatnonzero((s_old <= 0.0) & (s_new >= 0.0))
            if hit.size:
                cols = acc[hit]
                F = _dense_coefficients(tab, field, t_old[hit], y_old[:, hit],
                                        y_new[:, cols], h[cols],
                                        K[:, :, cols])
            for q, a in enumerate(hit):
                j, i = acc[a], ids[a]
                sol = _dense_output(t_old[a], h[j], y_old[:, a], F[:, :, q])
                ta, tb = float(t_old[a]), float(t[j])

                def g_at(tt):
                    return section_value(i, tt, sol(tt))
                root, _ = _brent(g_at, ta, tb, g_at(ta), g_at(tb), 4 * EPS,
                                 4 * EPS)
                records[i].append((float(root), sol(root)))
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
                if section is not None and got < section.count:
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


def _brent(f: Callable[[float], float], a: float, b: float, fa: float,
           fb: float, xtol: float, rtol: float) -> tuple[float, float]:
    """scipy's brentq.c, ported line for line (bit-identical iterates), given
    fa = f(a) and fb = f(b).  Returns brentq's root and the value of f it
    holds there.  Raises BracketError where brentq raises: f(a), f(b) of
    one sign, a NaN, or no convergence in BRENT_MAX_ITER steps."""
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
        delta = (xtol + rtol * abs(xcur)) / 2
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


def find_root_bracketed(f: Callable[[float], float],
                        bracket: tuple[float, float],
                        f_ends: tuple[float, float]) -> tuple[float, float]:
    """Bisection-safeguarded superlinear root finding (Brent), given the
    values f_ends of f at the bracket ends: the root and the value of f
    there.  The result never leaves the initial bracket."""
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise BracketError(f"invalid bracket [{a}, {b}]")
    return _brent(f, a, b, *f_ends, ROOT_XTOL, 8 * EPS)


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
