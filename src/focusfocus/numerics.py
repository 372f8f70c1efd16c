"""Shared numerical kernels.

Adaptive ODE integration with event detection: a batched Dormand-Prince
8(5,3) integrator (DOP853) that steps a block of seeds at once, each lane
with its own step-size controller and event localization (Hairer, Norsett
and Wanner, Solving ODEs I, II.4-II.6 and II.10).  Quadrature with
inverse-square-root endpoint singularities (singularity-removing
substitution + adaptive refinement; no engine uses it, the tests use it as
a reference), bracketed root finding, and extrapolated finite differences.

All functions here are pure; callers may evaluate them concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate import quad as _quadpack
from scipy.optimize import brentq

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

# DOP853 step control, as in scipy's solve_ivp driver
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_N_STAGES = DOP853.n_stages
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)


def align_angle(value: float, reference: float, period: float = TWO_PI) -> float:
    """Shift `value` by an integer multiple of `period` to land nearest
    `reference`.  Exact as long as the true continuous change between the
    two samples is below period/2.  Scalars only: Python's round (half to
    even, as np.round) keeps a float a float, at a tenth of the cost."""
    return value + period * round((reference - value) / period)


@dataclass
class Trajectory:
    """Accepted steps of one adaptive-step trajectory, or of a batch.

    One seed: times (k+1,) are strictly increasing solver steps, states
    (k+1, d), and event_records the polished (time, state, event_id)
    triples in chronological order.

    A batch of n seeds: row i of times (k+1, n) and states (k+1, d, n)
    holds every lane after the i-th batch step; a lane that retries a
    rejected step or has stopped repeats its last state.  event_records
    holds one list of triples per lane, and errors the FlowError that
    stopped each lane, or None.
    """
    times: np.ndarray
    states: np.ndarray
    event_records: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def max_relative_drift(self, scalar: Callable[[np.ndarray], float]):
        """Max |f(state_k) - f(state_0)| / (1 + |f(state_0)|) over samples:
        a float for one seed, one value per lane for a batch.  scalar must
        accept states stacked along trailing axes (row-wise unpacking)."""
        v = scalar(np.moveaxis(self.states, 0, -1))
        v0 = v[..., 0]
        return np.max(np.abs(v - v0[..., None]), axis=-1) / (1.0 + np.abs(v0))


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(state) = fn(state) - level; a zero crossing (filtered
    by direction) is an event.  direction >0 / <0 / 0 selects rising /
    falling / any crossing.  count, when set on the triggering event,
    terminates the integration after that many occurrences.  In a batch,
    level may hold one value per lane."""
    fn: Callable[[np.ndarray], float]
    direction: float = 0.0
    count: int | None = None
    level: float | np.ndarray = 0.0


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=0) / x.shape[0])


def _initial_step(field, t, y, f, t_bound, rtol, atol) -> np.ndarray:
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
                  (0.01 / dmax) ** (1.0 / (DOP853.error_estimator_order + 1)))
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


def _rk_step(field, t, y, f, h, K):
    """One DOP853 step of every lane; fills the stages K[:13]."""
    K[0] = f
    for s in range(1, _N_STAGES):
        dy = _combine(DOP853.A[s, :s], K) * h
        K[s] = field(t + DOP853.C[s] * h, y + dy)
    y_new = y + h * _combine(DOP853.B, K)
    K[_N_STAGES] = field(t + h, y_new)
    return y_new


def _error_norm(K, h, scale) -> np.ndarray:
    """DOP853's blended 5th/3rd-order error estimate, one value per lane."""
    err5 = _combine(DOP853.E5, K) / scale
    err3 = _combine(DOP853.E3, K) / scale
    e5 = np.sum(err5 * err5, axis=0)
    e3 = np.sum(err3 * err3, axis=0)
    denom = e5 + 0.01 * e3
    return (np.abs(h) * e5
            / np.sqrt(np.where(denom > 0.0, denom, 1.0) * scale.shape[0]))


def _dense_coefficients(field, t_old, y_old, y_new, h, K):
    """7th-order dense-output coefficients F (7, d, q) of the steps
    y_old -> y_new of q lanes, whose stages are K (16, d, q); adds the
    three extra stages."""
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA),
                               start=_N_STAGES + 1):
        dy = _combine(a[:s], K) * h
        K[s] = field(t_old + c * h, y_old + dy)
    f_old, f_new = K[0], K[_N_STAGES]
    delta_y = y_new - y_old
    F = np.empty((7,) + y_old.shape)
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2.0 * delta_y - h * (f_new + f_old)
    F[3:] = h * _combine(DOP853.D, K)
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
                   p0: Sequence[float],
                   t_max: float | Sequence[float],
                   events: Sequence[EventSpec] = (),
                   tol: float = FLOW_RTOL) -> Trajectory:
    """Integrate `field` from p0 with the embedded Dormand-Prince 8(5,3)
    pair (DOP853), whose high order keeps the step count low at the tight
    tolerances the flow oracle runs at.

    p0 of shape (d,) is one seed; p0 of shape (d, n) is a batch of n
    lanes, stepped together.  In a batch, field(t, y) must accept a block
    of states y (d, m) with times t (m,), unpacked row by row; a single
    lane (one seed, or a batch of one) hands it a state (d,) and a float.
    Event fns must accept both a block and a state (d,).  t_max may hold
    one budget per lane.  Each lane runs solve_ivp's controller on its own:
    starting step, error norm, SAFETY/MIN/MAX factors, no growth right
    after a rejection, and failure once the step falls below ten ulps of
    t.  Events are localized per lane on the 7th-order interpolant with
    brentq at 4 eps; a seed lying exactly on a section is not a crossing.

    A lane fails with FlowError on step-size underflow (near-singular
    dynamics) or when a requested event count is not reached before its
    t_max.  One seed raises the error; a batch records it in
    Trajectory.errors and goes on with the other lanes.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y0 = np.array(p0, dtype=float)
    single = y0.ndim == 1
    if single:
        y0 = y0[:, None]
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
    n_ev = len(events)
    direction = np.array([ev.direction for ev in events], dtype=float)
    max_count = np.array([np.inf if ev.count is None else ev.count
                          for ev in events])
    level = np.array([np.broadcast_to(np.asarray(ev.level, dtype=float), (n,))
                      for ev in events]).reshape(n_ev, n)

    lane = np.arange(n)
    t = np.zeros(n)
    y = y0.copy()
    f = np.asarray(field(t, y), dtype=float)
    h_abs = _initial_step(field, t, y, f, t_bound, tol, FLOW_ATOL)
    rejected = np.zeros(n, dtype=bool)
    g = np.array([ev.fn(y) for ev in events]).reshape(n_ev, n) - level
    # a seed lying exactly on a section is not a crossing: it reads as a
    # tiny already-past-zero value at t = 0
    on_section = g == 0.0
    past = np.where(direction == 0.0, 1.0, direction) * 1e-300
    g = np.where(on_section, past[:, None], g)

    records: list[list] = [[] for _ in range(n)]
    errors: list[FlowError | None] = [None] * n
    now_t, now_y = t.copy(), y.copy()
    times, states = [now_t.copy()], [now_y.copy()]

    def event_value(k: int, i: int, tt: float, state: np.ndarray) -> float:
        v = events[k].fn(state) - level[k, i]
        if on_section[k, i] and tt == 0.0 and v == 0.0:
            return past[k]
        return v

    def finish(i: int) -> None:
        """Check the event counts of a lane that has stopped."""
        for k, ev in enumerate(events):
            if ev.count is not None:
                got = sum(1 for r in records[i] if r[2] == k)
                if got < ev.count:
                    errors[i] = FlowError(
                        f"t_max={t_bound[i]:.6g} exceeded with {got}/"
                        f"{ev.count} occurrences of event {k}")
                    return

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
            lane, t, y, f, h_abs, rejected, g = _lanes(
                ~tiny, lane, t, y, f, h_abs, rejected, g)
            continue
        t_b = t_bound[lane]
        t_new = np.minimum(t + h_abs, t_b)
        h = t_new - t
        K = np.empty((_N_STAGES + 4, d, lane.size))
        y_new = _rk_step(field, t, y, f, h, K)
        scale = FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err = _error_norm(K, h, scale)
        accept = err < 1.0
        base = np.where(err == 0.0, 1.0, err) ** _ERROR_EXPONENT
        grow = np.where(err == 0.0, MAX_FACTOR,
                        np.minimum(MAX_FACTOR, SAFETY * base))
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        shrink = np.fmax(MIN_FACTOR, SAFETY * base)   # fmax: NaN -> MIN
        h_abs = h * np.where(accept, grow, shrink)
        rejected = ~accept
        acc = np.flatnonzero(accept)
        if not acc.size:
            continue

        t_old, y_old = t[acc], y[:, acc]
        t[acc] = t_new[acc]
        y[:, acc] = y_new[:, acc]
        f[:, acc] = K[_N_STAGES][:, acc]
        done = np.zeros(lane.size, dtype=bool)
        done[acc] = t_new[acc] >= t_b[acc]
        if n_ev:
            g_new = (np.array([ev.fn(y[:, acc]) for ev in events])
                     .reshape(n_ev, acc.size) - level[:, lane[acc]])
            g_old = g[:, acc]
            g[:, acc] = g_new
            up = (g_old <= 0.0) & (g_new >= 0.0)
            down = (g_old >= 0.0) & (g_new <= 0.0)
            dirs = direction[:, None]
            active = ((up & (dirs > 0.0)) | (down & (dirs < 0.0))
                      | ((up | down) & (dirs == 0.0)))
            hit = np.flatnonzero(active.any(axis=0))
            if hit.size:
                cols = acc[hit]
                F = _dense_coefficients(field, t_old[hit], y_old[:, hit],
                                        y_new[:, cols], h[cols],
                                        K[:, :, cols])
            for q, a in enumerate(hit):
                j, i = acc[a], lane[acc[a]]
                sol = _dense_output(t_old[a], h[j], y_old[:, a], F[:, :, q])
                fired = np.flatnonzero(active[:, a])
                roots = np.array([
                    brentq(lambda tt, k=k: event_value(k, i, tt, sol(tt)),
                           t_old[a], t[j], xtol=4 * EPS, rtol=4 * EPS)
                    for k in fired])
                seen = np.array([sum(1 for r in records[i] if r[2] == k)
                                 for k in fired])
                stop = seen + 1 >= max_count[fired]
                if stop.any():
                    # as solve_ivp: keep the crossings up to the first
                    # one that completes its count, in time order
                    order = np.argsort(roots)
                    last = np.flatnonzero(stop[order])[0]
                    fired, roots = fired[order], roots[order]
                    fired, roots = fired[:last + 1], roots[:last + 1]
                records[i].extend((float(r), sol(r), int(k))
                                  for k, r in zip(fired, roots))
                if stop.any():
                    t[j] = roots[-1]
                    y[:, j] = sol(t[j])
                    done[j] = True

        now_t[lane[acc]] = t[acc]
        now_y[:, lane[acc]] = y[:, acc]
        times.append(now_t.copy())
        states.append(now_y.copy())
        if done.any():
            for j in np.flatnonzero(done):
                finish(lane[j])
            lane, t, y, f, h_abs, rejected, g = _lanes(
                ~done, lane, t, y, f, h_abs, rejected, g)

    times_a, states_a = np.array(times), np.array(states)
    if single:
        if errors[0] is not None:
            raise errors[0]
        return Trajectory(times=times_a[:, 0], states=states_a[:, :, 0],
                          event_records=records[0])
    return Trajectory(times=times_a, states=states_a, event_records=records,
                      errors=errors)


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
                        bracket: tuple[float, float]) -> float:
    """Bisection-safeguarded superlinear root finding (Brent).  The result
    never leaves the initial bracket."""
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise BracketError(f"invalid bracket [{a}, {b}]")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BracketError(f"f({a})={fa:.3g} and f({b})={fb:.3g} "
                           "have the same sign")
    return brentq(f, a, b, xtol=ROOT_XTOL, rtol=8 * np.finfo(float).eps)


def fd_derivative(f: Callable[[float], float | np.ndarray], x: float,
                  scheme: str = "central",
                  step: float | None = None) -> float | np.ndarray:
    """Finite-difference first derivative; the one stencil of the package.

    central: O(h^2).  richardson: two central estimates at h and h/2
    combined to O(h^4).  f may return a float or a NumPy vector (the
    derivative of each component).  The default step balances truncation
    against a ~1e-8 relative noise floor of the evaluated quantities.  A
    FocusFocusError raised by f becomes a StencilError.
    """
    if scheme not in ("central", "richardson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    h = step if step is not None else max(FD_STEP_FLOOR, FD_STEP_REL * abs(x))
    try:
        d1 = (f(x + h) - f(x - h)) / (2.0 * h)
        if scheme == "central":
            return d1
        d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    except FocusFocusError as exc:   # stencil left the domain
        raise StencilError(f"stencil around x={x:.6g} failed: {exc}") from exc
    return (4.0 * d2 - d1) / 3.0
