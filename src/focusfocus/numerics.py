"""Shared numerical kernels.

Adaptive ODE integration with event detection (Dormand-Prince 8(5,3),
DOP853, with dense-output event polishing, via scipy), quadrature with
inverse-square-root endpoint singularities (singularity-removing
substitution + adaptive refinement; no engine uses it, the tests use it
as a reference), bracketed root finding, and extrapolated finite
differences.

All functions here are pure; callers may evaluate them concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad as _quadpack
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (BracketError, FlowError, FocusFocusError,
                     QuadratureError, StencilError)

TWO_PI = 2.0 * math.pi

# Defaults shared across modules (all overridable per call).
QUAD_REL_TOL = 1e-10
FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
ROOT_XTOL = 1e-12
FD_STEP_FLOOR = 1e-6
FD_STEP_REL = 1e-3
T_BUDGET_FACTOR = 50.0


def align_angle(value: float, reference: float, period: float = TWO_PI) -> float:
    """Shift `value` by an integer multiple of `period` to land nearest
    `reference`.  Exact as long as the true continuous change between the
    two samples is below period/2."""
    return value + period * np.round((reference - value) / period)


@dataclass
class Trajectory:
    """Adaptive-step trajectory with localized events.

    times are strictly increasing solver steps; events carry the polished
    (time, state, event_id) triples in chronological order.
    """
    times: np.ndarray
    states: np.ndarray          # shape (n_samples, dim)
    event_records: list[tuple[float, np.ndarray, int]] = field(default_factory=list)

    def max_relative_drift(self, scalar: Callable[[np.ndarray], float]) -> float:
        """Max |f(state_k) - f(state_0)| / (1 + |f(state_0)|) over samples."""
        v0 = scalar(self.states[0])
        worst = 0.0
        for s in self.states:
            worst = max(worst, abs(scalar(s) - v0))
        return worst / (1.0 + abs(v0))


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(state); a zero crossing (filtered by direction) is an
    event.  direction >0 / <0 / 0 selects rising / falling / any crossing.
    count, when set on the triggering event, terminates the integration
    after that many occurrences."""
    fn: Callable[[np.ndarray], float]
    direction: float = 0.0
    count: int | None = None


def integrate_flow(field: Callable[[float, np.ndarray], Sequence[float]],
                   p0: Sequence[float],
                   t_max: float,
                   events: Sequence[EventSpec] = (),
                   tol: float = FLOW_RTOL,
                   atol: float = FLOW_ATOL) -> Trajectory:
    """Integrate `field` from p0 with the embedded Dormand-Prince 8(5,3)
    pair (DOP853), whose high order keeps the step count low at the tight
    tolerances the flow oracle runs at.

    Events are localized on the step interpolant to machine-level accuracy
    in t.  Raises FlowError on step-size underflow (near-singular dynamics)
    or when a requested event count is not reached before t_max.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p0 = np.asarray(p0, dtype=float)
    scipy_events = []
    for ev in events:
        # a seed lying exactly on a section is not a crossing: report a tiny
        # already-past-zero value at t = 0 so the detector skips it
        starts_on_section = ev.fn(p0) == 0.0

        def g(t, y, _fn=ev.fn, _skip=starts_on_section, _dir=ev.direction):
            v = _fn(y)
            if _skip and t == 0.0 and v == 0.0:
                return _dir * 1e-300 if _dir != 0.0 else 1e-300
            return v
        g.direction = ev.direction
        if ev.count is not None:
            g.terminal = ev.count
        scipy_events.append(g)

    sol = solve_ivp(field, (0.0, float(t_max)), p0,
                    method="DOP853", rtol=tol, atol=atol,
                    events=scipy_events or None)
    if sol.status == -1:
        raise FlowError(f"integration failed near t={sol.t[-1]:.6g}: "
                        f"{sol.message} (near-singular dynamics?)")

    records: list[tuple[float, np.ndarray, int]] = []
    if scipy_events:
        for k, (te, ye) in enumerate(zip(sol.t_events, sol.y_events)):
            for t, y in zip(te, ye):
                records.append((float(t), np.asarray(y), k))
        records.sort(key=lambda r: r[0])

    for ev_id, ev in enumerate(events):
        if ev.count is not None:
            got = sum(1 for r in records if r[2] == ev_id)
            if got < ev.count:
                raise FlowError(
                    f"t_max={t_max:.6g} exceeded with {got}/{ev.count} "
                    f"occurrences of event {ev_id}")

    return Trajectory(times=sol.t.copy(), states=sol.y.T.copy(),
                      event_records=records)


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
                        bracket: tuple[float, float],
                        tol: float = ROOT_XTOL) -> float:
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
    return brentq(f, a, b, xtol=tol, rtol=8 * np.finfo(float).eps)


def fd_derivative(f: Callable[[float], float], x: float,
                  scheme: str = "central",
                  step: float | None = None) -> float:
    """Finite-difference first derivative.

    central: O(h^2).  richardson: two central estimates at h and h/2
    combined to O(h^4).  The default step balances truncation against a
    ~1e-8 relative noise floor of the evaluated quantities.
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
