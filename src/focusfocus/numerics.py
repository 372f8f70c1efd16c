"""Shared numerical kernels.

Adaptive ODE integration to a section: a batched Dormand-Prince 8(5,3)
integrator (DOP853) that steps a block of seeds at once, each lane with its
own step-size controller, on an autonomous field evaluated on whole blocks
of states.  Each lane runs to its first falling crossing of the one
section it is given, and lands on it at most once: every crossing lands
after the loop, all in one call, by Henon's step (one DOP853 step in the
section function; M. Henon, Physica D 5 (1982) 412-414), and the kernel
tracks the running drift of an invariant (Hairer, Norsett and Wanner,
Solving ODEs I, II.4-II.6).  Its loop and the Newton and cel loops of
systems drop finished lanes by _lanes.
Quadrature with inverse-square-root endpoint singularities
(singularity-removing substitution + adaptive refinement; no engine uses
it, the tests use it as a reference), and Brent root finding (scipy's
brentq.c, ported, as a generator that roots step in lockstep).  With
Bulirsch's cel for T and Theta (systems) and the DOP853 tableau written out
here, only quad_singular imports scipy: the package runs on numpy's core
alone, with no numpy.linalg (LAPACK), numpy.random or numpy.ma.

All functions here are pure; callers may evaluate them concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, FlowError, QuadratureError

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Defaults shared across modules.
QUAD_REL_TOL = 1e-10
FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
ROOT_XTOL = 1e-12
T_BUDGET_FACTOR = 50.0
BRENT_MAX_ITER = 100   # brentq's default

# DOP853 step control, as in scipy's solve_ivp driver
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


class DOP853:
    """The DOP853 tableau (Hairer, Norsett and Wanner; the coefficients of
    dop853.f as scipy.integrate.DOP853 holds them, bit for bit): the stage
    matrix A, the weights B and the error weights E3, E5 of the 12 stages
    and the FSAL stage.  The stage times C are not needed: every field the
    kernel integrates is autonomous."""
    n_stages = 12
    error_estimator_order = 7
    A = np.array([row + (0.0,) * (12 - len(row)) for row in (
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
         0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
         0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
         -0.590290826836843, 21.230051448181193, 15.279233632882423,
         -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    )])
    B = np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
    E3 = np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, -0.4226823213237919,
        -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
    E5 = np.array([
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])


def align_angle(value: float, reference: float) -> float:
    """Shift `value` by an integer multiple of 2 pi to land nearest
    `reference`.  Exact as long as the true continuous change between the
    two samples is below pi.  Scalars only: Python's round (half to even,
    as np.round) keeps a float a float, at a tenth of the cost."""
    return value + TWO_PI * round((reference - value) / TWO_PI)


@dataclass
class Trajectory:
    """A batch of n lanes integrated together, each to its first falling
    crossing of the section.

    Row i of times (k+1, n) and of states (k+1, d, n) holds every lane's
    time and state after the i-th batch step; a lane that retries a
    rejected step or has stopped repeats its last ones.  landing_t (n,)
    and landing_y (d, n) hold each lane's one landing on the section, NaN
    where it has none; drift each lane's largest
    |f(y) - f(y0)| / (1 + |f(y0)|) of the invariant f over its accepted
    steps, and errors the FlowError that stopped each lane, or None.
    """
    times: np.ndarray
    states: np.ndarray
    landing_t: np.ndarray
    landing_y: np.ndarray
    drift: np.ndarray
    errors: list


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=0) / x.shape[0])


def _initial_step(field, y, f, t_bound, rtol, atol) -> np.ndarray:
    """solve_ivp's starting step from t = 0 (Hairer-Norsett-Wanner II.4)."""
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = np.minimum(h0, t_bound)
    f1 = np.asarray(field(y + h0 * f), dtype=float)
    d2 = _rms((f1 - f) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    dmax = np.where(flat, 1.0, np.maximum(d1, d2))
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / dmax) ** (1.0 / (DOP853.error_estimator_order + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), t_bound)


def _lanes(mask, *arrays):
    """The lanes selected by mask, from arrays indexed by lane last: one
    flatnonzero and a take per array, a[..., mask] at a fraction of the cost.
    """
    i = np.flatnonzero(mask)
    return tuple(a.take(i, axis=-1) for a in arrays)


def _combine(w: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_s w[..., s] K[s] over the stages K (S, d, m), w one row or
    several.  einsum sums stage by stage within each lane, so a lane's
    arithmetic does not depend on the lanes beside it, as a BLAS product
    (dot, matmul, tensordot) blocked across lanes would."""
    return np.einsum("...s,sdm->...dm", w, K[:w.shape[-1]])


_STAGE_ROWS = [DOP853.A[s, :s] for s in range(1, DOP853.n_stages)]
_ERROR_ROWS = np.stack([DOP853.E5, DOP853.E3])
_ERR_FLOOR = float(np.finfo(float).smallest_subnormal)   # below every err > 0


def _rk_step(field, y, f, h, K):
    """One DOP853 step of every lane; fills the stages K[:13]."""
    K[0] = f
    for s, a in enumerate(_STAGE_ROWS, start=1):
        K[s] = field(y + _combine(a, K) * h)
    y_new = y + h * _combine(DOP853.B, K)
    K[DOP853.n_stages] = field(y_new)
    return y_new


def _error_norm(K, h, scale) -> np.ndarray:
    """DOP853's blended 5th/3rd-order error estimate, one value per lane."""
    err = _combine(_ERROR_ROWS, K) / scale
    e5, e3 = np.add.reduce(err * err, axis=1)
    denom = e5 + 0.01 * e3
    return (np.abs(h) * e5
            / np.sqrt(np.where(denom > 0.0, denom, 1.0) * scale.shape[0]))


def _land(field, rate, t, y, f, g):
    """Henon's step: one DOP853 step of the lanes at (t, y), field values f,
    over -g in their section value g, on the state (y, t) with field
    (f, 1) / rate.  Returns the landing times, states and starting rates."""
    def field_in_g(yt):
        fy = np.asarray(field(yt[:-1]), dtype=float)
        return np.vstack([fy, np.ones_like(yt[-1])]) / rate(yt[:-1], fy)

    r = rate(y, f)
    K = np.empty((DOP853.n_stages + 1, y.shape[0] + 1, y.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yt = _rk_step(field_in_g, np.vstack([y, t]),
                      np.vstack([f, np.ones_like(t)]) / r, -g, K)
    return yt[-1], yt[:-1], r


def integrate_flow(field: Callable[[np.ndarray], np.ndarray],
                   p0: np.ndarray,
                   t_max: float | Sequence[float],
                   invariant: Callable[[np.ndarray], np.ndarray],
                   section: Callable[[np.ndarray], np.ndarray],
                   rate: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   tol: float = FLOW_RTOL) -> Trajectory:
    """Integrate the autonomous `field` from the seeds p0 (d, n), n lanes
    stepped together, with the embedded Dormand-Prince 8(5,3) pair
    (DOP853), whose high order keeps the step count low at the tight
    tolerances the flow oracle runs at, each lane to its first falling
    crossing of the section section(y) = 0, crossed at rate(y, f) = d
    section/dt where the field is f.

    field(y) maps a block of states y (d, m) to an array (d, m), and
    section, rate and the invariant take blocks too: no callable is handed
    a lone state (d,), not even on a batch of one lane.  t_max may hold one
    budget per lane.
    Each lane runs solve_ivp's controller on its own: starting step, error
    norm, SAFETY/MIN/MAX factors, no growth right after a rejection, and
    failure once the step falls below ten ulps of t.  A lane crosses the
    section on an accepted step where section goes from above zero to zero
    or below (so a seed lying on the section is not a crossing), and stops
    there.  After the loop every crossing lands on the section in one call
    of Henon's step (_land) from its step's start.
    Live lanes stay in place: np.where takes each one's new or old state,
    and the arrays are compacted (_lanes) only when lanes stop.  The
    invariant, for each lane's running maximum drift, is evaluated on
    every live state after a batch step that accepts any lane.

    A lane fails with FlowError on step-size underflow (near-singular
    dynamics) or a non-finite step size, when it does not cross the
    section before its t_max, or when its landing fails: a rate that is
    not negative, a non-finite landing, or a landing time outside its
    step.  The error is recorded in Trajectory.errors, the lane has no
    landing, and the other lanes go on.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    y0 = np.array(p0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("p0 must hold one seed per column, shape (d, n)")
    d, n = y0.shape
    t_bound = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    if not np.all((t_bound > 0.0) & np.isfinite(t_bound)):
        raise ValueError("t_max must be positive and finite")

    lane = np.arange(n)
    t = np.zeros(n)
    t_b = t_bound
    y = y0
    f = np.asarray(field(y), dtype=float)
    h_abs = _initial_step(field, y, f, t_bound, tol, FLOW_ATOL)
    rejected = np.zeros(n, dtype=bool)
    v0 = np.asarray(invariant(y0), dtype=float)
    v, dv = v0, np.zeros(n)   # the live lanes' v0 and running drift
    g = np.asarray(section(y), dtype=float)
    crossings = []   # per step: its crossing lanes' ids, t, t_end, y, f, g

    errors: list[FlowError | None] = [None] * n
    drift = np.zeros(n)
    now_t, now_y = t.copy(), y0.copy()
    times, states = [now_t.copy()], [now_y.copy()]

    while lane.size:
        min_step = 10.0 * np.spacing(t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        tiny = ~(h_abs >= min_step)   # NaN too
        if tiny.any():
            for j in np.flatnonzero(tiny):
                errors[lane[j]] = FlowError(
                    f"integration failed near t={t[j]:.6g}: " + (
                        "Required step size is less than spacing between "
                        "numbers. (near-singular dynamics?)"
                        if h_abs[j] < min_step[j] else
                        "non-finite step size (a non-finite seed or field?)"))
            drift[lane] = dv
            lane, t, t_b, y, f, g, v, dv, h_abs, rejected = _lanes(
                ~tiny, lane, t, t_b, y, f, g, v, dv, h_abs, rejected)
            continue
        t_new = np.minimum(t + h_abs, t_b)
        h = t_new - t
        K = np.empty((DOP853.n_stages + 1, d, lane.size))
        y_new = _rk_step(field, y, f, h, K)
        scale = FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err = _error_norm(K, h, scale)
        accept = err < 1.0
        # _ERR_FLOOR stands in for err = 0: such a lane grows by MAX_FACTOR
        raw = SAFETY * (np.maximum(err, _ERR_FLOOR)
                        ** (-1.0 / (DOP853.error_estimator_order + 1)))
        grow = np.minimum(np.where(rejected, 1.0, MAX_FACTOR), raw)
        shrink = np.fmax(MIN_FACTOR, raw)   # fmax: NaN -> MIN
        h_abs = h * np.where(accept, grow, shrink)
        rejected = ~accept
        if not accept.any():
            continue

        # a rejected lane keeps its state
        t_old, y_old, f_old = t, y, f
        t = np.where(accept, t_new, t)
        y = np.where(accept, y_new, y)
        f = np.where(accept, K[DOP853.n_stages], f)
        g_old, g = g, section(y)
        # strict before, so a seed on the section is not a crossing
        hit = accept & (g_old > 0.0) & (g <= 0.0)
        if hit.any():
            crossings.append(_lanes(hit, lane, t_old, t, y_old, f_old, g_old))
        done = hit | (accept & (t_new >= t_b))

        now_t[lane] = t
        now_y[:, lane] = y
        dv = np.maximum(dv, np.abs(invariant(y) - v))
        times.append(now_t.copy())
        states.append(now_y.copy())
        if done.any():
            for i in lane[done & ~hit]:
                errors[i] = FlowError(f"t_max={t_bound[i]:.6g} exceeded with "
                                      "0/1 section crossings")
            drift[lane] = dv
            lane, t, t_b, y, f, g, v, dv, h_abs, rejected = _lanes(
                ~done, lane, t, t_b, y, f, g, v, dv, h_abs, rejected)

    landing_t, landing_y = np.full(n, np.nan), np.full((d, n), np.nan)
    if crossings:
        ids, t_old, t_end, y_old, f_old, g_old = (
            np.concatenate(a, axis=-1) for a in zip(*crossings))
        t_at, y_at, r = _land(field, rate, t_old, y_old, f_old, g_old)
        ok = ((r < 0.0) & np.isfinite(y_at).all(axis=0)
              & (t_old <= t_at) & (t_at <= t_end))
        landing_t[ids[ok]], landing_y[:, ids[ok]] = t_at[ok], y_at[:, ok]
        for q in np.flatnonzero(~ok):
            errors[ids[q]] = FlowError(
                f"no landing on the section from t={t_old[q]:.6g}: "
                f"rate {r[q]:.3g}, landing time {t_at[q]:.6g}")

    return Trajectory(times=np.array(times), states=np.array(states),
                      landing_t=landing_t, landing_y=landing_y,
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


def find_root_bracketed(bracket: tuple[float, float],
                        f_ends: tuple[float, float]):
    """Brent's method as a generator, given the values f_ends of f at the
    bracket ends: it yields each iterate x, is sent f(x), and returns the
    root and f there, so that roots can step in lockstep.  The root never
    leaves the bracket.  A port of scipy's brentq.c, line for line, at xtol
    ROOT_XTOL and rtol 8 eps: its iterates and root are brentq's, bit for
    bit, but it does not evaluate f at the ends again.  Raises BracketError
    on an invalid bracket and where brentq raises: f(a), f(b) of one sign,
    a NaN, or no convergence in BRENT_MAX_ITER steps."""
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
        fcur = yield xcur
        if math.isnan(fcur):
            raise BracketError(f"f({xcur})=NaN")
    raise BracketError(f"Brent's method did not converge in "
                       f"{BRENT_MAX_ITER} iterations")


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
