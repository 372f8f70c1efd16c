"""Period lattice data of regular tori.

Two independent engines produce the first-return time T of the Hamiltonian
flow to the reduced section and the continuous azimuth advance Theta over
one return:

* quadrature (the primary engine): the reduced-profile integrals
  T = 2 int dr / sqrt(P) and Theta = 2 int a(r) / sqrt(P) dr over the
  reduced orbit, in closed form.  Both profiles are cubics, so these are
  complete elliptic integrals of the first and third kind, evaluated with
  Bulirsch's cel by one array body for every system
  (period_rotation_array), accurate to rounding (checked against mpmath);
  the engine keeps its historical name.  Every caller evaluates its tori
  in one call (_tori), which names each rejected torus by its reason; on
  complex (h, l) it gives T, Theta and their derivatives by a complex
  step (derivatives);
* flow (the independent oracle): direct integration of the Cartesian
  vector field over half a return, the azimuth advance read from the
  positions, not integrated (_tori_flow).  Both systems are reversible:
  a reversor R (a reflection, with t -> -t) keeps H and L and fixes each
  turning-point state, so the orbit from one turning point to the other
  takes exactly T/2 and turns by Theta/2 (Lamb and Roberts, Physica D
  112 (1998) 1-39).  The seeds of a batch, turning-point states, come
  from one solve of its cubics (the system's flow_start).  Each seed runs
  one leg, to its first falling crossing of the system's section, and the
  legs make half a return together: the champagne bottle's one leg runs from
  r_lo to r_hi, the pendulum's two from z2 and from z1 to the equator.
  A batch of tori of one system runs as one batched DOP853 integration
  (integrate_flow) of the system's array-valued field, each leg a lane
  with its own step control and the energy drift the kernel tracks over
  its steps; after the loop all crossings of the batch land on the
  section in one Henon step at the rate the system gives
  (flow_section_rate).  A failing leg fails only its own torus.

cross_checks compares the two engines' arrays to CROSS_TOL on a batch of
tori that sample_cross_tori draws, as flat arrays, from the flow oracle's
per-system |j| range at every arg zeta (CROSS_DOMAINS), each engine in
one call; cross_check and reduced_period_rotation are its one-torus cases.

Conversion to the lattice basis uses the linear momentum chart at the
origin (systems.to_momentum_chart; Phi1 ~ alpha, Phi2 ~ omega; the
deviation of the true chart from linear is smooth and is absorbed by the
asymptotic fits):

    tau1 = alpha T,   tau2 = omega T - Theta,
    (tau1, tau2) and (0, 2 pi) span the period lattice.

Branch convention: the raw per-torus Theta (pi sign(l) per pole passage
on the l = 0 axis, -0.0 taking the minus sign) is the principal value.
transport carries Theta continuously along paths of tori, the last axis
of its arrays: the first torus of a path keeps its raw value, each next
one moves to the sheet nearest its predecessor, and the sheet offset from
the raw value is recorded as branch.  Every path in the package (sweep
rows, grid rows, monodromy loops) goes through it, all the paths of a
grid or an annulus sweep in one call, with one wrap guard,
MAX_BRANCH_STEP.  A single torus can be aligned to a reference Theta
instead (period_lattice).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, CrossEngineMismatch, FitError, FlowError
from .numerics import (EPS, QUAD_REL_TOL, T_BUDGET_FACTOR,
                       TWO_PI, align_angle, integrate_flow)
from .systems import (EMValue, MomentumValue, SystemDefinition,
                      eval_constants, from_momentum_chart, polar)

CROSS_TOL = 1e-7
# flow-oracle sample domain per system, a |j| range over the whole circle
# of arg zeta: the floor bounds the oracle's steps, which grow with the
# period, as -ln|j|, and past 0.12 the bottle's image boundary cuts the |j|
# disc
CROSS_DOMAINS = {"champagne": (1e-4, 0.12), "pendulum": (1e-3, 0.1)}
# tightest accuracy request the closed form is verified to meet against
# mpmath (relative in T, absolute in Theta)
CLOSED_FORM_REL_TOL = 1e-13
ENERGY_DRIFT_TOL = 1e-10
# the window, times sign(l), of a flow step's azimuth turn in the turning
# frame: the true turn is >= 0, and one read on [-pi/2, 3pi/2) outside it
# leaves the leg's turn count in doubt
TURN_GUARD = (-0.25 * math.pi, 1.25 * math.pi)
# the complex step of derivatives: far below the scale of any torus, so its
# square vanishes beside every real part
STEP = 1e-30
# largest aligned Theta step transport accepts between neighbouring tori.
# An aligned step reads at most pi, so a true step in (pi, 1.5 pi) shows as
# one above 0.5 pi: the guard catches under-resolved paths before they wrap.
MAX_BRANCH_STEP = 0.5 * math.pi
# polar rows start just past the positive-j1 reference ray, where the raw
# Theta is the principal value, so no row crosses the principal cut
RAY_OFFSET = 1e-3
# sweeps _lstsq's Jacobi rotations may take; C3's designs take two or three
JACOBI_SWEEPS = 30


@dataclass(frozen=True)
class PeriodLatticeSample:
    """(T, Theta) of one torus plus the derived lattice basis entries."""
    T: float
    theta: float
    tau1: float
    tau2: float
    branch: int


def _tori(system: SystemDefinition, h: np.ndarray, l: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(T, Theta, ok, failed) of the tori (h, l), flat arrays, real or
    complex, from one call of the system's array closed form: ok marks the
    lanes in the window (real parts) that it accepted.  The others hold
    NaN, and failed maps each of their indices to the FocusFocusError that
    names its reason (systems.REJECTIONS), at the lane's real parts."""
    T, theta = (np.full(h.shape, np.nan, dtype=h.dtype) for _ in range(2))
    reason = system.window(h, l)[1]
    i = np.flatnonzero(reason == 0)
    T[i], theta[i], reason[i] = system.period_rotation_array(h[i], l[i])
    return T, theta, reason == 0, _failed(system, h, l, reason)


def _failed(system: SystemDefinition, h, l, reason) -> dict:
    """Index -> the FocusFocusError of each torus (h, l) with a reason."""
    return {k: system.rejection(int(reason[k]), float(h[k].real),
                                float(l[k].real))
            for k in np.flatnonzero(reason).tolist()}


def derivatives(system: SystemDefinition, h, l, dh, dl
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                           dict]:
    """(T, Theta, dT, dTheta, failed): the values of T and Theta at the tori
    (h, l) and their derivatives along (dh, dl), all four broadcast
    together and flattened, from one complex call of the array closed form.
    Each lane runs at (h + i STEP dh, l + i STEP dl): its real parts are the
    values, equal to the real lanes' to rounding, and Im/STEP is the
    derivative to rounding, with no difference taken and no step to tune
    (Squire and Trapp, SIAM Rev. 40 (1998) 110-112), whatever Theta's
    sheet; at l = +-0.0, the limit from l's side.  Theta's pole part is
    split off in closed form, so no accuracy is lost near the l = 0 axis.
    A lane outside the window or rejected by the array form holds NaN, and
    failed maps its index to the FocusFocusError that names its failure
    (_tori)."""
    h, l, dh, dl = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (h, l, dh, dl))))
    l_step = l + 1j * STEP * dl
    l_step.real = l   # -0.0 + 0.0 would be +0.0, the other torus
    T, theta, ok, failed = _tori(system, h + 1j * STEP * dh, l_step)
    return (T.real, theta.real, np.where(ok, T.imag / STEP, np.nan),
            np.where(ok, theta.imag / STEP, np.nan), failed)


def _frame_turns(states: np.ndarray, times: np.ndarray, rate: float,
                 sign: np.ndarray) -> np.ndarray:
    """The azimuth turn of each lane over each batch step, (k, n), from
    its states (k+1, d, n) and times (k+1, n): in the frame turning at
    rate, the atan2 step of the position (x, y) less rate dt, read on
    sign [-pi/2, 3pi/2) with sign = +-1 the lane's sign of l."""
    phi = np.arctan2(states[:, 1], states[:, 0])
    turn = sign * (np.diff(phi, axis=0) - rate * np.diff(times, axis=0))
    return sign * ((turn + 0.5 * math.pi) % TWO_PI - 0.5 * math.pi)


def _tori_flow(system: SystemDefinition, h: np.ndarray, l: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict, dict]:
    """_tori's (T, Theta, ok, failed) of the tori (h, l), flat real arrays,
    from one batched flow integration at the system's flow_rtol, and its
    stats: flow_steps, its batch steps, and max_energy_drift, the largest
    energy drift of its lanes.  The seeds of all tori in the window come
    from one flow_start call, each seed a lane: a leg from a turning point
    to the section, its time budget set by the torus's |j| (window).  A
    torus's legs make half a return, so T = 2 sum t and Theta = 2 sum dphi
    over them, and the error of its first failing leg fails it.

    The state holds no azimuth.  A seed's is 0, so a leg's dphi is the
    landing's atan2 plus the 2 pi multiple that the accepted steps fix:
    in the frame turning at the system's frame_rate the azimuth
    obeys psi' = l/r^2 (L is conserved), so it turns monotonically with
    the sign of l.  Each step's turn (_frame_turns) must lie in sign(l)
    TURN_GUARD, or the leg fails with FlowError rather than guess a turn;
    the landing's partial step is read on [-pi, pi].  dphi is rate t
    plus the summed turns, taken to the sheet of the landing's atan2."""
    ff = eval_constants(system)
    r, reason = system.window(h, l)
    inside = np.flatnonzero(reason == 0)
    lane, seeds, reason[inside] = system.flow_start(h[inside], l[inside])
    failed = _failed(system, h, l, reason)
    T, theta = (np.full(h.shape, np.nan) for _ in range(2))
    if not lane.size:
        return T, theta, reason == 0, failed, {"flow_steps": 0,
                                               "max_energy_drift": 0.0}
    legs = seeds.shape[-1]
    owner = np.repeat(inside[lane], legs).tolist()
    budgets = [T_BUDGET_FACTOR * (1.0 + abs(math.log(r[i]))) / ff.alpha
               for i in owner]
    traj = integrate_flow(system.flow_field,
                          seeds.reshape(seeds.shape[0], -1),
                          t_max=np.array(budgets),
                          invariant=system.flow_hamiltonian,
                          section=system.flow_section_value,
                          rate=system.flow_section_rate, tol=system.flow_rtol)
    rate = system.frame_rate
    sign = np.where(np.signbit(l[owner]), -1.0, 1.0)
    turns = _frame_turns(traj.states, traj.times, rate, sign)
    lo, hi = TURN_GUARD
    outside = ((sign * turns < lo) | (sign * turns > hi)).any(axis=0)
    t_end, psi_end = traj.times[-1], turns.sum(axis=0)
    phi_end = np.arctan2(traj.states[-1, 1], traj.states[-1, 0])
    t_leg, dphi = np.full((2, len(owner)), np.nan)

    def at(i):
        return f"(h, l)=({h[i]:.4g}, {l[i]:.4g})"

    for k, i in enumerate(owner):
        if i in failed:
            continue
        if traj.errors[k] is not None:
            failed[i] = traj.errors[k]
        elif traj.drift[k] > ENERGY_DRIFT_TOL:
            failed[i] = FlowError(f"energy drift {traj.drift[k]:.2e} above "
                                  f"{ENERGY_DRIFT_TOL:.0e} at {at(i)}")
        elif outside[k]:
            failed[i] = FlowError(
                f"an azimuth step at {at(i)} turns outside sign(l) "
                f"[{lo / math.pi:g} pi, {hi / math.pi:g} pi]: its turn count"
                " is unknown")
        else:
            t, s = float(traj.landing_t[k]), traj.landing_y[:, k]
            phi = math.atan2(s[1], s[0])
            psi = psi_end[k] + math.remainder(
                phi - phi_end[k] - rate * (t - t_end[k]), TWO_PI)
            t_leg[k] = t
            dphi[k] = phi + TWO_PI * round((rate * t + psi - phi) / TWO_PI)
    # a failed leg's NaN, and only that, makes its torus's sums NaN
    T[inside[lane]], theta[inside[lane]] = (
        (2.0 * x).reshape(-1, legs).sum(axis=1) for x in (t_leg, dphi))
    return T, theta, ~np.isnan(T), failed, {
        "flow_steps": len(traj.times) - 1,
        "max_energy_drift": float(traj.drift.max())}


def reduced_period_rotation(system: SystemDefinition, c: EMValue,
                            engine: str = "quadrature",
                            rel_tol: float = QUAD_REL_TOL
                            ) -> tuple[float, float]:
    """First-return time and continuous azimuth advance of one torus: the
    one-torus case of _tori (quadrature, ~0.4 ms, ~1 us a torus in a
    batch) and of _tori_flow (flow), which no engine calls; the tracer
    under perfbench/ wraps it and reads its engine and rel_tol.

    Both engines report the same branch convention: the honest per-torus
    Theta, with pole passages on the l = 0 axis counted as pi sign(l) each
    (the l -> 0+ limit at l = +0.0, the l -> 0- limit at l = -0.0).

    rel_tol is the accuracy requested of the quadrature engine.  Its
    closed form meets any request down to CLOSED_FORM_REL_TOL = 1e-13; a
    tighter one raises ValueError rather than being silently ignored.
    """
    if engine == "quadrature" and rel_tol < CLOSED_FORM_REL_TOL:
        raise ValueError(f"rel_tol={rel_tol:.1e} is below the closed form's "
                         f"verified accuracy {CLOSED_FORM_REL_TOL:.0e}")
    tori = {"quadrature": _tori, "flow": _tori_flow}
    if engine not in tori:
        raise ValueError(f"unknown engine {engine!r}")
    T, theta, _, failed, *_ = tori[engine](
        system, *np.array([[c.h], [c.l]], dtype=float))
    if failed:
        raise failed[0]
    return float(T[0]), float(theta[0])


def sample_cross_tori(system: SystemDefinition, rng: random.Random, n: int,
                      window: tuple[float, float] | None = None
                      ) -> EMValue:
    """n tori, flat arrays h and l, drawn by rng, the standard library's
    generator, from the system's cross-check domain (CROSS_DOMAINS),
    optionally narrowed to a |j| window, one torus at a time: a log-uniform
    |j|, then a uniform arg zeta."""
    r_lo, r_hi = CROSS_DOMAINS[system.name]
    if window is not None:
        r_lo, r_hi = max(r_lo, window[0]), min(r_hi, window[1])
        if not r_lo < r_hi:
            raise ValueError(f"window {list(window)} misses the "
                             f"{system.name} cross-check |j| range "
                             f"{list(CROSS_DOMAINS[system.name])}")
    j = np.empty((2, n))
    for k in range(n):
        rho = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        th = rng.uniform(0.0, TWO_PI)
        j[:, k] = rho * math.cos(th), rho * math.sin(th)
    return from_momentum_chart(system, MomentumValue(*j))


def cross_checks(system: SystemDefinition, h: np.ndarray, l: np.ndarray,
                 cross_tol: float = CROSS_TOL
                 ) -> tuple[dict, np.ndarray, dict, dict]:
    """Both engines on the tori (h, l), flat real arrays, one call each:
    the columns T_quad, T_flow, theta_quad, theta_flow, rel_dT and
    rel_dtheta (see cross_check), NaN where a torus failed; ok and failed
    as _tori's, a torus failing with its quadrature error, else its flow
    error, else CrossEngineMismatch beyond cross_tol; and the flow stats."""
    T_f, th_f, _, failed, stats = _tori_flow(system, h, l)
    T_q, th_q, _, failed_q = _tori(system, h, l)
    failed.update(failed_q)
    dT = np.abs(T_q - T_f) / T_q
    dth = np.abs(th_q - th_f) / np.maximum(1.0, np.abs(th_q))
    for k in np.flatnonzero((dT > cross_tol) | (dth > cross_tol)).tolist():
        failed[k] = CrossEngineMismatch(
            f"engines disagree at (h, l)=({h[k]:.6g}, {l[k]:.6g}): "
            f"dT/T={dT[k]:.2e}, dTheta={dth[k]:.2e} (tol {cross_tol:.0e})")
    ok = (dT <= cross_tol) & (dth <= cross_tol)   # False at a NaN
    columns = {"T_quad": T_q, "T_flow": T_f, "theta_quad": th_q,
               "theta_flow": th_f, "rel_dT": dT, "rel_dtheta": dth}
    return ({name: np.where(ok, x, np.nan) for name, x in columns.items()},
            ok, failed, stats)


def cross_check(system: SystemDefinition, c: EMValue,
                cross_tol: float = CROSS_TOL) -> dict:
    """Run both engines; raise CrossEngineMismatch beyond cross_tol.

    Returns the measured discrepancies.  T is compared relatively, Theta
    absolutely with a relative floor (|Theta| can pass through 0).
    """
    columns, _, failed, _ = cross_checks(
        system, *np.array([[c.h], [c.l]], dtype=float), cross_tol)
    if failed:
        raise failed[0]
    return {name: float(x[0]) for name, x in columns.items()}


def period_lattice(system: SystemDefinition, c: EMValue,
                   theta_ref: float | None = None) -> PeriodLatticeSample:
    """Lattice sample at c.  With theta_ref given, Theta is moved to the
    sheet nearest that reference (the true change must stay below half a
    branch width); otherwise the raw principal value is returned.  branch
    is the sheet offset from the raw value, in units of 2 pi."""
    T, theta_raw = reduced_period_rotation(system, c)
    theta = theta_raw
    if theta_ref is not None:
        theta = align_angle(theta_raw, theta_ref)
    ff = eval_constants(system)
    return PeriodLatticeSample(
        T=T, theta=theta, tau1=ff.alpha * T, tau2=ff.omega * T - theta,
        branch=int(round((theta - theta_raw) / TWO_PI)))


def transport(system: SystemDefinition, h, l
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Theta carried continuously along paths of tori.

    h and l are arrays of one shape whose last axis runs along a path (a
    1-D array is one path).  All tori are evaluated in one array call
    (_tori).  Along each path the first torus that evaluates keeps its raw
    principal Theta (branch 0); each next one moves to the sheet nearest
    its predecessor, so branch is the cumulative sum of the rounded raw
    steps.  Returns T, the carried Theta and branch in h's shape, NaN, NaN
    and 0 where a torus failed, and failed: flat index -> the
    FocusFocusError that names its failure.  A failed torus is skipped as
    a reference.  An aligned step above MAX_BRANCH_STEP raises the error
    of the first failed torus it spans, or BranchError where it spans
    none: the path is too coarse to tell its sheet.
    """
    h, l = np.asarray(h, dtype=float), np.asarray(l, dtype=float)
    T_all, raw, ok, failed = _tori(system, h.ravel(), l.ravel())
    live, raw = np.flatnonzero(ok), raw[ok]
    n = h.shape[-1]
    # live tori in path order; the first of each path anchors it
    first = np.diff(live // n, prepend=-1) != 0
    steps = np.where(first[1:], 0.0, np.round(-np.diff(raw) / TWO_PI))
    cum = np.concatenate(([0.0], np.cumsum(steps)))[:live.size]
    anchor = np.maximum.accumulate(np.where(first, np.arange(live.size), 0))
    branch = (cum - cum[anchor]).astype(int)
    theta = raw + TWO_PI * branch
    jumps = np.abs(np.diff(theta))
    over = np.flatnonzero((jumps > MAX_BRANCH_STEP) & ~first[1:])
    if over.size:
        k = over[0]
        i = int(live[k + 1])
        if i - live[k] > 1:   # the step spans failed tori: name the first
            raise failed[int(live[k]) + 1]
        raise BranchError(f"aligned Theta step {jumps[k] / math.pi:.4f} pi "
                          f"above {MAX_BRANCH_STEP / math.pi:.1f} pi at path "
                          f"point {i % n}, (h, l)=("
                          f"{float(h.flat[i]):.4g}, {float(l.flat[i]):.4g}): "
                          "refine the path")
    T, carried = np.full((2, *h.shape), np.nan)
    sheet = np.zeros(h.shape, dtype=int)
    T.flat[live], carried.flat[live] = T_all[ok], theta
    sheet.flat[live] = branch
    return T, carried, sheet, failed


@dataclass(frozen=True)
class PolarTori:
    """Tori on constant-|j| rows of the momentum chart, carried along each
    row by transport: arrays of one shape, one row per radius.  arg is
    the polar angle of each chart point (j1, j2) = rho (cos arg, sin arg),
    (h, l) its torus, T, theta and branch as transport gives them, and
    tau1 = alpha T, tau2 = omega T - theta."""
    arg: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    h: np.ndarray
    l: np.ndarray
    T: np.ndarray
    theta: np.ndarray
    branch: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray


def polar_tori(system: SystemDefinition, radii, angles) -> PolarTori:
    """The tori at |j| = radii (rows) and arg zeta = angles (along each
    row), all in one transport call.  A failed torus or a BranchError
    fails them all, the first failed torus in row order."""
    j = polar(radii, angles)
    c = from_momentum_chart(system, j)
    T, theta, branch, failed = transport(system, c.h, c.l)
    if failed:
        raise failed[min(failed)]
    ff = eval_constants(system)
    return PolarTori(arg=np.broadcast_to(angles, T.shape), j1=j.j1, j2=j.j2,
                     h=c.h, l=c.l, T=T, theta=theta, branch=branch,
                     tau1=ff.alpha * T, tau2=ff.omega * T - theta)


def annulus_sweep(system: SystemDefinition, r_in: float, r_out: float,
                  n_r: int, n_theta: int) -> PolarTori:
    """Branch-consistent tori on a log-radial polar grid.

    Each constant-radius row starts at RAY_OFFSET past the positive-j1
    reference ray and is transported counterclockwise.  All rows therefore
    live on one common sheet and the sample set is fit-ready.
    """
    if not (0.0 < r_in < r_out):
        raise ValueError("need 0 < r_in < r_out")
    return polar_tori(system, np.geomspace(r_in, r_out, n_r),
                      RAY_OFFSET + TWO_PI * np.arange(n_theta) / n_theta)


@dataclass(frozen=True)
class AsymptoticModel:
    """Fitted leading behavior near the origin.

    tau1 ~ log_coeff_tau1 * (-ln|j|) + sigma1_0 + <linear in j>
    tau2 ~ log_coeff_tau2 * arg(zeta) + (sigma2_0 - pi) + <linear in j>
    """
    log_coeff_tau1: float
    log_coeff_tau2: float
    sigma1_0: float
    sigma2_0: float
    residual_tau1: float
    residual_tau2: float


def _lstsq(X: np.ndarray, y: np.ndarray
           ) -> tuple[np.ndarray, float, float]:
    """(coefficients, cond(X^T X), rms residual) of the least-squares fit
    X coef ~ y, on numpy's core alone.  One-sided Jacobi (Hestenes): plane
    rotations V turn the columns of X into orthogonal columns a_k of X V,
    so X = U diag(s) V^T with s_k = |a_k|; then coef = V (a_k . y / s_k^2)
    and cond(X^T X) = (max s / min s)^2.  A pair of columns counts as
    orthogonal once |a_p . a_q| <= sqrt(n) EPS |a_p| |a_q|."""
    cols = list(X.T.copy())
    m = len(cols)
    tol = math.sqrt(len(X)) * EPS
    V = [[float(i == k) for k in range(m)] for i in range(m)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                a, b = cols[p], cols[q]
                aa, bb = float((a * a).sum()), float((b * b).sum())
                ab = float((a * b).sum())
                # false on a NaN or infinite column too: the gate fails it
                if not abs(ab) > tol * math.sqrt(aa) * math.sqrt(bb):
                    continue
                rotated = True
                zeta = (bb - aa) / (2.0 * ab)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                cols[p], cols[q] = c * a - s * b, s * a + c * b
                for row in V:
                    row[p], row[q] = (c * row[p] - s * row[q],
                                      s * row[p] + c * row[q])
        if not rotated:
            break
    else:
        raise FitError(f"Jacobi SVD of the design matrix did not converge "
                       f"in {JACOBI_SWEEPS} sweeps")
    s2 = np.array([(a * a).sum() for a in cols])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(s2.max() / s2.min())
    if not math.isfinite(cond) or cond > 1e12:
        raise FitError(f"design matrix ill-conditioned (cond={cond:.2e}); "
                       "annulus too thin?")
    w = [float((a * y).sum()) / sk for a, sk in zip(cols, s2.tolist())]
    coef = np.array([sum(v * wk for v, wk in zip(row, w)) for row in V])
    resid = float(np.sqrt(np.mean(((X * coef).sum(axis=1) - y) ** 2)))
    return coef, cond, resid


def fit_asymptotic_model(samples: PolarTori) -> AsymptoticModel:
    """Least-squares fit of the logarithmic singularity plus smooth linear
    remainders.  Requires branch-consistent samples covering >= 8 angular
    sectors of an annulus (annulus_sweep provides them)."""
    j1, j2 = samples.j1.ravel(), samples.j2.ravel()
    if j1.size < 12:
        raise FitError(f"need >= 12 samples, got {j1.size}")
    sector = samples.arg % TWO_PI // (TWO_PI / 8)
    sectors = len(set(sector.ravel().tolist()))   # unique() loads numpy.ma
    if sectors < 8:
        raise FitError(f"samples cover only {sectors}/8 angular sectors")

    rho = np.hypot(j1, j2)
    lnrho = np.log(rho)
    if lnrho.max() - lnrho.min() < 0.5:
        raise FitError("annulus too thin: radial span "
                       f"{lnrho.max() - lnrho.min():.2f} < 0.5 ln units; the "
                       "log coefficient cannot be separated from the "
                       "constant")
    th = samples.arg.ravel()
    tau1, tau2 = samples.tau1.ravel(), samples.tau2.ravel()

    ones = np.ones_like(rho)
    X1 = np.column_stack([-np.log(rho), ones, j1, j2])
    c1, _, r1 = _lstsq(X1, tau1)
    X2 = np.column_stack([th, ones, j1, j2])
    c2, _, r2 = _lstsq(X2, tau2)
    return AsymptoticModel(
        log_coeff_tau1=float(c1[0]), log_coeff_tau2=float(c2[0]),
        sigma1_0=float(c1[1]), sigma2_0=float(c2[1] + math.pi),
        residual_tau1=r1, residual_tau2=r2)
