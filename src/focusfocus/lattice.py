"""Period lattice data of regular tori.

Two independent engines produce the first-return time T of the Hamiltonian
flow to the reduced section and the continuous azimuth advance Theta over
one return:

* quadrature (the primary engine): the reduced-profile integrals
  T = 2 int dr / sqrt(P) and Theta = 2 int a(r) / sqrt(P) dr over the
  reduced orbit, in closed form.  Both profiles are cubics, so these are
  complete elliptic integrals of the first and third kind, which each
  system evaluates with Bulirsch's cel (period_rotation).  One
  torus costs a few microseconds and is accurate to rounding (checked
  against mpmath); the engine keeps its historical name.  A path, a grid,
  an annulus sweep and the stencils of a twistless scan
  (twist.twist_scan) evaluate their tori in one array call
  (_tori_quadrature, the systems' period_rotation_array), bit-identical
  to the one-torus reduced_period_rotation.  That scalar form takes the
  lanes the array form rejects (fill_rejected), and the scalar stencils
  (twist.twist at Brent's iterates, kolmogorov) call it directly;
* flow (the independent oracle): direct integration of the full vector
  field from a torus seed, with the azimuth unwrapped as an extra state
  component.  A batch of tori of one system runs as one batched DOP853
  integration (integrate_flow), each torus a lane with its own step
  control, its second falling crossing of the section, landed on it by
  Henon's step at the rate the system gives (flow_section_rate), and the
  energy drift the kernel tracks over its steps; a failing torus stops
  only its own lane.

cross_checks runs both engines on a batch of tori drawn by
sample_cross_tori from the flow oracle's per-system domain (CROSS_DOMAINS)
and compares them to CROSS_TOL; cross_check and the "flow" engine of
reduced_period_rotation are its one-torus cases.

Conversion to the lattice basis uses the linear momentum chart at the
origin (systems.to_momentum_chart; Phi1 ~ alpha, Phi2 ~ omega; the
deviation of the true chart from linear is smooth and is absorbed by the
asymptotic fits):

    tau1 = alpha T,   tau2 = omega T - Theta,
    (tau1, tau2) and (0, 2 pi) span the period lattice.

Branch convention: the raw per-torus Theta (with the +pi convention on the
l = 0 axis) is the principal value.  transport carries Theta continuously
along a path of tori: the first torus keeps its raw value, each next one
moves to the sheet nearest its predecessor, and the sheet offset from the
raw value is recorded as branch.  Every path in the package (sweep rows,
grid rows, monodromy loops, rotation-number arcs) goes through it: a path
is evaluated in one array call, a grid (rotation.rotation_grid) or an
annulus sweep in one call for all its rows, and each path or row is then
carried by carry_branch, with one wrap guard, MAX_BRANCH_STEP.
Finite-difference stencils align each point to the stencil centre instead
(period_lattice with theta_ref; twist.twist_scan as align_angle, on arrays).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchError, CrossEngineMismatch, FitError, FlowError,
                     FocusFocusError)
from .numerics import (EventSpec, QUAD_REL_TOL, T_BUDGET_FACTOR, TWO_PI,
                       align_angle, integrate_flow)
from .systems import (EMValue, MomentumValue, SystemDefinition,
                      from_momentum_chart, to_momentum_chart)

CROSS_TOL = 1e-7
# flow-oracle sample domain per system: |j| range, and the |sin arg zeta|
# margin that keeps seeds off the coordinate seams the flow charts cannot
# resolve (azimuth spike at near-axis passages)
CROSS_DOMAINS = {"champagne": (1e-4, 0.12, 0.05),
                 "pendulum": (1e-3, 0.1, 0.1)}
# tightest accuracy request the closed form is verified to meet against
# mpmath (relative in T, absolute in Theta)
CLOSED_FORM_REL_TOL = 1e-13
ENERGY_DRIFT_TOL = 1e-10
# largest aligned Theta step transport accepts between neighbouring tori.
# An aligned step reads at most pi, so a true step in (pi, 1.5 pi) shows as
# one above 0.5 pi: the guard catches under-resolved paths before they wrap.
MAX_BRANCH_STEP = 0.5 * math.pi
# polar rows start just past the positive-j1 reference ray, where the raw
# Theta is the principal value, so no row crosses the principal cut
RAY_OFFSET = 1e-3


@dataclass(frozen=True)
class PeriodLatticeSample:
    """(T, Theta) of one torus plus the derived lattice basis entries."""
    T: float
    theta: float
    tau1: float
    tau2: float
    branch: int

    @property
    def rotation_number(self) -> float:
        return self.theta / TWO_PI


def _tori_quadrature(system: SystemDefinition, h: np.ndarray, l: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature-engine (T, Theta, ok) of the tori (h, l), arrays, from one
    call of the system's array closed form.  ok marks the lanes inside the
    window that the array form accepted; each equals reduced_period_rotation
    to the last bit.  The others hold NaN, left to that scalar call."""
    T, theta = np.full(h.shape, np.nan), np.full(h.shape, np.nan)
    r = system.window_radius(h, l)
    ok = ~((r < system.j_floor) | (r > system.j_cap))   # as check_window
    i = np.flatnonzero(ok)
    if i.size:
        T[i], theta[i], ok[i] = system.period_rotation_array(h[i], l[i])
    return T, theta, ok


def _tori_flow(system: SystemDefinition, cs: list[EMValue]) -> list:
    """Flow-engine (T, Theta) of each torus in cs, or the FocusFocusError
    that stopped it, from one batched integration at the system's
    flow_rtol."""
    ff = system.constants()
    out: list = [None] * len(cs)
    lanes, seeds, levels, budgets = [], [], [], []
    for i, c in enumerate(cs):
        try:
            system.check_window(c)
            seed, level = system.flow_seed(c), system.flow_section_level(c)
        except FocusFocusError as exc:
            out[i] = exc
            continue
        seeds.append(seed)
        levels.append(level)
        j = to_momentum_chart(system, c)
        budgets.append(T_BUDGET_FACTOR * (1.0 + abs(math.log(j.modulus)))
                       / ff.alpha)
        lanes.append(i)
    if not lanes:
        return out
    section = EventSpec(system.flow_section_value, system.flow_section_rate,
                        -1.0, count=2, level=np.array(levels))
    traj = integrate_flow(system.flow_field, np.column_stack(seeds),
                          t_max=np.array(budgets),
                          invariant=system.flow_hamiltonian, section=section,
                          tol=system.flow_rtol)
    k = system.flow_angle_index
    for lane, i in enumerate(lanes):
        c = cs[i]
        if traj.errors[lane] is not None:
            out[i] = traj.errors[lane]
        elif traj.drift[lane] > ENERGY_DRIFT_TOL:
            out[i] = FlowError(f"energy drift {traj.drift[lane]:.2e} above "
                               f"{ENERGY_DRIFT_TOL:.0e} at (h, l)="
                               f"({c.h:.4g}, {c.l:.4g})")
        else:
            (t1, s1), (t2, s2) = traj.event_records[lane]
            out[i] = (t2 - t1, float(s2[k] - s1[k]))
    return out


def raise_failed(result):
    """result itself, or raised if it is the FocusFocusError that failed a
    torus (the per-torus entries of cross_checks and transport)."""
    if isinstance(result, FocusFocusError):
        raise result
    return result


def reduced_period_rotation(system: SystemDefinition, c: EMValue,
                            engine: str = "quadrature",
                            rel_tol: float = QUAD_REL_TOL
                            ) -> tuple[float, float]:
    """First-return time and continuous azimuth advance of one torus.

    Both engines report the same branch convention: the honest per-torus
    Theta, with pole passages on the l = 0 axis counted as +pi each (the
    l -> 0+ limit).

    rel_tol is the accuracy requested of the quadrature engine.  Its
    closed form meets any request down to CLOSED_FORM_REL_TOL = 1e-13; a
    tighter one raises ValueError rather than being silently ignored.
    """
    if engine == "quadrature" and rel_tol < CLOSED_FORM_REL_TOL:
        raise ValueError(f"rel_tol={rel_tol:.1e} is below the closed form's "
                         f"verified accuracy {CLOSED_FORM_REL_TOL:.0e}")
    system.check_window(c)
    if engine == "quadrature":
        return system.period_rotation(c)
    if engine == "flow":
        return raise_failed(_tori_flow(system, [c])[0])
    raise ValueError(f"unknown engine {engine!r}")


def sample_cross_tori(system: SystemDefinition, rng: np.random.Generator,
                      n: int, window: tuple[float, float] | None = None
                      ) -> list[EMValue]:
    """n tori drawn from the system's cross-check domain (CROSS_DOMAINS),
    optionally narrowed to a |j| window: log-uniform |j|, uniform arg
    zeta, rejecting angles within the |sin| margin of the l = 0 axis."""
    r_lo, r_hi, margin = CROSS_DOMAINS[system.name]
    if window is not None:
        r_lo, r_hi = max(r_lo, window[0]), min(r_hi, window[1])
        if not r_lo < r_hi:
            raise ValueError(f"window {list(window)} misses the "
                             f"{system.name} cross-check |j| range "
                             f"{list(CROSS_DOMAINS[system.name][:2])}")
    out = []
    while len(out) < n:
        rho = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        th = rng.uniform(0.0, TWO_PI)
        if abs(math.sin(th)) < margin:
            continue
        out.append(from_momentum_chart(
            system, MomentumValue(rho * math.cos(th), rho * math.sin(th))))
    return out


def cross_checks(system: SystemDefinition, cs: list[EMValue],
                 cross_tol: float = CROSS_TOL) -> list:
    """Run both engines on each torus in cs, the flow engine as one batched
    integration.  Each entry is the measured discrepancies (see
    cross_check) or the FocusFocusError that failed that torus: no torus,
    a flow failure or energy drift, or CrossEngineMismatch beyond
    cross_tol.  A failing torus leaves the others' results intact.
    """
    out = []
    for c, flow in zip(cs, _tori_flow(system, cs)):
        try:
            Tq, thq = reduced_period_rotation(system, c, "quadrature")
            Tf, thf = raise_failed(flow)
        except FocusFocusError as exc:
            out.append(exc)
            continue
        dT = abs(Tq - Tf) / Tq
        dth = abs(thq - thf) / max(1.0, abs(thq))
        if dT > cross_tol or dth > cross_tol:
            out.append(CrossEngineMismatch(
                f"engines disagree at (h, l)=({c.h:.6g}, {c.l:.6g}): "
                f"dT/T={dT:.2e}, dTheta={dth:.2e} (tol {cross_tol:.0e})"))
            continue
        out.append({"T_quad": Tq, "T_flow": Tf, "theta_quad": thq,
                    "theta_flow": thf, "rel_dT": dT, "rel_dtheta": dth})
    return out


def cross_check(system: SystemDefinition, c: EMValue,
                cross_tol: float = CROSS_TOL) -> dict:
    """Run both engines; raise CrossEngineMismatch beyond cross_tol.

    Returns the measured discrepancies.  T is compared relatively, Theta
    absolutely with a relative floor (|Theta| can pass through 0).
    """
    return raise_failed(cross_checks(system, [c], cross_tol)[0])


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
    return _lattice_sample(system, T, theta,
                           int(round((theta - theta_raw) / TWO_PI)))


def _lattice_sample(system: SystemDefinition, T: float, theta: float,
                    branch: int) -> PeriodLatticeSample:
    ff = system.constants()
    return PeriodLatticeSample(T=T, theta=theta, tau1=ff.alpha * T,
                               tau2=ff.omega * T - theta, branch=branch)


def transport(system: SystemDefinition, path: list[EMValue]) -> list:
    """Theta carried continuously along a path of tori.

    Each entry is the PeriodLatticeSample of that torus, or the
    FocusFocusError that failed it; a failed torus is skipped as a
    reference.  The path's tori are evaluated in one array call
    (_tori_quadrature); a torus it does not accept goes through
    reduced_period_rotation.  The first torus that evaluates keeps its raw
    principal Theta (branch 0); each next one moves to the sheet nearest
    its predecessor, so branch is the cumulative sum of the rounded raw
    steps.  Raises BranchError when an aligned step exceeds
    MAX_BRANCH_STEP: the path is too coarse to tell its sheet.
    """
    h = np.array([c.h for c in path], dtype=float)
    l = np.array([c.l for c in path], dtype=float)
    failed, live, T, theta, branch = carry_branch(
        system, h, l, *_tori_quadrature(system, h, l))
    out: list = [None] * len(path)
    for i, exc in failed.items():
        out[i] = exc
    for i, t, th, b in zip(live.tolist(), T.tolist(), theta.tolist(),
                           branch.tolist()):
        out[i] = _lattice_sample(system, t, th, b)
    return out


def fill_rejected(system: SystemDefinition, h: np.ndarray, l: np.ndarray,
                  T: np.ndarray, raw: np.ndarray, ok: np.ndarray) -> dict:
    """Complete array results (T, raw Theta, ok) of the tori (h, l): each
    lane not ok goes through reduced_period_rotation, which fills it in
    place (and sets ok) or raises the scalar exception.  Returns the failed
    lanes (index -> FocusFocusError), whose values it leaves as they were;
    any other exception propagates."""
    failed = {}
    for i in np.flatnonzero(~ok).tolist():
        try:
            T[i], raw[i] = reduced_period_rotation(
                system, EMValue(float(h[i]), float(l[i])))
            ok[i] = True
        except FocusFocusError as exc:
            failed[i] = exc
    return failed


def carry_branch(system: SystemDefinition, h: np.ndarray, l: np.ndarray,
                 T: np.ndarray, raw: np.ndarray, ok: np.ndarray
                 ) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray]:
    """transport on one path's array results (T, raw Theta, ok), its
    rejected lanes filled by fill_rejected.  Returns the failed lanes (path
    index -> FocusFocusError) and, over the lanes that evaluated (live), T,
    the carried Theta and the branch."""
    failed = fill_rejected(system, h, l, T, raw, ok)
    live = np.flatnonzero(ok)
    raw = raw[live]
    branch = np.concatenate(    # [:live.size]: an empty path has no anchor
        ([0], np.cumsum(np.round(-np.diff(raw) / TWO_PI))))[:live.size]
    branch = branch.astype(int)
    theta = raw + TWO_PI * branch
    steps = np.abs(np.diff(theta))
    over = np.flatnonzero(steps > MAX_BRANCH_STEP)
    if over.size:
        k = over[0]
        i = int(live[k + 1])
        raise BranchError(f"aligned Theta step {steps[k] / math.pi:.4f} pi "
                          f"above {MAX_BRANCH_STEP / math.pi:.1f} pi at path "
                          f"point {i}, (h, l)=({float(h[i]):.4g}, "
                          f"{float(l[i]):.4g}): refine the path")
    return failed, live, T[live], theta, branch


@dataclass(frozen=True)
class SweepSample:
    """One branch-tracked sample of an annulus sweep."""
    c: EMValue
    j: MomentumValue
    theta_tracked: float      # unwrapped arg zeta along the sweep path
    lattice: PeriodLatticeSample


def annulus_sweep(system: SystemDefinition, r_in: float, r_out: float,
                  n_r: int, n_theta: int) -> list[SweepSample]:
    """Branch-consistent samples on a log-radial polar grid.

    Each constant-radius row starts at RAY_OFFSET past the positive-j1
    reference ray and is transported counterclockwise.  All rows therefore
    live on one common sheet and the sample set is fit-ready.  The sweep's
    tori are evaluated in one array call, then each row is carried by
    carry_branch.  A failed torus or a BranchError fails the sweep.
    """
    if not (0.0 < r_in < r_out):
        raise ValueError("need 0 < r_in < r_out")
    angles = (RAY_OFFSET + TWO_PI * np.arange(n_theta) / n_theta).tolist()
    js = [MomentumValue(rho * math.cos(th), rho * math.sin(th))
          for rho in np.geomspace(r_in, r_out, n_r).tolist() for th in angles]
    cs = [from_momentum_chart(system, j) for j in js]
    h = np.array([c.h for c in cs], dtype=float)
    l = np.array([c.l for c in cs], dtype=float)
    T, raw, ok = _tori_quadrature(system, h, l)
    out: list[SweepSample] = []
    for row in range(n_r):
        a = slice(row * n_theta, (row + 1) * n_theta)
        failed, _, Ta, theta, branch = carry_branch(system, h[a], l[a], T[a],
                                                    raw[a], ok[a])
        if failed:   # the row's first failed torus, as transport orders them
            raise failed[min(failed)]
        for c, j, th, t, tht, b in zip(cs[a], js[a], angles, Ta.tolist(),
                                       theta.tolist(), branch.tolist()):
            out.append(SweepSample(c=c, j=j, theta_tracked=th,
                                   lattice=_lattice_sample(system, t, tht, b)))
    return out


@dataclass(frozen=True)
class AsymptoticModel:
    """Fitted leading behavior near the origin.

    tau1 ~ log_coeff_tau1 * (-ln|j|) + sigma1_0 + <linear in j>
    tau2 ~ log_coeff_tau2 * arg(zeta) + (sigma2_0 - pi) + <linear in j>
    2 pi W + arg(zeta) ~ A0_fit * (-ln|j|) + <smooth>,
    and sigma_0 = A0_fit sigma1_0 - sigma2_0.
    """
    log_coeff_tau1: float
    log_coeff_tau2: float
    sigma1_0: float
    sigma2_0: float
    A0_fit: float
    sigma_0: float
    residual_tau1: float
    residual_tau2: float
    n_samples: int


def _lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    cond = np.linalg.cond(X.T @ X)
    if not np.isfinite(cond) or cond > 1e12:
        raise FitError(f"design matrix ill-conditioned (cond={cond:.2e}); "
                       "annulus too thin?")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    return coef, resid


def fit_asymptotic_model(samples: list[SweepSample]) -> AsymptoticModel:
    """Least-squares fit of the logarithmic singularity plus smooth linear
    remainders.  Requires branch-consistent samples covering >= 8 angular
    sectors of an annulus (annulus_sweep provides them)."""
    if len(samples) < 12:
        raise FitError(f"need >= 12 samples, got {len(samples)}")
    angles = sorted(s.j.angle for s in samples)
    sectors = len({int(a // (TWO_PI / 8)) for a in angles})
    if sectors < 8:
        raise FitError(f"samples cover only {sectors}/8 angular sectors")

    j1 = np.array([s.j.j1 for s in samples])
    j2 = np.array([s.j.j2 for s in samples])
    rho = np.hypot(j1, j2)
    lnrho = np.log(rho)
    if lnrho.max() - lnrho.min() < 0.5:
        raise FitError("annulus too thin: radial span "
                       f"{lnrho.max() - lnrho.min():.2f} < 0.5 ln units; the "
                       "log coefficient cannot be separated from the "
                       "constant")
    th = np.array([s.theta_tracked for s in samples])
    tau1 = np.array([s.lattice.tau1 for s in samples])
    tau2 = np.array([s.lattice.tau2 for s in samples])
    theta_big = np.array([s.lattice.theta for s in samples])

    ones = np.ones_like(rho)
    X1 = np.column_stack([-np.log(rho), ones, j1, j2])
    c1, r1 = _lstsq(X1, tau1)
    X2 = np.column_stack([th, ones, j1, j2])
    c2, r2 = _lstsq(X2, tau2)
    # 2 pi W + arg zeta = A(j) (-ln rho) + smooth; coefficient estimates A0
    cW, _ = _lstsq(X1, theta_big + th)

    return AsymptoticModel(
        log_coeff_tau1=float(c1[0]), log_coeff_tau2=float(c2[0]),
        sigma1_0=float(c1[1]), sigma2_0=float(c2[1] + math.pi),
        A0_fit=float(cW[0]),
        sigma_0=float(cW[0] * c1[1] - (c2[1] + math.pi)),
        residual_tau1=r1, residual_tau2=r2, n_samples=len(samples))
