"""Period lattice data of regular tori.

Two independent engines produce the first-return time T of the Hamiltonian
flow to the reduced section and the continuous azimuth advance Theta over
one return:

* quadrature (the primary engine): the reduced-profile integrals
  T = 2 int dr / sqrt(P) and Theta = 2 int a(r) / sqrt(P) dr over the
  reduced orbit, in closed form.  Both profiles are cubics, so these are
  complete elliptic integrals of the first and third kind, which each
  system evaluates in Carlson's symmetric form (period_rotation).  One
  torus costs a few microseconds and is accurate to rounding (checked
  against mpmath); the engine keeps its historical name;
* flow: direct integration of the full vector field from a torus seed, with
  the return localized by section events and the azimuth unwrapped as an
  extra state component.

Conversion to the lattice basis uses the linear momentum chart at the
origin (Phi1 ~ alpha, Phi2 ~ omega; the deviation of the true chart from
linear is smooth and is absorbed by the asymptotic fits):

    tau1 = alpha T,   tau2 = omega T - Theta,
    (tau1, tau2) and (0, 2 pi) span the period lattice.

Branch convention: the raw per-torus Theta (with the +pi convention on the
l = 0 axis) anchors the principal sheet on the positive-j1 ray; sweeps
transport it continuously (align_angle) and record the sheet offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BranchError, CrossEngineMismatch, FitError, FlowError
from .numerics import (EventSpec, QUAD_REL_TOL, T_BUDGET_FACTOR, TWO_PI,
                       align_angle, integrate_flow)
from .systems import EMValue, SystemDefinition

CROSS_TOL = 1e-7
# tightest accuracy request the closed form is verified to meet against
# mpmath (relative in T, absolute in Theta)
CLOSED_FORM_REL_TOL = 1e-13
ENERGY_DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class MomentumValue:
    """Point in the linearized momentum chart, identified with
    zeta = j1 + i j2."""
    j1: float
    j2: float

    @property
    def zeta(self) -> complex:
        return complex(self.j1, self.j2)

    @property
    def modulus(self) -> float:
        return math.hypot(self.j1, self.j2)

    @property
    def angle(self) -> float:
        """Principal argument in [0, 2 pi), cut on the positive-j1 ray."""
        th = math.atan2(self.j2, self.j1)
        return th if th >= 0.0 else th + TWO_PI


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


def to_momentum_chart(system: SystemDefinition, c: EMValue) -> MomentumValue:
    """Exact linear chart (h, l) = (j1 alpha + j2 omega, j2)."""
    ff = system.constants()
    return MomentumValue(j1=(c.h - ff.omega * c.l) / ff.alpha, j2=c.l)


def from_momentum_chart(system: SystemDefinition, j: MomentumValue) -> EMValue:
    ff = system.constants()
    return EMValue(h=j.j1 * ff.alpha + j.j2 * ff.omega, l=j.j2)


@lru_cache(maxsize=500_000)
def _torus_quadrature(system: SystemDefinition, h: float, l: float,
                      rel_tol: float) -> tuple[float, float]:
    # rel_tol is part of the cache key only: every admitted request is met
    return system.period_rotation(EMValue(h, l))


def _torus_flow(system: SystemDefinition, c: EMValue,
                rtol: float | None) -> tuple[float, float]:
    ff = system.constants()
    if rtol is None:
        rtol = system.flow_rtol
    j = to_momentum_chart(system, c)
    budget = T_BUDGET_FACTOR * (1.0 + abs(math.log(j.modulus))) / ff.alpha
    section, direction = system.flow_section(c)
    seed = system.flow_seed(c)
    traj = integrate_flow(system.flow_field(c), seed, t_max=budget,
                          events=[EventSpec(section, direction, count=2)],
                          tol=rtol)
    drift = traj.max_relative_drift(system.flow_hamiltonian)
    if drift > ENERGY_DRIFT_TOL:
        raise FlowError(f"energy drift {drift:.2e} above "
                        f"{ENERGY_DRIFT_TOL:.0e} at (h, l)="
                        f"({c.h:.4g}, {c.l:.4g})")
    (t1, s1, _), (t2, s2, _) = traj.event_records[:2]
    k = system.flow_angle_index
    return t2 - t1, float(s2[k] - s1[k])


def reduced_period_rotation(system: SystemDefinition, c: EMValue,
                            engine: str = "quadrature",
                            rel_tol: float = QUAD_REL_TOL,
                            flow_rtol: float | None = None) -> tuple[float, float]:
    """First-return time and continuous azimuth advance of one torus.

    Both engines report the same branch convention: the honest per-torus
    Theta, with pole passages on the l = 0 axis counted as +pi each (the
    l -> 0+ limit).

    rel_tol is the accuracy requested of the quadrature engine.  Its
    closed form meets any request down to CLOSED_FORM_REL_TOL = 1e-13; a
    tighter one raises ValueError rather than being silently ignored.
    flow_rtol is the flow engine's solver tolerance (default: the
    system's flow_rtol).
    """
    if engine == "quadrature" and rel_tol < CLOSED_FORM_REL_TOL:
        raise ValueError(f"rel_tol={rel_tol:.1e} is below the closed form's "
                         f"verified accuracy {CLOSED_FORM_REL_TOL:.0e}")
    system.check_window(c)
    if engine == "quadrature":
        return _torus_quadrature(system, c.h, c.l, rel_tol)
    if engine == "flow":
        return _torus_flow(system, c, flow_rtol)
    raise ValueError(f"unknown engine {engine!r}")


def cross_check(system: SystemDefinition, c: EMValue,
                cross_tol: float = CROSS_TOL) -> dict:
    """Run both engines; raise CrossEngineMismatch beyond cross_tol.

    Returns the measured discrepancies.  T is compared relatively, Theta
    absolutely with a relative floor (|Theta| can pass through 0).
    """
    Tq, thq = reduced_period_rotation(system, c, "quadrature")
    Tf, thf = reduced_period_rotation(system, c, "flow")
    dT = abs(Tq - Tf) / Tq
    dth = abs(thq - thf) / max(1.0, abs(thq))
    if dT > cross_tol or dth > cross_tol:
        raise CrossEngineMismatch(
            f"engines disagree at (h, l)=({c.h:.6g}, {c.l:.6g}): "
            f"dT/T={dT:.2e}, dTheta={dth:.2e} (tol {cross_tol:.0e})")
    return {"T_quad": Tq, "T_flow": Tf, "theta_quad": thq, "theta_flow": thf,
            "rel_dT": dT, "rel_dtheta": dth}


def period_lattice(system: SystemDefinition, c: EMValue,
                   theta_ref: float | None = None,
                   engine: str = "quadrature") -> PeriodLatticeSample:
    """Lattice sample at c.  With theta_ref given, Theta is transported to
    the sheet continuous with that reference (steps must stay below half a
    branch width); otherwise the raw principal value is returned.  branch
    is the sheet offset from the raw value, in units of 2 pi."""
    ff = system.constants()
    T, theta_raw = reduced_period_rotation(system, c, engine=engine)
    theta = theta_raw
    if theta_ref is not None:
        theta = align_angle(theta_raw, theta_ref)
    return PeriodLatticeSample(T=T, theta=theta,
                               tau1=ff.alpha * T,
                               tau2=ff.omega * T - theta,
                               branch=int(round((theta - theta_raw) / TWO_PI)))


@dataclass(frozen=True)
class SweepSample:
    """One branch-tracked sample of an annulus sweep."""
    c: EMValue
    j: MomentumValue
    theta_tracked: float      # unwrapped arg zeta along the sweep path
    lattice: PeriodLatticeSample


def annulus_sweep(system: SystemDefinition, r_in: float, r_out: float,
                  n_r: int, n_theta: int,
                  theta_offset: float = 1e-3) -> list[SweepSample]:
    """Branch-consistent samples on a log-radial polar grid.

    Each constant-radius row starts just past the positive-j1 reference ray
    (theta_offset) where the raw Theta is the principal value, then sweeps
    counterclockwise with continuous transport.  All rows therefore live on
    one common sheet and the sample set is fit-ready.
    """
    if not (0.0 < r_in < r_out):
        raise ValueError("need 0 < r_in < r_out")
    radii = np.geomspace(r_in, r_out, n_r)
    angles = theta_offset + TWO_PI * np.arange(n_theta) / n_theta
    out: list[SweepSample] = []
    for rho in radii:
        prev: PeriodLatticeSample | None = None
        for th in angles:
            j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
            c = from_momentum_chart(system, j)
            if prev is None:
                samp = period_lattice(system, c)
            else:
                samp = period_lattice(system, c, theta_ref=prev.theta)
                if abs(samp.theta - prev.theta) > 0.5 * math.pi:
                    raise BranchError(
                        f"Theta step {abs(samp.theta - prev.theta):.3f} too "
                        f"large at rho={rho:.3g}, theta={th:.3f}; refine "
                        "n_theta")
            out.append(SweepSample(c=c, j=j, theta_tracked=float(th),
                                   lattice=samp))
            prev = samp
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
