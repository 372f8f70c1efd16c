"""Rotation numbers with branch tracking, monodromy, level curves, spirals.

W = Theta / 2 pi on the principal sheet anchored at the positive-j1 ray
(arg zeta = 0).  Single-point queries transport W along a constant-radius
arc from the reference ray; grids and loops track continuously along their
evaluation paths.  Level sets of W are extracted in the (ln rho, theta)
plane by marching squares and compared against the predicted logarithmic
spiral pitch d theta / d ln rho = -omega/alpha (a star, slope 0, in the
degenerate omega = 0 case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchError, FitError, NoTorusError, WindowError
from .numerics import TWO_PI, align_angle
from .lattice import (MomentumValue, from_momentum_chart, period_lattice,
                      reduced_period_rotation, to_momentum_chart)
from .systems import EMValue, SystemDefinition

MASK_REGULAR = 0
MASK_CORE = 1        # below the |j| floor: too close to the singular fiber
MASK_FAILED = 2

# fewest loop points for which branch transport around the monodromy loop
# stays below the wrap limit
MIN_LOOP_POINTS = 64


def rotation_number(system: SystemDefinition, c: EMValue,
                    branch_anchor: tuple[EMValue, float] | None = None,
                    engine: str = "quadrature",
                    arc_step: float = 0.3) -> float:
    """Branch-consistent rotation number W at c.

    With branch_anchor = (c_ref, W_ref), returns the branch continuous with
    the anchor (c must be within half a branch width).  Without an anchor,
    returns the principal branch: W transported from the reference ray
    arg zeta = 0 along the constant-|j| arc.
    """
    if branch_anchor is not None:
        _, w_ref = branch_anchor
        _, theta = reduced_period_rotation(system, c, engine=engine)
        return float(align_angle(theta, w_ref * TWO_PI) / TWO_PI)

    # branch transport always runs on the quadrature engine (the flow chart
    # cannot evaluate the l = 0 anchor); the requested engine only supplies
    # the final value, aligned onto the transported sheet
    j = to_momentum_chart(system, c)
    target = j.angle
    n_steps = max(1, int(math.ceil(target / arc_step)))
    c0 = from_momentum_chart(system, MomentumValue(j.modulus, 0.0))
    _, theta = reduced_period_rotation(system, c0)
    for k in range(1, n_steps + 1):
        if k == n_steps:
            ck = c
        else:
            th = target * k / n_steps
            ck = from_momentum_chart(
                system, MomentumValue(j.modulus * math.cos(th),
                                      j.modulus * math.sin(th)))
        _, raw = reduced_period_rotation(system, ck)
        theta = align_angle(raw, theta)
    if engine != "quadrature":
        _, theta_eng = reduced_period_rotation(system, c, engine=engine)
        theta = align_angle(theta_eng, theta)
    return float(theta / TWO_PI)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusRegion:
    """Log-radial polar region r_in <= |j| <= r_out; the angular sweep
    starts at theta_offset past the reference ray so no row crosses the
    principal cut."""
    r_in: float
    r_out: float
    theta_offset: float = 1e-3


@dataclass(frozen=True)
class RectRegion:
    """Rectangle in (h, l)."""
    h_min: float
    h_max: float
    l_min: float
    l_max: float


@dataclass
class RotationGrid:
    kind: str                 # "annulus" | "rect"
    axis0: np.ndarray         # radii (annulus) or h values (rect)
    axis1: np.ndarray         # angles or l values
    w: np.ndarray             # (n0, n1) branch-consistent W; NaN where masked
    branch: np.ndarray        # int sheet offset from the raw value
    mask: np.ndarray          # MASK_* codes

    def masked_fraction(self) -> float:
        return float(np.mean(self.mask != MASK_REGULAR))


def _grid_row(system: SystemDefinition, points: list[EMValue],
              j_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one branch-tracked row; each point's reference is its
    predecessor.  A failed anchor fails the whole row."""
    n = len(points)
    w = np.full(n, np.nan)
    br = np.zeros(n, dtype=int)
    mask = np.full(n, MASK_FAILED, dtype=np.uint8)
    theta_ref = None
    for i, c in enumerate(points):
        j = to_momentum_chart(system, c)
        if j.modulus < j_floor:
            mask[i] = MASK_CORE
            continue
        try:
            samp = period_lattice(system, c, theta_ref=theta_ref)
        except (NoTorusError, WindowError):
            if i == 0:
                return w, br, mask   # row anchor failed: whole row failed
            continue
        w[i] = samp.theta / TWO_PI
        br[i] = samp.branch
        mask[i] = MASK_REGULAR
        theta_ref = samp.theta
    return w, br, mask


def rotation_grid(system: SystemDefinition,
                  region: AnnulusRegion | RectRegion,
                  resolution: tuple[int, int],
                  j_floor: float | None = None,
                  jobs: int = 1) -> RotationGrid:
    """Branch-consistent W matrix.

    Annulus rows are constant-|j| circles anchored on the reference ray;
    rect rows are constant-h lines anchored at their first in-window point.
    Rows satisfy |W_neighbor - W| < 1/2 by construction (transport).  Rows
    are independent after anchoring and may be evaluated in parallel;
    results are assembled by row index, so output is jobs-independent.
    """
    n0, n1 = resolution
    floor = system.j_floor if j_floor is None else j_floor
    if isinstance(region, AnnulusRegion):
        radii = np.geomspace(region.r_in, region.r_out, n0)
        angles = region.theta_offset + TWO_PI * np.arange(n1) / n1
        row_points = [
            [from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                       rho * math.sin(th)))
             for th in angles]
            for rho in radii]
        kind, ax0, ax1 = "annulus", radii, angles
    else:
        hs = np.linspace(region.h_min, region.h_max, n0)
        ls = np.linspace(region.l_min, region.l_max, n1)
        row_points = [[EMValue(h, l) for l in ls] for h in hs]
        kind, ax0, ax1 = "rect", hs, ls

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_grid_row, [system] * len(row_points),
                               row_points, [floor] * len(row_points)))
    else:
        rows = [_grid_row(system, pts, floor) for pts in row_points]

    w = np.vstack([r[0] for r in rows])
    br = np.vstack([r[1] for r in rows])
    mask = np.vstack([r[2] for r in rows])
    return RotationGrid(kind=kind, axis0=ax0, axis1=ax1, w=w, branch=br,
                        mask=mask)


# --------------------------------------------------------------------------
# monodromy
# --------------------------------------------------------------------------

def monodromy_index(system: SystemDefinition, radius: float,
                    n_points: int = 256, center: EMValue = EMValue(0.0, 0.0),
                    orientation: int = +1) -> float:
    """Lattice monodromy around the critical value: the advance of the
    branch-transported tau2 over one closed loop, in units of 2 pi
    (equivalently W_start - W_transported; +1 for a simple focus-focus
    point on the positively oriented circle).
    """
    if n_points < MIN_LOOP_POINTS:
        raise ValueError(f"n_points >= {MIN_LOOP_POINTS} required")
    if center.as_tuple() != (0.0, 0.0):
        raise ValueError("only loops centered at the critical value are "
                         "supported")
    # half-step offset keeps loop points off the l = 0 seam
    angles = (np.arange(n_points + 1) * TWO_PI / n_points + math.pi / n_points)
    if orientation < 0:
        angles = angles[::-1]
    samp0 = None
    prev_theta = None
    tau2_first = tau2_last = None
    for th in angles:
        j = MomentumValue(radius * math.cos(th), radius * math.sin(th))
        c = from_momentum_chart(system, j)
        samp = period_lattice(system, c, theta_ref=prev_theta)
        if prev_theta is not None and abs(samp.theta - prev_theta) > 0.9 * math.pi:
            # alignment wraps silently beyond pi; flag anything close to it
            raise BranchError(f"Theta step {abs(samp.theta - prev_theta):.2f}"
                              f" rad near the wrap limit at loop angle "
                              f"{th:.3f}: n_points too small")
        if samp0 is None:
            samp0, tau2_first = samp, samp.tau2
        tau2_last = samp.tau2
        prev_theta = samp.theta
    return float((tau2_last - tau2_first) / TWO_PI)


# --------------------------------------------------------------------------
# level curves and spiral fits
# --------------------------------------------------------------------------

@dataclass
class LevelCurve:
    """Contour polyline of a W level on one branch sheet."""
    level: float
    lnrho: np.ndarray
    theta: np.ndarray
    touches_boundary: bool = False

    @property
    def j_points(self) -> np.ndarray:
        rho = np.exp(self.lnrho)
        return np.column_stack([rho * np.cos(self.theta),
                                rho * np.sin(self.theta)])


def _marching_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      level: float) -> list[np.ndarray]:
    """Contours of z(x, y) on a rectangular grid by marching squares with
    linear interpolation; NaN cells are skipped.  Returns chained polylines
    as arrays of (x, y) vertices."""
    segs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    n0, n1 = z.shape

    def interp(p1, p2, v1, v2):
        t = (level - v1) / (v2 - v1)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    for i in range(n0 - 1):
        for k in range(n1 - 1):
            v = (z[i, k], z[i, k + 1], z[i + 1, k + 1], z[i + 1, k])
            if any(math.isnan(t) for t in v):
                continue
            corners = ((x[i], y[k]), (x[i], y[k + 1]),
                       (x[i + 1], y[k + 1]), (x[i + 1], y[k]))
            above = [t >= level for t in v]
            if all(above) or not any(above):
                continue
            pts = []
            for e in range(4):
                e2 = (e + 1) % 4
                if above[e] != above[e2]:
                    pts.append(interp(corners[e], corners[e2], v[e], v[e2]))
            if len(pts) == 2:
                segs.append((pts[0], pts[1]))
            elif len(pts) == 4:
                # saddle cell: split by the center value
                vc = sum(v) / 4.0
                if (vc >= level) == above[0]:
                    segs.append((pts[0], pts[3]))
                    segs.append((pts[1], pts[2]))
                else:
                    segs.append((pts[0], pts[1]))
                    segs.append((pts[2], pts[3]))

    # chain segments into polylines by shared endpoints
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adj: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        adj.setdefault(key(a), []).append(idx)
        adj.setdefault(key(b), []).append(idx)

    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        a, b = segs[start]
        chain = [a, b]
        for endpoint_idx in (0, 1):
            while True:
                tip = chain[-1] if endpoint_idx == 0 else chain[0]
                cands = [i for i in adj.get(key(tip), []) if not used[i]]
                if not cands:
                    break
                i = cands[0]
                used[i] = True
                pa, pb = segs[i]
                nxt = pb if key(pa) == key(tip) else pa
                if endpoint_idx == 0:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.asarray(chain))
    return polylines


def extract_level_curve(grid: RotationGrid, level: float,
                        extend_angle: float = 2.2) -> LevelCurve:
    """Longest contour polyline of W = level on an annulus grid.

    The angular axis is extended past 2 pi using the tracked continuation
    W(theta + 2 pi) = W(theta) - 1, so spirals cross the reference-ray seam
    seamlessly while staying on a single sheet of the tracked surface.
    """
    if grid.kind != "annulus":
        raise ValueError("level curves are extracted on annulus grids")
    lnr = np.log(grid.axis0)
    th = np.asarray(grid.axis1)
    w = grid.w.copy()
    w[grid.mask != MASK_REGULAR] = np.nan

    n_ext = int(np.ceil(extend_angle / (th[1] - th[0])))
    n_ext = min(n_ext, len(th))
    th_ext = np.concatenate([th, th[:n_ext] + TWO_PI])
    w_ext = np.hstack([w, w[:, :n_ext] - 1.0])

    polylines = _marching_squares(lnr, th_ext, w_ext, level)
    if not polylines:
        raise FitError(f"level W={level:.6g} not attained on the grid")
    best = max(polylines, key=len)
    lnrho, theta = best[:, 0], best[:, 1]

    touches = False
    nan_mask = np.isnan(w_ext)
    if nan_mask.any():
        for lr, tt in zip(lnrho, theta):
            i = int(np.clip(np.searchsorted(lnr, lr), 1, len(lnr) - 1))
            k = int(np.clip(np.searchsorted(th_ext, tt), 1, len(th_ext) - 1))
            if nan_mask[i - 1:i + 1, k - 1:k + 1].any():
                touches = True
                break
    return LevelCurve(level=level, lnrho=lnrho, theta=theta,
                      touches_boundary=touches)


@dataclass
class SpiralFit:
    level: float
    slope_fit: float          # d theta / d ln rho along the contour
    expected_slope: float     # -omega/alpha
    residual: float
    n_points: int
    rho_span_decades: float
    theta_span: float


def fit_log_spiral(curve: LevelCurve, expected_slope: float) -> SpiralFit:
    """Least-squares slope of theta against ln rho along a contour.

    Regressing theta on ln rho (not the reverse) keeps the degenerate
    omega = 0 star case regular: the fitted slope is then simply 0.
    """
    lnr, th = curve.lnrho, curve.theta
    rho_span = (lnr.max() - lnr.min()) / math.log(10.0)
    th_span = float(th.max() - th.min())
    if rho_span < 1.0 and th_span < 0.5 * math.pi:
        raise FitError(f"contour spans only {rho_span:.2f} decades and "
                       f"{th_span:.2f} rad; too short for a pitch fit")
    coef = np.polyfit(lnr, th, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, lnr) - th) ** 2)))
    return SpiralFit(level=curve.level, slope_fit=float(coef[0]),
                     expected_slope=expected_slope, residual=resid,
                     n_points=len(lnr), rho_span_decades=rho_span,
                     theta_span=th_span)
