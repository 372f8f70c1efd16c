"""Rotation numbers with branch tracking, monodromy, level curves, spirals.

W = Theta / 2 pi on the principal sheet anchored at the positive-j1 ray
(arg zeta = 0).  Every path here is a lattice.transport path: a
single-point query transports W along the constant-|j| arc from the
reference ray, a grid row along its circle from RAY_OFFSET, and the
monodromy loop once around the critical value.  Level sets of W are
extracted in the (ln rho, theta) plane by marching squares and compared
against the predicted logarithmic spiral pitch d theta / d ln rho =
-omega/alpha (a star, slope 0, in the degenerate omega = 0 case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NoTorusError, WindowError
from .numerics import TWO_PI
from .lattice import (RAY_OFFSET, MomentumValue, PeriodLatticeSample,
                      from_momentum_chart, period_lattice, raise_failed,
                      to_momentum_chart, transport)
from .systems import EMValue, SystemDefinition

MASK_REGULAR = 0
MASK_CORE = 1        # below the |j| floor: too close to the singular fiber
MASK_FAILED = 2

# fewest loop points for which branch transport around the monodromy loop
# stays below the wrap guard
MIN_LOOP_POINTS = 64
# largest arg zeta step of the rotation_number arc
ARC_STEP = 0.3


def _circle(system: SystemDefinition, rho: float, angles) -> list[EMValue]:
    """The tori at |j| = rho and the given arguments of zeta."""
    return [from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                      rho * math.sin(th)))
            for th in angles]


def rotation_number(system: SystemDefinition, c: EMValue,
                    branch_anchor: tuple[EMValue, float] | None = None,
                    engine: str = "quadrature") -> float:
    """Branch-consistent rotation number W at c.

    With branch_anchor = (c_ref, W_ref), returns the branch continuous with
    the anchor (c must be within half a branch width).  Without an anchor,
    returns the principal branch: W transported from the reference ray
    arg zeta = 0 along the constant-|j| arc.
    """
    if branch_anchor is not None:
        _, w_ref = branch_anchor
        return float(period_lattice(system, c, w_ref * TWO_PI,
                                    engine).theta / TWO_PI)

    # branch transport always runs on the quadrature engine (the flow chart
    # cannot evaluate the l = 0 anchor); the requested engine only supplies
    # the final value, aligned onto the transported sheet
    j = to_momentum_chart(system, c)
    n_steps = max(1, int(math.ceil(j.angle / ARC_STEP)))
    arc = _circle(system, j.modulus, j.angle * np.arange(n_steps) / n_steps)
    samples = [raise_failed(s) for s in transport(system, arc + [c])]
    theta = samples[-1].theta
    if engine != "quadrature":
        theta = period_lattice(system, c, theta, engine).theta
    return float(theta / TWO_PI)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusRegion:
    """Log-radial polar region r_in <= |j| <= r_out."""
    r_in: float
    r_out: float


@dataclass
class RotationGrid:
    axis0: np.ndarray         # radii
    axis1: np.ndarray         # angles, from RAY_OFFSET
    w: np.ndarray             # (n0, n1) branch-consistent W; NaN where masked
    branch: np.ndarray        # int sheet offset from the raw value
    mask: np.ndarray          # MASK_* codes

    def masked_fraction(self) -> float:
        return float(np.mean(self.mask != MASK_REGULAR))


def _grid_row(system: SystemDefinition, points: list[EMValue],
              j_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one transported row.  Points below j_floor are masked as
    core and points without a regular torus as failed; neither serves as a
    reference.  A failed anchor fails the whole row."""
    n = len(points)
    w = np.full(n, np.nan)
    br = np.zeros(n, dtype=int)
    mask = np.full(n, MASK_FAILED, dtype=np.uint8)
    live = []
    for i, c in enumerate(points):
        if to_momentum_chart(system, c).modulus < j_floor:
            mask[i] = MASK_CORE
        else:
            live.append(i)
    for i, samp in zip(live, transport(system, [points[i] for i in live])):
        if isinstance(samp, (NoTorusError, WindowError)):
            if i == 0:   # row anchor failed: whole row failed
                return w, br, np.full(n, MASK_FAILED, dtype=np.uint8)
            continue
        samp = raise_failed(samp)
        w[i] = samp.theta / TWO_PI
        br[i] = samp.branch
        mask[i] = MASK_REGULAR
    return w, br, mask


def rotation_grid(system: SystemDefinition, region: AnnulusRegion,
                  resolution: tuple[int, int],
                  j_floor: float | None = None,
                  jobs: int = 1) -> RotationGrid:
    """Branch-consistent W matrix.

    Rows are constant-|j| circles anchored just past the reference ray and
    transported counterclockwise, so |W_neighbor - W| < 1/2 along each
    row.  Rows are independent after anchoring and may be evaluated in
    parallel; results are assembled by row index, so output is
    jobs-independent.
    """
    n0, n1 = resolution
    floor = system.j_floor if j_floor is None else j_floor
    radii = np.geomspace(region.r_in, region.r_out, n0)
    angles = RAY_OFFSET + TWO_PI * np.arange(n1) / n1
    row_points = [_circle(system, rho, angles) for rho in radii]

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
    return RotationGrid(axis0=radii, axis1=angles, w=w, branch=br, mask=mask)


# --------------------------------------------------------------------------
# monodromy
# --------------------------------------------------------------------------

def monodromy_loop(system: SystemDefinition, radius: float,
                   n_points: int = 256, orientation: int = +1
                   ) -> tuple[list[EMValue], list[PeriodLatticeSample], float]:
    """The transported loop of n_points + 1 tori around the critical value
    (the last closes it), their lattice samples, and the monodromy index:
    the advance of tau2 over the loop in units of 2 pi (equivalently
    W_start - W_transported; +1 for a simple focus-focus point on the
    positively oriented circle)."""
    if n_points < MIN_LOOP_POINTS:
        raise ValueError(f"n_points >= {MIN_LOOP_POINTS} required")
    # half-step offset keeps loop points off the l = 0 seam
    angles = (np.arange(n_points + 1) * TWO_PI / n_points + math.pi / n_points)
    if orientation < 0:
        angles = angles[::-1]
    cs = _circle(system, radius, angles)
    samples = [raise_failed(s) for s in transport(system, cs)]
    return cs, samples, float((samples[-1].tau2 - samples[0].tau2) / TWO_PI)


def monodromy_index(system: SystemDefinition, radius: float,
                    n_points: int = 256, orientation: int = +1) -> float:
    """Lattice monodromy index around the critical value (monodromy_loop)."""
    return monodromy_loop(system, radius, n_points, orientation)[2]


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
    """Longest contour polyline of W = level on a rotation grid.

    The angular axis is extended past 2 pi using the tracked continuation
    W(theta + 2 pi) = W(theta) - 1, so spirals cross the reference-ray seam
    seamlessly while staying on a single sheet of the tracked surface.
    """
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
