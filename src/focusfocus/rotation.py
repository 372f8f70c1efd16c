"""Rotation numbers with branch tracking, monodromy, level curves, spirals.

W = Theta / 2 pi on the principal sheet anchored at the positive-j1 ray
(arg zeta = 0).  Every path here is carried by lattice.transport: a grid
row along its circle from RAY_OFFSET, and the monodromy loop once around
the critical value.  A grid's rows are the paths of one transport call.
Level sets of W are extracted in the (ln rho, theta) plane by marching
squares, its cell pass on arrays, at levels taken as quantiles of the
grid's mid row (contour_levels), and compared against the predicted
logarithmic spiral pitch d theta / d ln rho = -omega/alpha (a star, slope
0, in the degenerate omega = 0 case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .numerics import TWO_PI, linear_quantiles
from .lattice import RAY_OFFSET, PolarTori, polar_tori, transport
from .systems import SystemDefinition, from_momentum_chart, polar

MASK_REGULAR = 0
MASK_CORE = 1        # below the |j| floor: too close to the singular fiber
MASK_FAILED = 2

# fewest loop points for which branch transport around the monodromy loop
# stays below the wrap guard
MIN_LOOP_POINTS = 64
# the angular extension of a grid past 2 pi in extract_level_curve
EXTEND_ANGLE = 2.2


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass
class RotationGrid:
    axis0: np.ndarray         # radii
    axis1: np.ndarray         # angles, from RAY_OFFSET
    h: np.ndarray             # (n0, n1) tori (h, l), relative to the
    l: np.ndarray             # critical value; l is also the chart's j2
    j1: np.ndarray            # momentum chart j1
    w: np.ndarray             # branch-consistent W; NaN where masked
    branch: np.ndarray        # int sheet offset from the raw value
    mask: np.ndarray          # MASK_* codes

    def masked_fraction(self) -> float:
        return float(np.mean(self.mask != MASK_REGULAR))


def rotation_grid(system: SystemDefinition, window: tuple[float, float],
                  resolution: tuple[int, int]) -> RotationGrid:
    """Branch-consistent W matrix on the log-radial polar region
    window = (r_in, r_out) of |j|, its rows the paths of one transport call.

    Rows are constant-|j| circles anchored just past the reference ray and
    transported counterclockwise, so |W_neighbor - W| < 1/2 along each
    row.  Points below the system's j_floor (MASK_CORE) are not evaluated,
    and they and points without a regular torus (MASK_FAILED) do not serve
    as references; a failed anchor fails the whole row.
    """
    n0, n1 = resolution
    radii = np.geomspace(*window, n0)
    angles = RAY_OFFSET + TWO_PI * np.arange(n1) / n1
    j = polar(radii, angles)
    c = from_momentum_chart(system, j)
    core = system.window_radius(c.h, c.l) < system.j_floor
    # a NaN torus is absent from its path: the core is never evaluated
    _, theta, br, failed = transport(system, np.where(core, np.nan, c.h),
                                     c.l)
    w = theta / TWO_PI
    mask = np.where(core, MASK_CORE, MASK_REGULAR).astype(np.uint8)
    mask.flat[list(failed)] = MASK_FAILED
    dead = np.isin(np.arange(n0) * n1, list(failed))   # row anchor failed
    mask[dead], w[dead], br[dead] = MASK_FAILED, np.nan, 0
    return RotationGrid(axis0=radii, axis1=angles, h=c.h, l=c.l, j1=j.j1, w=w,
                        branch=br, mask=mask)


# --------------------------------------------------------------------------
# monodromy
# --------------------------------------------------------------------------

def monodromy_loop(system: SystemDefinition, radius: float,
                   n_points: int = 256, orientation: int = +1
                   ) -> tuple[PolarTori, float]:
    """The transported loop of n_points + 1 tori around the critical value
    (the last closes it), one row, and the monodromy index: the advance of
    tau2 over the loop in units of 2 pi (equivalently W_start -
    W_transported; +1 for a simple focus-focus point on the positively
    oriented circle)."""
    if n_points < MIN_LOOP_POINTS:
        raise ValueError(f"n_points >= {MIN_LOOP_POINTS} required")
    # half-step offset keeps loop points off the l = 0 seam
    angles = (np.arange(n_points + 1) * TWO_PI / n_points + math.pi / n_points)
    if orientation < 0:
        angles = angles[::-1]
    loop = polar_tori(system, radius, angles)
    return loop, float((loop.tau2[0, -1] - loop.tau2[0, 0]) / TWO_PI)


def monodromy_index(system: SystemDefinition, radius: float,
                    n_points: int = 256, orientation: int = +1) -> float:
    """Lattice monodromy index around the critical value (monodromy_loop)."""
    return monodromy_loop(system, radius, n_points, orientation)[1]


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


# corner e of cell (i, k) sits at (x[i + _DI[e]], y[k + _DK[e]]); edge e runs
# from corner e to corner e + 1 (mod 4)
_DI = np.array([0, 0, 1, 1])
_DK = np.array([0, 1, 1, 0])


def _marching_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      level: float) -> list[np.ndarray]:
    """Contours of z(x, y) on a rectangular grid by marching squares with
    linear interpolation; NaN cells are skipped.  Returns chained polylines
    as arrays of (x, y) vertices.

    The cell pass runs on arrays: the crossing edges of every cell, in
    row-major cell order and edge order within a cell, are interpolated at
    once.  A saddle cell (four crossings) is split by its centre value.
    """
    v = np.stack([z[:-1, :-1], z[:-1, 1:], z[1:, 1:], z[1:, :-1]], axis=-1)
    above = v >= level
    n_above = np.count_nonzero(above, axis=-1)
    ci, ck = np.nonzero(~np.isnan(v).any(axis=-1)
                        & (n_above > 0) & (n_above < 4))
    v, above = v[ci, ck], above[ci, ck]
    cell, e1 = np.nonzero(above != np.roll(above, -1, axis=1))
    e2 = (e1 + 1) % 4
    v1 = v[cell, e1]
    t = (level - v1) / (v[cell, e2] - v1)
    x1, y1 = x[ci[cell] + _DI[e1]], y[ck[cell] + _DK[e1]]
    px = x1 + t * (x[ci[cell] + _DI[e2]] - x1)
    py = y1 + t * (y[ck[cell] + _DK[e2]] - y1)
    # each cell's points start at s; two make one segment, four a saddle
    # pair (0, 3) + (1, 2) when the centre sides with corner 0, else
    # (0, 1) + (2, 3)
    count = np.bincount(cell, minlength=len(ci))
    s = np.cumsum(count) - count
    saddle = count == 4
    vc = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) / 4.0
    by_corner0 = saddle & ((vc >= level) == above[:, 0])
    first = np.column_stack([s, np.where(by_corner0, s + 3, s + 1)])
    second = np.column_stack([np.where(by_corner0, s + 1, s + 2),
                              np.where(by_corner0, s + 2, s + 3)])
    pairs = np.stack([first, second], axis=1)[
        np.column_stack([np.ones_like(saddle), saddle])]
    # endpoints meet where they agree to 12 decimals; np.round on the array
    # rounds each point as round(np.float64, 12) would
    keys = list(zip(np.round(px, 12).tolist(), np.round(py, 12).tolist()))
    return [np.column_stack([px[c], py[c]])
            for c in _chain(pairs.tolist(), keys)]


def _chain(segs: list[list[int]], keys: list[tuple]) -> list[list[int]]:
    """Chain segments (pairs of point indices) into polylines (lists of
    point indices) by shared endpoints: points with equal keys."""
    adj: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        adj.setdefault(keys[a], []).append(idx)
        adj.setdefault(keys[b], []).append(idx)

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
                tip = keys[chain[-1] if endpoint_idx == 0 else chain[0]]
                cands = [i for i in adj.get(tip, []) if not used[i]]
                if not cands:
                    break
                i = cands[0]
                used[i] = True
                pa, pb = segs[i]
                nxt = pb if keys[pa] == tip else pa
                if endpoint_idx == 0:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(chain)
    return polylines


def contour_levels(grid: RotationGrid, qs) -> list[float]:
    """W levels at the quantiles qs of the grid's mid row (numpy's 'linear'
    rule).  Raises FitError when the mid row holds a masked torus: its W is
    NaN there, so it has no quantiles."""
    row = len(grid.axis0) // 2
    masked = np.count_nonzero(grid.mask[row] != MASK_REGULAR)
    if masked:
        raise FitError(f"mid row {row} of the grid (|j| = "
                       f"{grid.axis0[row]:.4g}) holds {masked} masked "
                       "tori: no contour levels")
    return linear_quantiles(grid.w[row], qs)


def extract_level_curve(grid: RotationGrid, level: float) -> LevelCurve:
    """Longest contour polyline of W = level on a rotation grid.

    The angular axis is extended by EXTEND_ANGLE past 2 pi using the
    tracked continuation W(theta + 2 pi) = W(theta) - 1, so spirals cross
    the reference-ray seam seamlessly while staying on a single sheet of
    the tracked surface.
    """
    lnr = np.log(grid.axis0)
    th = np.asarray(grid.axis1)
    w = grid.w.copy()
    w[grid.mask != MASK_REGULAR] = np.nan

    n_ext = int(np.ceil(EXTEND_ANGLE / (th[1] - th[0])))
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
