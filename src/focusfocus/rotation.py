"""Rotation numbers with branch tracking, monodromy, level curves, spirals.

W = Theta / 2 pi on the principal sheet anchored at the positive-j1 ray
(arg zeta = 0).  Every path here is carried as a lattice.transport path: a
single-point query transports W along the constant-|j| arc from the
reference ray, a grid row along its circle from RAY_OFFSET, and the
monodromy loop once around the critical value.  A grid evaluates all its
tori in one array call and carries each row with lattice.carry_branch.
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

from .errors import FitError, NoTorusError, WindowError
from .numerics import TWO_PI, linear_quantiles
from .lattice import (RAY_OFFSET, PeriodLatticeSample, _tori_quadrature,
                      carry_branch, period_lattice, raise_failed, transport)
from .systems import (EMValue, MomentumValue, SystemDefinition,
                      from_momentum_chart, to_momentum_chart)

MASK_REGULAR = 0
MASK_CORE = 1        # below the |j| floor: too close to the singular fiber
MASK_FAILED = 2

# fewest loop points for which branch transport around the monodromy loop
# stays below the wrap guard
MIN_LOOP_POINTS = 64
# largest arg zeta step of the rotation_number arc
ARC_STEP = 0.3
# the angular extension of a grid past 2 pi in extract_level_curve
EXTEND_ANGLE = 2.2


def _circle(system: SystemDefinition, rho: float, angles) -> list[EMValue]:
    """The tori at |j| = rho and the given arguments of zeta, as Python
    floats, with math's cos and sin (rotation_grid uses the same)."""
    rho = float(rho)
    return [from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                      rho * math.sin(th)))
            for th in angles]


def rotation_number(system: SystemDefinition, c: EMValue,
                    branch_anchor: tuple[EMValue, float] | None = None
                    ) -> float:
    """Branch-consistent rotation number W at c.

    With branch_anchor = (c_ref, W_ref), returns the branch continuous with
    the anchor (c must be within half a branch width).  Without an anchor,
    returns the principal branch: W transported from the reference ray
    arg zeta = 0 along the constant-|j| arc.
    """
    if branch_anchor is not None:
        _, w_ref = branch_anchor
        return float(period_lattice(system, c, w_ref * TWO_PI).theta / TWO_PI)

    j = to_momentum_chart(system, c)
    n_steps = max(1, int(math.ceil(j.angle / ARC_STEP)))
    arc = _circle(system, j.modulus, j.angle * np.arange(n_steps) / n_steps)
    samples = [raise_failed(s) for s in transport(system, arc + [c])]
    return float(samples[-1].theta / TWO_PI)


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
    h: np.ndarray             # (n0, n1) tori (h, l), relative to the
    l: np.ndarray             # critical value; l is also the chart's j2
    j1: np.ndarray            # momentum chart j1
    w: np.ndarray             # branch-consistent W; NaN where masked
    branch: np.ndarray        # int sheet offset from the raw value
    mask: np.ndarray          # MASK_* codes

    def masked_fraction(self) -> float:
        return float(np.mean(self.mask != MASK_REGULAR))


def rotation_grid(system: SystemDefinition, region: AnnulusRegion,
                  resolution: tuple[int, int]) -> RotationGrid:
    """Branch-consistent W matrix, all its tori in one array call.

    Rows are constant-|j| circles anchored just past the reference ray and
    transported counterclockwise, so |W_neighbor - W| < 1/2 along each
    row.  Points below the system's j_floor (MASK_CORE) and points without
    a regular torus (MASK_FAILED) do not serve as references; a failed
    anchor fails the whole row.
    """
    n0, n1 = resolution
    radii = np.geomspace(region.r_in, region.r_out, n0)
    angles = RAY_OFFSET + TWO_PI * np.arange(n1) / n1
    # the tori of _circle, with math's cos and sin
    cos = np.array([math.cos(th) for th in angles.tolist()])
    sin = np.array([math.sin(th) for th in angles.tolist()])
    j1, l = np.outer(radii, cos), np.outer(radii, sin)
    h = from_momentum_chart(system, MomentumValue(j1, l)).h
    core = system.window_radius(h, l) < system.j_floor

    w = np.full(h.shape, np.nan)
    br = np.zeros(h.shape, dtype=int)
    mask = np.where(core, MASK_CORE, MASK_FAILED).astype(np.uint8)
    T, raw, ok = _tori_quadrature(system, h[~core], l[~core])
    ends = np.cumsum(np.count_nonzero(~core, axis=1)).tolist()
    for row, (a, b) in enumerate(zip([0] + ends, ends)):
        cols = np.flatnonzero(~core[row])
        failed, live, _, theta, branch = carry_branch(
            system, h[row, cols], l[row, cols], T[a:b], raw[a:b], ok[a:b])
        anchor = failed.get(0) if cols.size and cols[0] == 0 else None
        if isinstance(anchor, (NoTorusError, WindowError)):
            mask[row] = MASK_FAILED   # row anchor failed: whole row failed
            continue
        for exc in failed.values():
            if not isinstance(exc, (NoTorusError, WindowError)):
                raise exc
        cols = cols[live]
        w[row, cols] = theta / TWO_PI
        br[row, cols] = branch
        mask[row, cols] = MASK_REGULAR
    return RotationGrid(axis0=radii, axis1=angles, h=h, l=l, j1=j1, w=w,
                        branch=br, mask=mask)


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
