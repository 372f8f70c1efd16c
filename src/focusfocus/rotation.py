"""Rotation numbers with branch tracking, monodromy, level curves, spirals.

W = Theta / 2 pi on the principal sheet anchored at the positive-j1 ray
(arg zeta = 0).  Every path here is carried by lattice.transport: a grid
row along its circle from RAY_OFFSET, and the monodromy loop once around
the critical value.  A grid's rows are the paths of one transport call.
Level curves of W, at levels taken as quantiles of W on a mid ring (one
grid row), are traced exactly: each starts on the predicted logarithmic
spiral, theta = theta0 - (omega/alpha) ln rho, and Newton in theta moves
its points onto the level, all in lockstep (extract_level_curve).  Their
fitted pitch d theta / d ln rho is compared against -omega/alpha (a star,
slope 0, in the degenerate omega = 0 case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, FocusFocusError
from .numerics import TWO_PI, linear_quantiles
from .lattice import (RAY_OFFSET, PolarTori, derivatives, polar_tori,
                      transport)
from .systems import (MomentumValue, SystemDefinition, eval_constants,
                      from_momentum_chart, polar)

MASK_REGULAR = 0
MASK_CORE = 1        # below the |j| floor: too close to the singular fiber
MASK_FAILED = 2

# fewest loop points for which branch transport around the monodromy loop
# stays below the wrap guard
MIN_LOOP_POINTS = 64
# a traced point has settled once its Newton step in theta is below
# SETTLE: the predictor misses by 2.4e-4 at most, and 3-4 rounds settle it
SETTLE = 1e-12
MAX_ROUNDS = 8


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass
class RotationGrid:
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
    row.  A row whose radius lies below the system's j_floor is masked
    MASK_CORE whole, unevaluated, as is a point of another row that fails
    the window below j_floor; other points without a regular torus are
    masked MASK_FAILED.  Neither serves as a reference, and a failed
    anchor outside the core fails the whole row.
    """
    n0, n1 = resolution
    radii = np.geomspace(*window, n0)
    angles = RAY_OFFSET + TWO_PI * np.arange(n1) / n1
    j = polar(radii, angles)
    c = from_momentum_chart(system, j)
    w, br = np.full(c.h.shape, np.nan), np.zeros(c.h.shape, dtype=int)
    mask = np.full(c.h.shape, MASK_CORE, dtype=np.uint8)
    rows = radii >= system.j_floor
    h, l = c.h[rows], c.l[rows]
    _, theta, sheet, failed = transport(system, h, l)
    lanes = np.fromiter(failed, dtype=np.intp)
    core = system.window_radius(h.flat[lanes], l.flat[lanes]) < system.j_floor
    code = np.full(h.shape, MASK_REGULAR, dtype=np.uint8)
    code.flat[lanes] = np.where(core, MASK_CORE, MASK_FAILED)
    dead = np.isin(np.arange(len(h)) * n1, lanes[~core])   # row anchor failed
    code[dead], theta[dead], sheet[dead] = MASK_FAILED, np.nan, 0
    w[rows], br[rows], mask[rows] = theta / TWO_PI, sheet, code
    return RotationGrid(h=c.h, l=c.l, j1=j.j1, w=w, branch=br, mask=mask)


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
    """A traced W level curve: its points (ln rho, theta) in radius order,
    and touches_boundary when a radius lost its point (partial)."""
    level: float
    lnrho: np.ndarray
    theta: np.ndarray
    touches_boundary: bool = False

    @property
    def j_points(self) -> np.ndarray:
        rho = np.exp(self.lnrho)
        return np.column_stack([rho * np.cos(self.theta),
                                rho * np.sin(self.theta)])


def extract_level_curve(system: SystemDefinition, window: tuple[float, float],
                        resolution: tuple[int, int], qs) -> list[LevelCurve]:
    """The W level curves at the quantiles qs of W on the mid ring (the
    grid row at the middle radius; a failed torus on it raises FitError),
    traced at the radii geomspace(*window, n_r) by predictor-corrector
    continuation (Allgower and Georg, SIAM 2003); resolution = (n_r,
    n_theta).  Each curve is predicted on the spiral theta0 - (omega/alpha)
    ln(rho/rho_mid) from its level's crossing of the ring, and Newton in
    theta corrects all points in lockstep, one derivatives call per round:
    Theta, on the sheet nearest 2 pi W, and dTheta/dtheta along (dh/dtheta,
    dl/dtheta).  A point whose torus fails, or not settled (SETTLE) in
    MAX_ROUNDS, is dropped: partial.
    """
    n_r, n_theta = resolution
    radii = np.geomspace(*window, n_r)
    rho_mid = float(radii[n_r // 2])
    angles = RAY_OFFSET + TWO_PI * np.arange(n_theta) / n_theta
    try:
        ring = polar_tori(system, rho_mid, angles)
    except FocusFocusError as exc:
        raise FitError(f"the mid ring, |j| = {rho_mid:.4g}, fails: {exc}; "
                       "no contour levels") from exc
    w = ring.theta[0] / TWO_PI
    levels = np.array(linear_quantiles(w, qs))
    # the first ring step that brackets each level: a quantile lies
    # between the least and the largest W, so one does
    a, b, lv = w[:-1], w[1:], levels[:, None]
    k = np.argmax((np.minimum(a, b) <= lv) & (lv <= np.maximum(a, b)), axis=1)
    theta0 = angles[k] + (levels - a[k]) / (b[k] - a[k]) * (TWO_PI / n_theta)

    lnrho = np.log(radii)
    theta = (theta0[:, None] - eval_constants(system).A0
             * (lnrho - math.log(rho_mid))).ravel()
    rho = np.tile(radii, len(levels))
    target = np.repeat(TWO_PI * levels, n_r)
    for _ in range(MAX_ROUNDS):
        j = MomentumValue(rho * np.cos(theta), rho * np.sin(theta))
        c = from_momentum_chart(system, j)
        dc = from_momentum_chart(system, MomentumValue(-j.j2, j.j1))
        _, value, _, slope, _ = derivatives(system, c.h, c.l, dc.h, dc.l)
        ok = ~np.isnan(slope)
        miss = value - target
        miss -= TWO_PI * np.round(miss / TWO_PI)
        step = np.where(ok, miss / slope, 0.0)
        theta -= step
        settled = ok & (np.abs(step) <= SETTLE)
        if np.all(settled | ~ok):
            break
    keep = settled.reshape(len(levels), n_r)
    return [LevelCurve(level=float(level), lnrho=lnrho[row], theta=th[row],
                       touches_boundary=not row.all())
            for level, th, row in zip(levels, theta.reshape(keep.shape), keep)]


def expected_spiral_slope(alpha: float, omega: float) -> float:
    """Pitch d theta / d ln rho of the log-spiral level curves of W,
    -omega/alpha; 0.0, never -0.0, for the star at omega = 0."""
    return -omega / alpha if omega else 0.0


def fit_log_spiral(curve: LevelCurve) -> tuple[float, float]:
    """Least-squares slope d theta / d ln rho of a contour, and the rms
    residual of its line, from the centred normal equations.

    Regressing theta on ln rho (not the reverse) keeps the degenerate
    omega = 0 star case regular: the fitted slope is then simply 0.
    """
    lnr, th = curve.lnrho, curve.theta
    rho_span = (lnr.max() - lnr.min()) / math.log(10.0)
    th_span = float(th.max() - th.min())
    # a single ln rho (sum dx^2 = 0) has no pitch, whatever its angles
    if rho_span == 0.0 or (rho_span < 1.0 and th_span < 0.5 * math.pi):
        raise FitError(f"contour spans only {rho_span:.2f} decades and "
                       f"{th_span:.2f} rad; too short for a pitch fit")
    dx, dy = lnr - lnr.mean(), th - th.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    return slope, float(np.sqrt(np.mean((slope * dx - dy) ** 2)))
