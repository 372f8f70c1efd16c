import dataclasses
import math

import numpy as np
import pytest

from focusfocus import (AnnulusRegion, EMValue, FitError, MomentumValue,
                        align_angle, cross_check, eval_constants,
                        extract_level_curve, fit_log_spiral,
                        from_momentum_chart, monodromy_index, rotation_grid,
                        rotation_number)
from focusfocus import lattice
from focusfocus.lattice import annulus_sweep, reduced_period_rotation
from focusfocus.rotation import LevelCurve, MASK_CORE, MASK_REGULAR

TWO_PI = 2.0 * math.pi


class TestRotationNumber:
    def test_cross_engine(self, champagne):
        c = EMValue(0.1, 0.05)
        wq = rotation_number(champagne, c)
        # the flow's per-torus Theta, on the transported sheet
        theta_flow = cross_check(champagne, c)["theta_flow"]
        wf = align_angle(theta_flow, wq * TWO_PI) / TWO_PI
        assert wq == pytest.approx(wf, abs=1e-7)

    def test_reflection_antisymmetry(self, champagne0):
        w_plus = rotation_number(champagne0, EMValue(0.1, 0.05))
        w_minus = rotation_number(champagne0, EMValue(0.1, -0.05))
        assert w_minus == pytest.approx(-w_plus, abs=1e-9)

    def test_anchored_branch(self, champagne):
        c = EMValue(0.05, 0.01)
        w = rotation_number(champagne, c)
        w_up = rotation_number(champagne, c, branch_anchor=(c, w + 1.0))
        assert w_up == pytest.approx(w + 1.0, abs=1e-12)

    def test_eq8_combination_bounded(self, champagne):
        # 2 pi W + A0 ln|j| + arg(zeta) is the smooth remainder of the
        # rotation-number form; its spread over two decades is small
        a0 = eval_constants(champagne).A0
        vals = []
        for rho in np.geomspace(1e-4, 1e-3, 4):
            for th in 0.05 + TWO_PI * np.arange(10) / 10:
                j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
                w = rotation_number(champagne, from_momentum_chart(champagne, j))
                vals.append(TWO_PI * w + a0 * math.log(rho) + th)
        assert max(vals) - min(vals) < 0.2

    def test_principal_sheet_consistency_lower_half(self, pendulum):
        # the pendulum's raw Theta has an extra cut on the negative-j1 ray
        # (south-pole passages); the arc transport must hide it
        rho = 0.05
        w_hi = rotation_number(pendulum, from_momentum_chart(
            pendulum, MomentumValue(rho * math.cos(3.0), rho * math.sin(3.0))))
        w_lo = rotation_number(pendulum, from_momentum_chart(
            pendulum, MomentumValue(rho * math.cos(3.3), rho * math.sin(3.3))))
        assert abs(w_hi - w_lo) < 0.1


class TestRotationGrid:
    def test_deterministic(self, champagne):
        g1 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (5, 12))
        g2 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (5, 12))
        assert np.array_equal(g1.w, g2.w)

    def test_refinement_agrees_at_coincident_nodes(self, champagne):
        g1 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (5, 8))
        g2 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (9, 16))
        assert np.nanmax(np.abs(g1.w - g2.w[::2, ::2])) <= 1e-7

    def test_row_continuity(self, champagne):
        g = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (6, 16))
        steps = np.abs(np.diff(g.w, axis=1))
        assert np.nanmax(steps) < 0.5

    def test_masked_fraction_monotone_in_floor(self, champagne):
        region = AnnulusRegion(1e-4, 1e-2)
        fractions = [rotation_grid(dataclasses.replace(champagne, j_floor=f),
                                   region, (6, 8)).masked_fraction()
                     for f in (1e-5, 5e-4, 3e-3)]
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[0] == 0.0 and fractions[2] > 0.0

    def test_core_mask_code(self, champagne):
        g = rotation_grid(dataclasses.replace(champagne, j_floor=1e-3),
                          AnnulusRegion(1e-4, 1e-2), (6, 8))
        assert MASK_CORE in g.mask
        assert np.all(np.isnan(g.w[g.mask != MASK_REGULAR]))

    def test_parallel_rows_identical(self, champagne):
        g1 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (4, 8))
        g2 = rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (4, 8),
                           jobs=2)
        assert np.array_equal(g1.w, g2.w)


def test_grid_and_sweep_tori_are_plain_floats(champagne, monkeypatch):
    # NumPy scalars would run the closed form's arithmetic at NumPy's
    # scalar speed
    seen = []

    def recording(system, c, *args, **kwargs):
        seen.append(c)
        return reduced_period_rotation(system, c, *args, **kwargs)

    monkeypatch.setattr(lattice, "reduced_period_rotation", recording)
    rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (2, 5))
    annulus_sweep(champagne, 1e-3, 1e-2, 2, 5)
    assert len(seen) == 20
    assert all(type(c.h) is float and type(c.l) is float for c in seen)


class TestMonodromy:
    @pytest.mark.parametrize("radius", [0.03, 0.05, 0.1, 0.15])
    def test_champagne_radius_invariance(self, champagne, radius):
        assert monodromy_index(champagne, radius, 128) == pytest.approx(
            1.0, abs=1e-3)

    def test_gamma_zero(self, champagne0):
        assert monodromy_index(champagne0, 0.1, 128) == pytest.approx(
            1.0, abs=1e-3)

    def test_pendulum(self, pendulum):
        assert monodromy_index(pendulum, 0.1, 128) == pytest.approx(
            1.0, abs=1e-3)

    def test_orientation_reversal(self, champagne):
        assert monodromy_index(champagne, 0.1, 128, orientation=-1) == \
            pytest.approx(-1.0, abs=1e-3)

    def test_rejects_coarse_loop(self, champagne):
        with pytest.raises(ValueError):
            monodromy_index(champagne, 0.1, 32)


@pytest.fixture(scope="module")
def champagne_grid(champagne):
    return rotation_grid(champagne, AnnulusRegion(1e-4, 1e-2), (24, 48))


class TestLevelCurves:
    def test_contour_points_match_level(self, champagne, champagne_grid):
        mid = champagne_grid.w[12]
        level = float(np.quantile(mid, 0.5))
        curve = extract_level_curve(champagne_grid, level)
        # re-evaluate W on the principal sheet at contour points with
        # theta < 2 pi; linear interpolation on this grid is good to ~1e-3
        checked = 0
        for lr, th in zip(curve.lnrho[::5], curve.theta[::5]):
            if th >= TWO_PI - 0.05 or th <= 0.05:
                continue
            rho = math.exp(lr)
            j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
            w = rotation_number(champagne, from_momentum_chart(champagne, j))
            assert w == pytest.approx(level, abs=5e-3)
            checked += 1
        assert checked >= 5

    def test_spiral_winds_monotonically(self, champagne_grid):
        mid = champagne_grid.w[12]
        curve = extract_level_curve(champagne_grid,
                                    float(np.quantile(mid, 0.4)))
        dth = np.diff(curve.theta)
        assert np.all(dth <= 0) or np.all(dth >= 0)
        assert curve.lnrho.max() - curve.lnrho.min() > 2.0

    def test_champagne_pitch(self, champagne, champagne_grid):
        a0 = eval_constants(champagne).A0
        mid = champagne_grid.w[12]
        fit = fit_log_spiral(
            extract_level_curve(champagne_grid, float(np.quantile(mid, 0.5))),
            expected_slope=-a0)
        assert fit.slope_fit == pytest.approx(-a0, rel=0.10)

    def test_pendulum_star(self, pendulum):
        grid = rotation_grid(pendulum, AnnulusRegion(1e-4, 1e-2), (24, 48))
        mid = grid.w[12]
        fit = fit_log_spiral(
            extract_level_curve(grid, float(np.quantile(mid, 0.5))),
            expected_slope=0.0)
        assert abs(fit.slope_fit) <= 0.02

    def test_level_not_attained(self, champagne_grid):
        with pytest.raises(FitError, match="not attained"):
            extract_level_curve(champagne_grid, 99.0)


class TestSpiralFit:
    def test_exact_synthetic_spiral(self):
        lnr = np.linspace(-9.0, -4.6, 40)
        curve = LevelCurve(level=0.5, lnrho=lnr, theta=-0.4 * lnr + 1.0)
        fit = fit_log_spiral(curve, expected_slope=-0.4)
        assert fit.slope_fit == pytest.approx(-0.4, abs=1e-10)
        assert fit.residual <= 1e-12

    def test_span_precondition(self):
        lnr = np.linspace(-5.0, -4.9, 10)
        curve = LevelCurve(level=0.5, lnrho=lnr, theta=0.001 * lnr)
        with pytest.raises(FitError, match="spans"):
            fit_log_spiral(curve, expected_slope=0.0)
