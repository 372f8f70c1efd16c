import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focusfocus import (AnnulusRegion, ChampagneBottle, EMValue, FitError,
                        MomentumValue, SphericalPendulum, align_angle,
                        cross_check, eval_constants, extract_level_curve,
                        fit_log_spiral, from_momentum_chart, monodromy_index,
                        rotation_grid, rotation_number, twist)
from focusfocus import lattice, rotation
from focusfocus.lattice import annulus_sweep, reduced_period_rotation
from focusfocus.rotation import (LevelCurve, MASK_CORE, MASK_REGULAR,
                                 contour_levels)
from reference_marching_squares import marching_squares

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

    def test_rows_independent(self, champagne, pendulum):
        self.assert_rows_independent(champagne)
        # the pendulum's rows cross a sheet: nonzero branch offsets
        assert np.any(self.assert_rows_independent(pendulum).branch != 0)

    def test_rows_independent_with_a_core_row(self, champagne):
        grid = self.assert_rows_independent(
            dataclasses.replace(champagne, j_floor=2e-3))
        assert np.all(grid.mask[0] == MASK_CORE)
        assert np.all(grid.mask[1:] == MASK_REGULAR)

    @given(name=st.sampled_from(["champagne", "pendulum"]),
           gamma=st.floats(-1.5, 1.5), start=st.floats(0.0, 0.99),
           span=st.floats(0.01, 1.0), extra_rows=st.integers(0, 2),
           n_angles=st.integers(32, 96))
    # gamma < 0 turns omega negative: with |omega| the chart put |j| = 0.1
    # at (h, l) = (-0.1617, -0.0832), where there is no torus
    @example(name="champagne", gamma=-1.0, start=0.0, span=1.0,
             extra_rows=0, n_angles=32)
    @settings(max_examples=100, deadline=None)
    def test_w_continuous_across_rows(self, name, gamma, start, span,
                                      extra_rows, n_angles):
        # each row is carried from its own anchor, so nothing but the
        # anchors ties neighbouring rows to one sheet: a branch slip between
        # them reads about 1, the true step, (omega / alpha) d ln rho /
        # 2 pi, stays below 0.1 at d ln rho <= 0.5
        system = (ChampagneBottle(gamma=gamma) if name == "champagne"
                  else SphericalPendulum())
        lo, hi = math.log(system.j_floor), math.log(0.1)
        ln_in = lo + (hi - lo) * start
        ln_out = ln_in + (hi - ln_in) * span
        n_rows = math.ceil((ln_out - ln_in) / 0.5) + 2 + extra_rows
        g = rotation_grid(system, AnnulusRegion(math.exp(ln_in),
                                                math.exp(ln_out)),
                          (n_rows, n_angles))
        # a first row at j_floor may round into the core
        assert np.all(g.mask[1:] == MASK_REGULAR)
        both = (g.mask[1:] == MASK_REGULAR) & (g.mask[:-1] == MASK_REGULAR)
        assert np.max(np.abs(np.diff(g.w, axis=0))[both]) <= 0.25

    @staticmethod
    def assert_rows_independent(system):
        # each row of a grid equals the one-row grid at its radius: its
        # tori share one array call with the other rows, and nothing else
        grid = rotation_grid(system, AnnulusRegion(1e-3, 1e-2), (4, 8))
        for i, rho in enumerate(grid.axis0.tolist()):
            row = rotation_grid(system, AnnulusRegion(rho, rho), (1, 8))
            assert row.axis0[0] == rho
            for name in ("h", "l", "j1", "w", "branch", "mask"):
                assert np.array_equal(getattr(row, name)[0],
                                      getattr(grid, name)[i],
                                      equal_nan=True), name
        return grid


def test_grid_is_one_array_call_and_twist_one_complex_lane(champagne,
                                                           monkeypatch):
    # a grid and an annulus sweep each evaluate all their tori in one call
    # of the array form; a twist is one more, of a single complex lane, and
    # no torus goes through the scalar closed form
    batches, seen = [], []
    array_form = type(champagne).period_rotation_array

    def recording_array(self, h, l):
        batches.append((h.size, h.dtype.kind))
        return array_form(self, h, l)

    def recording(system, c, *args, **kwargs):
        seen.append(c)
        return reduced_period_rotation(system, c, *args, **kwargs)

    monkeypatch.setattr(type(champagne), "period_rotation_array",
                        recording_array)
    monkeypatch.setattr(lattice, "reduced_period_rotation", recording)
    rotation_grid(champagne, AnnulusRegion(1e-3, 1e-2), (3, 7))
    assert batches == [(21, "f")] and seen == []
    annulus_sweep(champagne, 1e-3, 1e-2, 2, 5)
    assert batches == [(21, "f"), (10, "f")] and seen == []
    twist(champagne, EMValue(0.01, 0.005))
    assert batches == [(21, "f"), (10, "f"), (1, "c")] and seen == []


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


def same_polylines(x, y, z, level):
    got = rotation._marching_squares(x, y, z, level)
    want = marching_squares(x, y, z, level)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


class TestMarchingSquares:
    """The array cell pass against the cell loop it replaced
    (reference_marching_squares), polyline for polyline and bit for bit."""

    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_default_grids(self, name, request, monkeypatch):
        system = request.getfixturevalue(name)
        grid = rotation_grid(system, AnnulusRegion(1e-4, 1e-2), (32, 64))
        inputs = []
        vectorised = rotation._marching_squares

        def spy(x, y, z, level):
            inputs.append((x, y, z, level))
            return vectorised(x, y, z, level)

        monkeypatch.setattr(rotation, "_marching_squares", spy)
        mid = np.sort(grid.w[16])
        for level in mid[::8]:
            extract_level_curve(grid, float(level))
        monkeypatch.undo()
        assert len(inputs) == 8
        for args in inputs:
            assert same_polylines(*args)

    @given(seed=st.integers(0, 2**32 - 1), holes=st.floats(0.0, 0.3),
           shape=st.tuples(st.integers(2, 12), st.integers(2, 12)))
    @settings(max_examples=60, deadline=None)
    def test_nan_holes(self, seed, holes, shape):
        # few distinct values make ties with the level and saddle cells
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 4, shape).astype(float) / 3.0
        z[rng.random(shape) < holes] = np.nan
        x = np.cumsum(rng.uniform(0.1, 1.0, shape[0]))
        y = np.cumsum(rng.uniform(0.1, 1.0, shape[1]))
        for level in (0.0, 0.2, 1.0 / 3.0, 0.5, 1.0):
            same_polylines(x, y, z, level)

    @pytest.mark.parametrize("z, level, pairs", [
        # corner 0 above, centre 0.5 above: (0, 3) + (1, 2)
        ([[1.0, 0.0], [0.0, 1.0]], 0.5,
         [[(0.0, 0.5), (0.5, 0.0)], [(0.5, 1.0), (1.0, 0.5)]]),
        # corner 0 above, centre below: (0, 1) + (2, 3)
        ([[1.0, 0.0], [0.0, 1.0]], 0.6,
         [[(0.0, 0.4), (0.6, 1.0)], [(1.0, 0.6), (0.4, 0.0)]]),
        # corner 0 below, centre above: (0, 1) + (2, 3)
        ([[0.0, 1.0], [1.0, 0.0]], 0.5,
         [[(0.0, 0.5), (0.5, 1.0)], [(1.0, 0.5), (0.5, 0.0)]]),
        # corner 0 below, centre below: (0, 3) + (1, 2)
        ([[0.0, 1.0], [1.0, 0.0]], 0.6,
         [[(0.0, 0.6), (0.6, 0.0)], [(0.4, 1.0), (1.0, 0.4)]]),
    ])
    def test_saddle_splits(self, z, level, pairs):
        # opposite corners equal: all four edges cross
        lines = same_polylines(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                               np.array(z), level)
        got = sorted(sorted(map(tuple, line.round(12).tolist()))
                     for line in lines)
        assert got == sorted(sorted(p) for p in pairs)


class TestContourLevels:
    def test_mid_row_quantiles(self, champagne_grid):
        mid = champagne_grid.w[len(champagne_grid.axis0) // 2]
        qs = (0.0, 0.3, 0.5, 0.7, 1.0)
        assert contour_levels(champagne_grid, qs) == \
            [float(np.quantile(mid, q)) for q in qs]

    def test_masked_mid_row(self, pendulum):
        # |j| beyond the pendulum's cap 0.2 from the mid row on
        grid = rotation_grid(pendulum, AnnulusRegion(0.1, 0.5), (8, 16))
        with pytest.raises(FitError, match="mid row 4 .* masked"):
            contour_levels(grid, (0.5,))


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
