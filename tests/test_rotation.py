import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focusfocus import (ChampagneBottle, EMValue, FitError, MomentumValue,
                        SphericalPendulum, align_angle, cross_check,
                        eval_constants, extract_level_curve, fit_log_spiral,
                        from_momentum_chart, monodromy_index, period_lattice,
                        rotation_grid, to_momentum_chart, transport, twist,
                        WindowError)
from focusfocus import acceptance, lattice, rotation
from focusfocus.lattice import RAY_OFFSET, annulus_sweep
from focusfocus.rotation import LevelCurve, MASK_CORE, MASK_REGULAR

TWO_PI = 2.0 * math.pi


def arcs(system, cs, n=32):
    """The (h, l) arrays of one path per torus of cs for transport: n tori
    on the constant-|j| arc from the reference ray arg zeta = 0 towards
    the torus, then the torus itself.  Carried along it, Theta ends on the
    principal sheet; the arc steps, at most 2 pi / n, stay far below the
    wrap guard."""
    js = [to_momentum_chart(system, c) for c in cs]
    rho = np.array([[j.modulus] for j in js])
    th = (np.array([[math.atan2(j.j2, j.j1) % TWO_PI] for j in js])
          * np.arange(n) / n)
    arc = from_momentum_chart(system, MomentumValue(rho * np.cos(th),
                                                    rho * np.sin(th)))
    return (np.column_stack([arc.h, [c.h for c in cs]]),
            np.column_stack([arc.l, [c.l for c in cs]]))


def principal_ws(system, cs):
    """W at each torus of cs on the principal sheet, from one transport
    call along arcs."""
    _, theta, _, failed = transport(system, *arcs(system, cs))
    assert failed == {}
    return (theta[:, -1] / TWO_PI).tolist()


class TestRotationNumber:
    def test_cross_engine(self, champagne):
        c = EMValue(0.1, 0.05)
        (wq,) = principal_ws(champagne, [c])
        # the flow's per-torus Theta, on the transported sheet
        theta_flow = cross_check(champagne, c)["theta_flow"]
        wf = align_angle(theta_flow, wq * TWO_PI) / TWO_PI
        assert wq == pytest.approx(wf, abs=1e-7)

    def test_reflection_antisymmetry(self, champagne0):
        w_plus, w_minus = principal_ws(
            champagne0, [EMValue(0.1, 0.05), EMValue(0.1, -0.05)])
        assert w_minus == pytest.approx(-w_plus, abs=1e-9)

    def test_anchored_branch(self, champagne):
        c = EMValue(0.05, 0.01)
        (w,) = principal_ws(champagne, [c])
        w_up = period_lattice(champagne, c,
                              (w + 1.0) * TWO_PI).theta / TWO_PI
        assert w_up == pytest.approx(w + 1.0, abs=1e-12)

    def test_eq8_combination_bounded(self, champagne):
        # 2 pi W + A0 ln|j| + arg(zeta) is the smooth remainder of the
        # rotation-number form; its spread over two decades is small
        a0 = eval_constants(champagne).A0
        points = [(rho, th) for rho in np.geomspace(1e-4, 1e-3, 4)
                  for th in 0.05 + TWO_PI * np.arange(10) / 10]
        ws = principal_ws(champagne, [
            from_momentum_chart(champagne, MomentumValue(
                rho * math.cos(th), rho * math.sin(th)))
            for rho, th in points])
        vals = [TWO_PI * w + a0 * math.log(rho) + th
                for w, (rho, th) in zip(ws, points)]
        assert max(vals) - min(vals) < 0.2

    def test_principal_sheet_consistency_lower_half(self, pendulum):
        # the pendulum's raw Theta has an extra cut on the negative-j1 ray
        # (south-pole passages); the arc transport must hide it
        rho = 0.05
        w_hi, w_lo = principal_ws(pendulum, [
            from_momentum_chart(pendulum, MomentumValue(
                rho * math.cos(th), rho * math.sin(th))) for th in (3.0, 3.3)])
        assert abs(w_hi - w_lo) < 0.1


class TestRotationGrid:
    def test_deterministic(self, champagne):
        g1 = rotation_grid(champagne, (1e-3, 1e-2), (5, 12))
        g2 = rotation_grid(champagne, (1e-3, 1e-2), (5, 12))
        assert np.array_equal(g1.w, g2.w)

    def test_refinement_agrees_at_coincident_nodes(self, champagne):
        g1 = rotation_grid(champagne, (1e-3, 1e-2), (5, 8))
        g2 = rotation_grid(champagne, (1e-3, 1e-2), (9, 16))
        assert np.nanmax(np.abs(g1.w - g2.w[::2, ::2])) <= 1e-7

    def test_row_continuity(self, champagne):
        g = rotation_grid(champagne, (1e-3, 1e-2), (6, 16))
        steps = np.abs(np.diff(g.w, axis=1))
        assert np.nanmax(steps) < 0.5

    def test_masked_fraction_monotone_in_floor(self, champagne):
        window = (1e-4, 1e-2)
        fractions = [rotation_grid(dataclasses.replace(champagne, j_floor=f),
                                   window, (6, 8)).masked_fraction()
                     for f in (1e-5, 5e-4, 3e-3)]
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[0] == 0.0 and fractions[2] > 0.0

    def test_core_mask_code(self, champagne):
        g = rotation_grid(dataclasses.replace(champagne, j_floor=1e-3),
                          (1e-4, 1e-2), (6, 8))
        assert MASK_CORE in g.mask
        assert np.all(np.isnan(g.w[g.mask != MASK_REGULAR]))

    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_core_is_never_evaluated(self, name, request, monkeypatch):
        # a torus below the floor never reaches the array form: the window
        # alone names it, and it is masked core
        system = request.getfixturevalue(name)
        tori, named = [], []
        array_form = type(system).period_rotation_array
        rejection = type(system).rejection

        def recording_array(self, h, l):
            tori.extend(zip(h.tolist(), l.tolist()))
            return array_form(self, h, l)

        def recording(self, reason, h, l):
            exc = rejection(self, reason, h, l)
            named.append((h, l, type(exc), str(exc)))
            return exc

        monkeypatch.setattr(type(system), "period_rotation_array",
                            recording_array)
        monkeypatch.setattr(type(system), "rejection", recording)
        g = rotation_grid(system, (1e-6, 1e-2), (12, 16))
        assert np.count_nonzero(g.mask == MASK_CORE) == 3 * 16
        h, l = np.array(tori).T
        assert h.size == np.count_nonzero(g.mask != MASK_CORE)
        assert np.all(system.window_radius(h, l) >= system.j_floor)
        h, l, kinds, reasons = zip(*named)
        assert len(h) == 3 * 16 and set(kinds) == {WindowError}
        assert np.all(system.window_radius(np.array(h), np.array(l))
                      < system.j_floor)
        assert all(r.endswith(": too close to the singular fiber")
                   for r in reasons)

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
        g = rotation_grid(system, (math.exp(ln_in), math.exp(ln_out)),
                          (n_rows, n_angles))
        # a first row at j_floor may round into the core
        assert np.all(g.mask[1:] == MASK_REGULAR)
        both = (g.mask[1:] == MASK_REGULAR) & (g.mask[:-1] == MASK_REGULAR)
        assert np.max(np.abs(np.diff(g.w, axis=0))[both]) <= 0.25

    @pytest.mark.xfail(strict=True, raises=WindowError, reason=(
        "a first row that rounds into the core can keep isolated tori at "
        "j_floor; transport cannot carry W across the core tori between "
        "them and fails the whole grid"))
    def test_core_row_with_isolated_tori(self):
        # a case of test_w_continuous_across_rows pinned: 45 of the first
        # row's 47 tori lie below j_floor, 25 and 45 exactly on it; when
        # the grid masks or fails them alone, the xfail mark must come off
        system = ChampagneBottle(gamma=-1.1056794377662924)
        lo, hi = math.log(system.j_floor), math.log(0.1)
        n_rows = math.ceil((hi - lo) / 0.5) + 2
        g = rotation_grid(system, (math.exp(lo), math.exp(hi)), (n_rows, 47))
        assert np.all(g.mask[1:] == MASK_REGULAR)

    @staticmethod
    def assert_rows_independent(system):
        # each row of a grid equals the one-row grid at its radius: its
        # tori share one array call with the other rows, and nothing else
        grid = rotation_grid(system, (1e-3, 1e-2), (4, 8))
        for i, rho in enumerate(np.geomspace(1e-3, 1e-2, 4).tolist()):
            row = rotation_grid(system, (rho, rho), (1, 8))
            for name in ("h", "l", "j1", "w", "branch", "mask"):
                assert np.array_equal(getattr(row, name)[0],
                                      getattr(grid, name)[i],
                                      equal_nan=True), name
        return grid


def test_grid_is_one_array_call_and_twist_one_complex_lane(champagne,
                                                           monkeypatch):
    # a grid and an annulus sweep each evaluate all their tori in one call
    # of the array form (the closed form's one body); a twist is one more,
    # of a single complex lane
    batches = []
    array_form = type(champagne).period_rotation_array

    def recording_array(self, h, l):
        batches.append((h.size, h.dtype.kind))
        return array_form(self, h, l)

    monkeypatch.setattr(type(champagne), "period_rotation_array",
                        recording_array)
    rotation_grid(champagne, (1e-3, 1e-2), (3, 7))
    assert batches == [(21, "f")]
    annulus_sweep(champagne, 1e-3, 1e-2, 2, 5)
    assert batches == [(21, "f"), (10, "f")]
    twist(champagne, EMValue(0.01, 0.005))
    assert batches == [(21, "f"), (10, "f"), (1, "c")]


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


DEFAULT = ((1e-4, 1e-2), (32, 64), (0.3, 0.5, 0.7))
LEVEL_SYSTEMS = {"champagne": ChampagneBottle(gamma=0.5),
                 "pendulum": SphericalPendulum(),
                 "champagne-1.3": ChampagneBottle(gamma=-1.3),
                 "champagne1.5": ChampagneBottle(gamma=1.5)}


@pytest.fixture(scope="module")
def champagne_curves(champagne):
    return extract_level_curve(champagne, *DEFAULT)


def grid_w(grid, lnr, lnrho, theta):
    """W bilinearly interpolated on a grid of radii exp(lnr) at the points
    (lnrho, theta), on its tracked continuation W(theta + 2 pi) = W(theta)
    - 1."""
    turns = np.floor((theta - RAY_OFFSET) / TWO_PI)
    theta = theta - TWO_PI * turns
    n = grid.w.shape[1]
    ang = RAY_OFFSET + TWO_PI * np.arange(n + 1) / n
    w = np.column_stack([grid.w, grid.w[:, 0] - 1.0])
    i = np.clip(np.searchsorted(lnr, lnrho, side="right") - 1, 0,
                lnr.size - 2)
    k = np.clip(np.searchsorted(ang, theta, side="right") - 1, 0,
                ang.size - 2)
    u = (lnrho - lnr[i]) / (lnr[i + 1] - lnr[i])
    v = (theta - ang[k]) / (ang[k + 1] - ang[k])
    return ((1 - u) * (1 - v) * w[i, k] + u * (1 - v) * w[i + 1, k]
            + (1 - u) * v * w[i, k + 1] + u * v * w[i + 1, k + 1] - turns)


class TestLevelCurves:
    @pytest.mark.parametrize("name", sorted(LEVEL_SYSTEMS))
    def test_points_are_on_their_level(self, name):
        # every traced point, evaluated again in real arithmetic, lies on
        # its level to rounding, at every radius
        system = LEVEL_SYSTEMS[name]
        for curve in extract_level_curve(system, *DEFAULT):
            assert not curve.touches_boundary and curve.lnrho.size == 32
            rho = np.exp(curve.lnrho)
            c = from_momentum_chart(system, MomentumValue(
                rho * np.cos(curve.theta), rho * np.sin(curve.theta)))
            _, theta, ok, failed = lattice._tori(system, c.h, c.l)
            assert ok.all() and failed == {}
            miss = theta / TWO_PI - curve.level
            assert np.max(np.abs(miss - np.round(miss))) <= 1e-12

    def test_contour_points_match_level(self):
        # the curves against W interpolated on a grid of the same window
        # and resolution, on its tracked sheet: bilinear interpolation on
        # it is good to ~1e-5
        for system in LEVEL_SYSTEMS.values():
            grid = rotation_grid(system, *DEFAULT[:2])
            lnr = np.log(np.geomspace(*DEFAULT[0], 32))
            for curve in extract_level_curve(system, *DEFAULT):
                assert np.max(np.abs(
                    grid_w(grid, lnr, curve.lnrho, curve.theta)
                    - curve.level)) <= 2e-5

    def test_spiral_winds_monotonically(self, champagne_curves):
        for curve in champagne_curves:
            dth = np.diff(curve.theta)
            assert np.all(dth <= 0) or np.all(dth >= 0)
            assert curve.lnrho.max() - curve.lnrho.min() > 2.0

    def test_champagne_pitch(self, champagne, champagne_curves):
        a0 = eval_constants(champagne).A0
        for curve in champagne_curves:
            slope, _ = fit_log_spiral(curve)
            assert slope == pytest.approx(-a0, rel=0.10)

    def test_pendulum_star(self, pendulum):
        for curve in extract_level_curve(pendulum, *DEFAULT):
            slope, _ = fit_log_spiral(curve)
            assert abs(slope) <= 0.02

    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_pitch_error_falls_by_decade(self, name):
        # the local pitch d theta / d ln rho tends to -omega/alpha at the
        # origin: its largest error in each |j| decade falls decade by
        # decade towards it
        system = LEVEL_SYSTEMS[name]
        a0 = eval_constants(system).A0
        for curve in extract_level_curve(system, (1.1e-5, 1.1e-1), (41, 64),
                                         (0.3, 0.5, 0.7)):
            pitch = np.diff(curve.theta) / np.diff(curve.lnrho)
            err = np.abs(pitch + a0).reshape(4, 10).max(axis=1)
            assert np.all(np.diff(err) > 0) and err[0] <= 2e-3, err

    def test_one_real_ring_then_complex_rounds(self, champagne, monkeypatch):
        # the mid ring is one real call, each Newton round one complex call
        # of all points, and no torus takes a call of its own
        batches = []
        array_form = type(champagne).period_rotation_array

        def recording_array(self, h, l):
            batches.append((h.size, h.dtype.kind))
            return array_form(self, h, l)

        monkeypatch.setattr(type(champagne), "period_rotation_array",
                            recording_array)
        extract_level_curve(champagne, *DEFAULT)
        assert batches == [(64, "f")] + [(3 * 32, "c")] * 3

    def test_level_not_attained(self, champagne, monkeypatch):
        # a point that has not settled on its level in MAX_ROUNDS is
        # dropped: one round leaves every step far above SETTLE, so no
        # point settles, and each curve is marked partial
        monkeypatch.setattr(rotation, "MAX_ROUNDS", 1)
        for curve in extract_level_curve(champagne, *DEFAULT):
            assert curve.touches_boundary and curve.lnrho.size == 0


class TestContourLevels:
    def test_mid_row_quantiles(self):
        # the levels are the quantiles of W on the mid row of the grid of
        # the same window and resolution, bit for bit
        qs = (0.0, 0.3, 0.5, 0.7, 1.0)
        for system in LEVEL_SYSTEMS.values():
            mid = rotation_grid(system, *DEFAULT[:2]).w[16]
            assert [curve.level for curve in extract_level_curve(
                system, *DEFAULT[:2], qs)] == [float(np.quantile(mid, q))
                                               for q in qs]

    def test_masked_mid_row(self, pendulum):
        # |j| beyond the pendulum's cap 0.2 from the mid ring on
        with pytest.raises(FitError, match=r"the mid ring, \|j\| = 0\.2508, "
                           "fails: .*above cap"):
            extract_level_curve(pendulum, (0.1, 0.5), (8, 16), (0.5,))


class TestSpiralFit:
    def test_exact_synthetic_spiral(self):
        lnr = np.linspace(-9.0, -4.6, 40)
        curve = LevelCurve(level=0.5, lnrho=lnr, theta=-0.4 * lnr + 1.0)
        slope, residual = fit_log_spiral(curve)
        assert slope == pytest.approx(-0.4, abs=1e-10)
        assert residual <= 1e-12

    def test_span_precondition(self):
        lnr = np.linspace(-5.0, -4.9, 10)
        curve = LevelCurve(level=0.5, lnrho=lnr, theta=0.001 * lnr)
        with pytest.raises(FitError, match="spans"):
            fit_log_spiral(curve)

    @staticmethod
    def assert_matches_polyfit(curve, scaled=True):
        # the centred normal equations against numpy's least squares, to
        # 1e-12 relative.  Both round theta at its own size, so a slope or
        # residual left by noise far below |theta| is compared to 1e-12 of
        # max |theta| (over the ln rho span, for the slope) where scaled
        slope, residual = fit_log_spiral(curve)
        lnr, th = curve.lnrho, curve.theta
        coef = np.polyfit(lnr, th, 1)
        ref = float(np.sqrt(np.mean((np.polyval(coef, lnr) - th) ** 2)))
        size = 1e-12 * np.max(np.abs(th)) if scaled else 0.0
        assert slope == pytest.approx(coef[0], rel=1e-12,
                                      abs=size / np.ptp(lnr))
        assert residual == pytest.approx(ref, rel=1e-12, abs=size)

    @given(st.integers(3, 200), st.floats(-12.0, -2.0), st.floats(2.5, 10.0),
           st.floats(-3.0, 3.0), st.floats(-10.0, 10.0),
           st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_noisy_lines_match_polyfit(self, n, start, span, slope,
                                       offset, noise, seed):
        # the ends span the window, so the span precondition holds
        lnr = np.sort(np.concatenate(([start, start + span], np.random.
                      default_rng(seed).uniform(start, start + span, n - 2))))
        theta = (slope * lnr + offset
                 + noise * np.random.default_rng(seed + 1).normal(size=n))
        self.assert_matches_polyfit(LevelCurve(level=0.5, lnrho=lnr,
                                               theta=theta))

    def test_c5_contours_match_polyfit(self, report_cfg):
        champ, _, pend = acceptance.systems(report_cfg)
        curves = [curve for system in (champ, pend)
                  for curve in extract_level_curve(system, *DEFAULT)]
        assert len(curves) == 6
        for curve in curves:
            self.assert_matches_polyfit(curve, scaled=False)
            # and to rounding of the exact least squares of the same floats,
            # where polyfit is up to 1e-12 off on the near-0 star pitches
            x, y = ([Fraction(v) for v in a.tolist()]
                    for a in (curve.lnrho, curve.theta))
            dx = [v - sum(x) / len(x) for v in x]
            exact = (sum(u * v for u, v in zip(dx, y))
                     / sum(u * u for u in dx))
            assert abs(Fraction(fit_log_spiral(curve)[0]) / exact - 1) <= 1e-15

    def test_single_ln_rho(self):
        # a contour through one ring spans angle but no ln rho: no slope
        curve = LevelCurve(level=0.5, lnrho=np.full(8, -6.0),
                           theta=np.linspace(0.0, 3.0, 8))
        with pytest.raises(FitError, match="spans only 0.00 decades"):
            fit_log_spiral(curve)
