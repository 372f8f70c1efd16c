import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (ChampagneBottle, EMValue, FocusFocusError,
                        MomentumValue, ScanError, SphericalPendulum, cli,
                        eval_constants, expected_twistless_slope,
                        from_momentum_chart, period_lattice,
                        tilde_s, to_momentum_chart, twist, twist_scan,
                        twistless_curve, twistless_point)
from focusfocus import systems
from focusfocus.twist import SCAN_CAP, _l_window

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
SCAN_SYSTEMS = {"champagne": ChampagneBottle(gamma=0.5),
                "champagne0": ChampagneBottle(gamma=0.0),
                "pendulum": SphericalPendulum()}


def scalar_scan(system, h, ls):
    """twist at each (h, l), h a float or one energy per l, NaN where it
    raises a FocusFocusError."""
    out = []
    for h, l in zip(np.broadcast_to(h, np.shape(ls)).tolist(), ls):
        try:
            out.append(twist(system, EMValue(h, l)))
        except FocusFocusError:
            out.append(math.nan)
    return np.array(out)


def same_scan(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@st.composite
def energy_scans(draw, system):
    """An energy and a scan along C_h: centred on the l = 0 axis, on either
    end of the window cap, or anywhere inside it."""
    h = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(-5.0, -1.0))
    l_lo, l_hi = _l_window(system, h, system.j_cap)
    where = draw(st.sampled_from(["axis", "cap", "-cap", "inside"]))
    centre = {"axis": 0.0, "cap": l_hi, "-cap": l_lo,
              "inside": draw(st.floats(l_lo, l_hi))}[where]
    half = l_hi * 10.0 ** draw(st.floats(-7.0, 0.0))
    n = draw(st.integers(1, 17))
    return h, np.linspace(centre - half, centre + half, n)


@st.composite
def scans(draw):
    """A system and the scans of 1 to 3 energies as one scan whose lanes
    carry their own energy: (system, h per lane, l per lane)."""
    system = SCAN_SYSTEMS[draw(st.sampled_from(sorted(SCAN_SYSTEMS)))]
    parts = draw(st.lists(energy_scans(system), min_size=1, max_size=3))
    return (system, np.concatenate([np.full(ls.size, h) for h, ls in parts]),
            np.concatenate([ls for _, ls in parts]))


class TestTwist:
    def test_divergence_toward_fiber_gamma0(self, champagne0):
        # S scales like 1/|j|^2 along l -> 0 at small fixed h; at h = 0.01
        # the growth from l = 0.05 to l = 0.005 exceeds 10x.  (At h = 0.1
        # |j| is dominated by h and the growth saturates near 1.5x.)
        s_far = twist(champagne0, EMValue(0.01, 0.05))
        s_near = twist(champagne0, EMValue(0.01, 0.005))
        assert abs(s_near) >= 10.0 * abs(s_far)
        # qualitative growth persists at larger h as well
        assert abs(twist(champagne0, EMValue(0.1, 0.005))) > \
            abs(twist(champagne0, EMValue(0.1, 0.05)))

    def test_branch_reference_invariance(self, champagne):
        # shifting the whole stencil by one sheet leaves S unchanged
        c = EMValue(0.05, 0.02)
        s = twist(champagne, c)
        w0 = period_lattice(champagne, c).theta / TWO_PI
        dl = max(1e-6, 1e-3 * abs(c.l))

        def w_up(lv):
            return period_lattice(champagne, EMValue(c.h, lv),
                                  (w0 + 1.0) * TWO_PI).theta / TWO_PI
        d1 = (w_up(c.l + dl) - w_up(c.l - dl)) / (2 * dl)
        d2 = (w_up(c.l + dl / 2) - w_up(c.l - dl / 2)) / dl
        assert (4 * d2 - d1) / 3 == pytest.approx(s, abs=1e-6)


def tilde_s_at(system, j):
    """S~ at the chart point j, given its twist."""
    c = from_momentum_chart(system, j)
    return tilde_s(system, c.h, c.l, twist(system, c))


class TestTildeS:
    def test_vanishes_at_origin_along_rays(self, champagne):
        for th in (0.4, 2.1, 4.0):
            vals = []
            for rho in (1e-2, 1e-3, 1e-4):
                j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
                vals.append(abs(tilde_s_at(champagne, j)))
            assert vals[0] > vals[1] > vals[2]

    def test_gradient_at_origin(self, champagne):
        ff = eval_constants(champagne)
        d = 1e-3

        def s_tilde_at(j1, j2):
            return tilde_s_at(champagne, MomentumValue(j1, j2))

        g1 = (s_tilde_at(d, 0.0) - s_tilde_at(-d, 0.0)) / (2 * d)
        g2 = (s_tilde_at(0.0, d) - s_tilde_at(0.0, -d)) / (2 * d)
        assert g1 == pytest.approx(ff.A0 ** 2 - 1.0, rel=0.10)
        assert g2 == pytest.approx(-2.0 * ff.A0, rel=0.10)

    def test_gradient_at_origin_pendulum(self, pendulum):
        # degenerate case: gradient (A0^2 - 1, -2 A0) = (-1, 0)
        d = 1e-3

        def s_tilde_at(j1, j2):
            return tilde_s_at(pendulum, MomentumValue(j1, j2))

        g1 = (s_tilde_at(d, 0.0) - s_tilde_at(-d, 0.0)) / (2 * d)
        g2 = (s_tilde_at(0.0, d) - s_tilde_at(0.0, -d)) / (2 * d)
        assert g1 == pytest.approx(-1.0, rel=0.10)
        assert abs(g2) <= 0.05

    def test_leading_form(self, champagne):
        # S~ = A0^2 j1 - 2 A0 j2 - j1 up to O(|j|^2 ln|j|); tested away from
        # the twistless direction where the leading form vanishes
        ff = eval_constants(champagne)
        rho = 1e-3
        bound = 5.0 * rho * math.log(1.0 / rho)
        for th in (0.3, 1.8, 3.6, 5.2):
            j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
            lead = (ff.A0 ** 2 - 1.0) * j.j1 - 2.0 * ff.A0 * j.j2
            val = tilde_s_at(champagne, j)
            assert abs(val - lead) <= bound * abs(lead)


class TestTwistScan:
    """twist_scan, every point of a scan one lane of one array call,
    against twist at each scan point alone.  The drawn scans mix
    energies."""

    @given(scans())
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_twist_bit_for_bit(self, scan):
        system, hs, ls = scan
        same_scan(twist_scan(system, hs, ls),
                  scalar_scan(system, hs, ls.tolist()))

    @given(scans())
    @settings(max_examples=30, deadline=None)
    def test_energy_per_row_broadcasts(self, scan):
        # the twistless core's form: one energy per row of a 2-D scan
        system, hs, ls = scan
        got = twist_scan(system, hs[:, None], np.column_stack([ls, -ls]))
        assert got.shape == (ls.size, 2)
        same_scan(got.ravel(), np.column_stack([
            twist_scan(system, hs, ls), twist_scan(system, hs, -ls)]).ravel())

    @pytest.mark.parametrize("name", sorted(SCAN_SYSTEMS))
    @pytest.mark.parametrize("h", [0.005, -0.02])
    def test_default_scans_with_window_edges(self, name, h):
        # the default scan window, widened past the cap: NaN exactly where
        # a torus leaves the window
        system = SCAN_SYSTEMS[name]
        l_lo, l_hi = _l_window(system, h, system.j_cap)
        ls = np.linspace(1.05 * l_lo, 1.05 * l_hi, 65)
        got = twist_scan(system, h, ls)
        same_scan(got, scalar_scan(system, h, ls.tolist()))
        assert np.isnan(got[[0, -1]]).all() and np.isfinite(got[32])

    @given(scans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_independent_of_the_scan_length(self, scan, rnd):
        # a point reads the same alone, in any part of the scan, or in all
        system, hs, ls = scan
        whole = twist_scan(system, hs, ls)
        cut = rnd.randint(0, ls.size)
        same_scan(np.concatenate([twist_scan(system, hs[:cut], ls[:cut]),
                                  twist_scan(system, hs[cut:], ls[cut:])]),
                  whole)
        i = rnd.randrange(ls.size)
        same_scan(twist_scan(system, float(hs[i]), ls[i:i + 1]),
                  whole[i:i + 1])
        assert twist_scan(system, hs[:0], ls[:0]).shape == (0,)

    @pytest.mark.parametrize("where", ["array form", "rejected lanes"])
    def test_programming_error_in_the_scan_surfaces(self, champagne,
                                                    monkeypatch, where):
        # only toolkit errors read as NaN; a bug in the scan's evaluation,
        # in the array form or in naming the lanes it rejects, must reach
        # the caller
        def broken(*args, **kwargs):
            raise TypeError("bug in the scan")

        if where == "array form":
            monkeypatch.setattr(type(champagne), "period_rotation_array",
                                broken)
        else:
            monkeypatch.setattr(type(champagne), "window",
                                lambda self, h, l: (None, np.full(
                                    h.shape, systems.BELOW_FLOOR)))
            monkeypatch.setattr(type(champagne), "rejection", broken)
        with pytest.raises(TypeError, match="bug in the scan"):
            twistless_point(champagne, 0.02)


class TestTwistlessPoint:
    @pytest.mark.parametrize("h", [0.02, -0.02, 0.05, -0.05])
    def test_unique_root_per_energy(self, champagne, h):
        l_star, resid = twistless_point(champagne, h)
        assert abs(resid) <= 1e-6
        assert np.sign(l_star) == -np.sign(h)

    def test_programming_error_is_not_read_as_no_root(self, champagne,
                                                      monkeypatch):
        # only toolkit errors mean "no torus here"; a bug must surface
        # (the package re-exports the function twist under the module's name)
        twist_module = importlib.import_module("focusfocus.twist")

        def broken(*args):
            raise TypeError("bug in the derivative")

        monkeypatch.setattr(twist_module, "derivatives", broken)
        with pytest.raises(TypeError):
            twistless_point(champagne, 0.02)

    def test_root_count_stable_under_refinement(self, champagne,
                                                monkeypatch):
        twist_module = importlib.import_module("focusfocus.twist")
        l64, _ = twistless_point(champagne, 0.02)
        monkeypatch.setattr(twist_module, "N_SCAN", 128)
        l128, _ = twistless_point(champagne, 0.02)
        assert l64 == pytest.approx(l128, abs=1e-10)

    def test_position_approaches_eq19_ratio(self, champagne):
        # l*(h)/h -> (omega^2 - alpha^2)/(omega (omega^2 + alpha^2))
        ff = eval_constants(champagne)
        target = 1.0 / expected_twistless_slope(ff.alpha, ff.omega)
        errs = []
        for h in (0.02, 0.01, 0.005):
            l_star, _ = twistless_point(champagne, h)
            errs.append(abs(l_star / h - target))
        assert errs[0] > errs[-1]
        assert errs[-1] <= 0.15 * abs(target)

    def test_h_zero_rejected(self, champagne):
        with pytest.raises(ValueError):
            twistless_point(champagne, 0.0)

    def test_no_root_reported(self, champagne0):
        # omega = 0: no twistless torus on the negative-h side in the window
        with pytest.raises(ScanError, match="no twistless"):
            twistless_point(champagne0, -0.01)


class TestTwistlessCurve:
    @pytest.fixture(scope="class")
    def curve(self, champagne):
        return twistless_curve(
            champagne, [0.005, -0.005, 0.01, -0.01, 0.02, -0.02])

    def test_tangent_slope(self, champagne):
        curve = twistless_curve(
            champagne, [0.005, -0.005, 0.01, -0.01, 0.02, -0.02])
        assert not curve.degenerate
        assert curve.expected_slope == pytest.approx(-9.0 / 14.0, abs=1e-9)
        assert curve.tangent_slope_fit == pytest.approx(
            curve.expected_slope, rel=0.15)
        # curve passes through the origin: |l*| -> 0 with h
        ordered = sorted(curve.samples, key=lambda s: abs(s.h))
        assert abs(ordered[0].l_star) < abs(ordered[-1].l_star)

    def test_degenerate_gamma0(self, champagne0):
        curve = twistless_curve(champagne0,
                                [0.002, -0.002, 0.005, -0.005, 0.01, -0.01])
        assert curve.degenerate
        assert math.isnan(curve.tangent_slope_fit)
        assert len(curve.ratios) >= 3
        # transversality lost: |h|/|l*| -> 0 toward the origin
        assert all(a > b for a, b in zip(curve.ratios, curve.ratios[1:]))
        assert curve.ratios[-1] < 0.15

    def test_degenerate_pendulum(self, pendulum):
        curve = twistless_curve(pendulum,
                                [0.003, -0.003, 0.007, -0.007, 0.015, -0.015])
        assert curve.degenerate
        assert len(curve.ratios) >= 3
        assert all(a > b for a, b in zip(curve.ratios, curve.ratios[1:]))

    @pytest.mark.parametrize("skew", [1e-12, -1e-12])
    def test_mirror_pair_takes_the_positive_root(self, pendulum, monkeypatch,
                                                 skew):
        # omega = 0: the half-axes give mirror roots +-l*, equal in |l|
        # only to rounding; which one is nearer the axis must not pick the
        # sign
        twist_module = importlib.import_module("focusfocus.twist")

        def mirrored(system, jobs):
            return [(0.0642 + skew if l_range[0] > 0 else -0.0642, 0.0)
                    for _, l_range in jobs]

        monkeypatch.setattr(twist_module, "_twistless_roots", mirrored)
        curve = twistless_curve(pendulum, [0.005])
        assert curve.samples[0].l_star == pytest.approx(0.0642, abs=1e-11)

    def test_distinct_half_axis_roots_take_the_nearer(self, pendulum,
                                                      monkeypatch):
        twist_module = importlib.import_module("focusfocus.twist")

        def lopsided(system, jobs):
            return [(0.0642 if l_range[0] > 0 else -0.05, 0.0)
                    for _, l_range in jobs]

        monkeypatch.setattr(twist_module, "_twistless_roots", lopsided)
        assert twistless_curve(pendulum, [0.005]).samples[0].l_star == -0.05

    def test_pendulum_mirror_roots_agree_to_rounding(self, pendulum):
        # the real pair the mirror rule relies on: |l*| on the two
        # half-axes agree far inside MIRROR_RTOL
        twist_module = importlib.import_module("focusfocus.twist")
        _, lmax = twist_module._l_window(pendulum, 0.007,
                                         twist_module.SCAN_CAP)
        (plus, _), (minus, _) = twist_module._twistless_roots(pendulum, [
            (0.007, (1e-4 * lmax, lmax)), (0.007, (-lmax, -1e-4 * lmax))])
        assert plus > 0 > minus
        assert abs(plus + minus) <= 1e-2 * twist_module.MIRROR_RTOL * plus
        assert twistless_curve(pendulum, [0.007]).samples[0].l_star == plus


def reference_curve(system, h_values):
    """The samples (h, l*, S(l*)) and failures of twistless_curve, by a
    loop of twistless_point over the energies."""
    samples, failures = [], []
    for h in sorted(h_values):
        if h == 0.0:
            failures.append((h, "h = 0 excluded"))
            continue
        try:
            samples.append((h, *twistless_point(system, h)))
        except ScanError as exc:
            failures.append((h, str(exc)))
    return samples, failures


CURVE_ENERGIES = [0.005, -0.005, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05,
                  0.0, 0.001, -0.002, 0.1]


@pytest.mark.parametrize("name", sorted(SCAN_SYSTEMS))
def test_curve_equals_the_per_energy_loop(name):
    # all energies' scans in one array call and their refinement points in
    # another, against one twistless_point (two calls) per energy: the same
    # roots, residuals and failures, bit for bit
    system = SCAN_SYSTEMS[name]
    curve = twistless_curve(system, CURVE_ENERGIES)
    samples, failures = reference_curve(system, CURVE_ENERGIES)
    got = [(s.h, s.l_star, s.s_residual) for s in curve.samples]
    assert np.array(got).tobytes() == np.array(samples).tobytes()
    assert curve.failures == failures
    assert len(samples) >= 4 and ("h = 0 excluded" in dict(failures)[0.0])


@pytest.mark.parametrize("name", ["champagne0", "pendulum"])
@pytest.mark.parametrize("h", [0.005, 0.01, 0.02])
def test_point_equals_curve_at_omega_zero(name, h):
    # omega = 0: C_h's window holds the mirror pair +-l*, and twistless_point
    # takes the half-axis root that twistless_curve takes, bit for bit
    system = SCAN_SYSTEMS[name]
    (sample,) = twistless_curve(system, [h]).samples
    got = np.array(twistless_point(system, h))
    assert got.tobytes() == np.array([sample.l_star,
                                      sample.s_residual]).tobytes()


@pytest.mark.parametrize("name", ["champagne0", "pendulum"])
def test_point_raises_the_curve_failure_at_omega_zero(name):
    # at h < 0 neither half-axis has a twistless torus
    system = SCAN_SYSTEMS[name]
    (failure,) = twistless_curve(system, [-0.01]).failures
    with pytest.raises(ScanError) as exc:
        twistless_point(system, -0.01)
    assert (-0.01, str(exc.value)) == failure
    assert "expected for one h sign at omega = 0" in failure[1]


def bisection_window(system, h, j_cap, steps=60, side=1.0):
    """The largest l >= 0 (side -1: the least l <= 0) with |j(h, l)| <=
    j_cap by bisection of [0, 1.5 j_cap] (side -1: [-1.5 j_cap, 0]), the
    reference for _l_window: steps halvings, as the scans once took them,
    or with steps None until the ends are adjacent floats."""
    lo, hi = 0.0, side * j_cap * 1.5
    for _ in itertools.count() if steps is None else range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if to_momentum_chart(system, EMValue(h, mid)).modulus <= j_cap:
            lo = mid
        else:
            hi = mid
    return lo


WINDOW_SYSTEMS = [*(ChampagneBottle(gamma=g)
                    for g in (-1.0, 0.0, 0.5, 1.3, 1.5)), SphericalPendulum()]


class TestScanWindow:
    @pytest.mark.parametrize("system", WINDOW_SYSTEMS, ids=lambda s: (
        f"{s.name}{getattr(s, 'gamma', '')}"))
    def test_default_energies_equal_the_60_step_bisection(self, system):
        # the energies twistless and C6 scan at their defaults: the same
        # upper ends keep their scans bit for bit, and at omega = 0, where
        # |j| is even in l, so do the lower ends
        mirrored = eval_constants(system).omega == 0.0
        for cap in (min(SCAN_CAP, system.j_cap), system.j_cap):
            for h in CURVE_ENERGIES + [0.002, -0.002]:
                if h:
                    l_lo, l_hi = _l_window(system, h, cap)
                    assert l_hi == bisection_window(system, h, cap)
                    assert l_lo == -l_hi or not mirrored

    @pytest.mark.parametrize("system", WINDOW_SYSTEMS, ids=lambda s: (
        f"{s.name}{getattr(s, 'gamma', '')}"))
    def test_every_scan_lane_within_the_cap(self, system, monkeypatch):
        # each side of the least |j| has its own end: at omega != 0 a
        # mirrored end passes the cap on one side of l = 0 (|j| = 0.2233 at
        # h = 0.05, gamma = 0.5).  At |h| = 0.29, past alpha SCAN_CAP, no
        # l = 0 lane is inside, and the window is one-sided
        twist_module = importlib.import_module("focusfocus.twist")
        lanes = []
        derivatives = twist_module.derivatives

        def recording(system, h, l, dh, dl):
            lanes.append(np.broadcast_arrays(h, l))
            return derivatives(system, h, l, dh, dl)

        monkeypatch.setattr(twist_module, "derivatives", recording)
        twistless_curve(system, [0.005, -0.005, 0.01, -0.01, 0.02, -0.02,
                                 0.05, -0.05, 0.29, -0.29])
        h, l = (np.concatenate([np.ravel(a[i]) for a in lanes])
                for i in (0, 1))
        assert np.all(system.window_radius(h, l) <= SCAN_CAP)

    @given(st.sampled_from(WINDOW_SYSTEMS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_last_l_inside_the_cap(self, system, data):
        ff = eval_constants(system)
        cap = min(SCAN_CAP, system.j_cap)
        edge = ff.alpha * cap
        h = data.draw(st.floats(-edge, edge, exclude_min=True,
                                exclude_max=True))
        window = _l_window(system, h, cap)

        def inside(l):
            return to_momentum_chart(system, EMValue(h, l)).modulus <= cap
        # |j| comes out of to_momentum_chart within a few EPS cap, and it
        # grows at sqrt(disc)/(alpha cap) in l at the window's end, so the
        # last l inside is fixed only to ~EPS alpha cap^2/sqrt(disc): where
        # j1's rounding makes |j| step back, two searches may end on two
        # neighbouring last l's
        disc = max(0.0, (ff.alpha ** 2 + ff.omega ** 2) * cap * cap - h * h)
        for side, got in zip((-1.0, 1.0), window):
            assert inside(got)
            assert not inside(math.nextafter(got, side * math.inf))
            assert (abs(got - bisection_window(system, h, cap, steps=None,
                                               side=side))
                    * math.sqrt(disc) <= 16.0 * EPS * ff.alpha * cap * cap)


def recorded_calls(monkeypatch):
    """The lanes of each lattice.derivatives call the twistless core makes
    from then on."""
    twist_module = importlib.import_module("focusfocus.twist")
    lanes = []
    derivatives = twist_module.derivatives

    def recording(system, h, l, dh, dl):
        lanes.append(np.size(l))
        return derivatives(system, h, l, dh, dl)

    monkeypatch.setattr(twist_module, "derivatives", recording)
    return lanes


@pytest.mark.parametrize("name", ["champagne", "pendulum"])
@pytest.mark.parametrize("n_energies", [4, 8, 16])
def test_curve_is_two_array_calls(monkeypatch, name, n_energies):
    # the scans of every energy (and half-axis) in one call, one lane per
    # point, the refinement points in a second, whatever the energy count;
    # then one call per round of Brent's iterates, one lane per live root
    system = SCAN_SYSTEMS[name]
    lanes = recorded_calls(monkeypatch)
    hs = np.geomspace(0.003, 0.05, n_energies // 2).tolist()
    curve = twistless_curve(system, hs + [-h for h in hs])
    jobs = n_energies * (2 if name == "pendulum" else 1)
    assert lanes[0] == jobs * 64 and lanes[1] % 3 == 0
    # a root per sample, on both half-axes at omega = 0 (mirror pairs)
    roots = len(curve.samples) * (2 if name == "pendulum" else 1)
    assert lanes[2] == roots and sorted(lanes[2:], reverse=True) == lanes[2:]


@pytest.mark.parametrize("name", sorted(SCAN_SYSTEMS))
def test_energy_without_a_scan_window_is_not_scanned(monkeypatch, name):
    # at |h| = 0.5 every l puts |j| above the scan cap 0.2, so no l is left
    # to scan: no lane goes to such an energy, and its failure says why
    system = SCAN_SYSTEMS[name]
    lanes = recorded_calls(monkeypatch)
    curve = twistless_curve(system, [0.5, -0.5, 0.005, -0.005, 0.01, -0.01])
    jobs = 4 * (2 if curve.degenerate else 1)
    assert lanes[0] == jobs * 64
    for h in (0.5, -0.5):
        reason = (f"no twistless torus on C_h, h={h:.6g}: every l puts |j| "
                  "above the scan cap 0.2")
        assert dict(curve.failures)[h] == reason
        del lanes[:]
        with pytest.raises(ScanError) as exc:
            twistless_point(system, h)
        assert str(exc.value) == reason and not lanes


@pytest.mark.parametrize("name,calls", [("champagne", 39), ("pendulum", 24)])
def test_brent_reuses_the_scanned_values(monkeypatch, name, calls):
    # Brent starts from the scanned S at both bracket ends, and S(l*) is the
    # value it holds at its root: at the default energies only Brent's
    # iterates are evaluated after the scan and its refinement
    lanes = recorded_calls(monkeypatch)
    system = cli.build_system({"system": name})
    twistless_curve(system, list(cli.READS["twistless"]["h_values"]))
    assert sum(lanes[2:]) == calls
