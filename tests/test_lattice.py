import math

import numpy as np
import pytest

from focusfocus import (EMValue, MomentumValue, annulus_sweep, cross_check,
                        eval_constants, fit_asymptotic_model,
                        from_momentum_chart, period_lattice,
                        reduced_period_rotation, to_momentum_chart)
from focusfocus import acceptance, lattice
from focusfocus.errors import FitError, FlowError, WindowError
from focusfocus.lattice import PeriodLatticeSample, SweepSample

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


class TestMomentumChart:
    def test_origin(self, champagne):
        j = to_momentum_chart(champagne, EMValue(0.0, 0.0))
        assert (j.j1, j.j2) == (0.0, 0.0)

    def test_stated_linear_map(self, champagne):
        # alpha = sqrt(2), omega = 1/2: c = (sqrt(2), 1) -> ((sqrt2-0.5)/sqrt2, 1)
        j = to_momentum_chart(champagne, EMValue(SQRT2, 1.0))
        assert j.j1 == pytest.approx((SQRT2 - 0.5) / SQRT2, abs=1e-12)
        assert j.j2 == 1.0

    def test_pendulum_identity(self, pendulum):
        j = to_momentum_chart(pendulum, EMValue(0.07, 0.01))
        assert j.j1 == pytest.approx(0.07, abs=1e-15)
        assert j.j2 == 0.01

    def test_roundtrip(self, champagne):
        c = EMValue(0.034, -0.021)
        c2 = from_momentum_chart(champagne, to_momentum_chart(champagne, c))
        assert c2.h == pytest.approx(c.h, abs=1e-15)
        assert c2.l == c.l


class TestCrossEngine:
    def test_champagne_reference_torus(self, champagne):
        res = cross_check(champagne, EMValue(0.1, 0.05))
        assert res["rel_dT"] <= 1e-7
        assert abs(res["theta_quad"] - res["theta_flow"]) <= 1e-7

    def test_pendulum_reference_torus(self, pendulum):
        # reduced engine vs direct flow on the sphere
        res = cross_check(pendulum, EMValue(0.1, 0.05))
        assert res["rel_dT"] <= 1e-7
        assert abs(res["theta_quad"] - res["theta_flow"]) <= 1e-7

    @pytest.mark.parametrize("name,j_mod", [("champagne", 1e-4),
                                            ("pendulum", 1e-3)])
    @pytest.mark.parametrize("angle", [0.5, 2.0, 4.0])
    def test_domain_inner_edge(self, request, monkeypatch, name, j_mod,
                               angle):
        # the near-fiber tori at the inner |j| edge of the C1 sample domain
        # are the flow oracle's hardest: longest returns, tightest passages
        system = request.getfixturevalue(name)
        integrate_flow = lattice.integrate_flow
        trajectories = []

        def recording_flow(*args, **kwargs):
            trajectories.append(integrate_flow(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
        c = from_momentum_chart(system, MomentumValue(
            j_mod * math.cos(angle), j_mod * math.sin(angle)))
        res = cross_check(system, c, cross_tol=1e-7)
        assert res["rel_dT"] <= 1e-7 and res["rel_dtheta"] <= 1e-7
        (traj,) = trajectories
        assert traj.drift[0] <= 1e-10


def batch_tori(system, n=4, seed=7):
    return lattice.sample_cross_tori(system, np.random.default_rng(seed), n)


class TestBatchedCrossCheck:
    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_batch_matches_one_torus_calls(self, request, name):
        system = request.getfixturevalue(name)
        tori = batch_tori(system)
        for c, res in zip(tori, lattice.cross_checks(system, tori)):
            T, theta = reduced_period_rotation(system, c, engine="flow")
            assert res["T_flow"] == pytest.approx(T, rel=1e-10)
            assert res["theta_flow"] == pytest.approx(theta, rel=1e-10)

    @pytest.mark.parametrize("fault", ["budget", "drift"])
    def test_failing_lane_is_isolated(self, champagne, monkeypatch, fault):
        tori = batch_tori(champagne)
        clean = lattice.cross_checks(champagne, tori)
        integrate_flow = lattice.integrate_flow

        def faulty_flow(field, p0, t_max, **kwargs):
            if fault == "budget":
                # lane 1 stops well before its first return
                t_max = np.array(t_max, dtype=float)
                t_max[1] = 1.0
                return integrate_flow(field, p0, t_max, **kwargs)
            traj = integrate_flow(field, p0, t_max, **kwargs)
            traj.drift[1] = 1e-6   # lane 1's energy drifts
            return traj

        monkeypatch.setattr(lattice, "integrate_flow", faulty_flow)
        results = lattice.cross_checks(champagne, tori)
        assert isinstance(results[1], FlowError)
        assert ("exceeded" if fault == "budget" else "energy drift") \
            in str(results[1])
        for k in (0, 2, 3):
            for key, value in clean[k].items():
                assert results[k][key] == pytest.approx(value, rel=1e-10)

    def test_crossings_land_on_the_section(self, monkeypatch):
        # C1's two 50-lane batches: Henon's step puts every recorded
        # crossing on its section to rounding
        integrate_flow = lattice.integrate_flow
        calls = []

        def recording_flow(*args, **kwargs):
            calls.append((kwargs["section"], integrate_flow(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
        assert acceptance.c1_cross_engine(
            acceptance.AcceptanceConfig()).status == "pass"
        assert [traj.final.shape[1] for _, traj in calls] == [50, 50]
        for section, traj in calls:
            for level, records in zip(section.level, traj.event_records):
                assert len(records) == 2
                for _, state in records:
                    assert abs(section.fn(state) - level) <= \
                        1e-13 * (1.0 + abs(level))

    def test_sampler_draws_the_reference_sequence(self, champagne,
                                                  pendulum):
        # the draw loop C1 and crosscheck each carried before they shared
        # sample_cross_tori; C1 continues one generator across systems
        def reference(system, rng, n, r_lo, r_hi, margin):
            out = []
            while len(out) < n:
                rho = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                th = rng.uniform(0.0, TWO_PI)
                if abs(math.sin(th)) < margin:
                    continue
                out.append(from_momentum_chart(system, MomentumValue(
                    rho * math.cos(th), rho * math.sin(th))))
            return out

        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for system, domain in ((champagne, (1e-4, 0.12, 0.05)),
                               (pendulum, (1e-3, 0.1, 0.1))):
            got = lattice.sample_cross_tori(system, rng_a, 20)
            assert got == reference(system, rng_b, 20, *domain)
        window = (1e-4, 1e-2)
        got = lattice.sample_cross_tori(
            champagne, np.random.default_rng(3), 20, window=window)
        assert got == reference(champagne, np.random.default_rng(3), 20,
                                1e-4, 1e-2, 0.05)

    def test_sampler_rejects_a_window_outside_the_domain(self, champagne):
        with pytest.raises(ValueError, match="misses"):
            lattice.sample_cross_tori(champagne, np.random.default_rng(0), 1,
                                      window=(0.2, 0.3))


class TestThetaStructure:
    def test_reflection_antisymmetry_gamma0(self, champagne0):
        _, th_plus = reduced_period_rotation(champagne0, EMValue(0.1, 0.05))
        _, th_minus = reduced_period_rotation(champagne0, EMValue(0.1, -0.05))
        assert th_minus == pytest.approx(-th_plus, abs=1e-10)

    def test_period_log_divergence_along_ray(self, champagne):
        # alpha T / (-ln|j|) -> 1, monotonically from above (sigma1 > 0)
        ff = eval_constants(champagne)
        errs = []
        for rho in (1e-2, 1e-3, 1e-4, 1e-5):
            j = MomentumValue(rho * math.cos(0.8), rho * math.sin(0.8))
            T, _ = reduced_period_rotation(champagne,
                                           from_momentum_chart(champagne, j))
            errs.append(abs(ff.alpha * T / (-math.log(rho)) - 1.0))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        assert errs[-1] < 0.25

    def test_l_axis_convention_continuous_from_above(self, champagne):
        # Theta(h, +0) is the l -> 0+ limit: pi per center passage plus the
        # rotating-frame part gamma T
        c0 = EMValue(0.05, 0.0)
        T0, th0 = reduced_period_rotation(champagne, c0)
        assert th0 == pytest.approx(0.5 * T0 + math.pi, abs=1e-10)
        _, th_eps = reduced_period_rotation(champagne, EMValue(0.05, 1e-7))
        assert th_eps == pytest.approx(th0, abs=1e-4)

    def test_pendulum_axis_pole_count(self, pendulum):
        # one pole passage below the critical energy, two above
        _, th_low = reduced_period_rotation(pendulum, EMValue(-0.05, 0.0))
        _, th_high = reduced_period_rotation(pendulum, EMValue(0.05, 0.0))
        assert th_low == pytest.approx(math.pi, abs=1e-12)
        assert th_high == pytest.approx(TWO_PI, abs=1e-12)

    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_signed_zero_l_is_its_own_torus(self, name, request):
        # -0.0 == +0.0, yet the axis passages take the sign of l: nothing
        # that keys tori by value may hand one the other's Theta
        system = request.getfixturevalue(name)
        minus, plus = EMValue(0.0031, -0.0), EMValue(0.0031, 0.0)
        _, th_minus = reduced_period_rotation(system, minus)
        _, th_plus = reduced_period_rotation(system, plus)
        assert th_minus == system.period_rotation(minus)[1]
        assert th_plus == system.period_rotation(plus)[1] > th_minus


class TestPeriodLattice:
    def test_rotation_identity(self, champagne):
        # 2 pi W = tau1 A0 - tau2 holds identically
        ff = eval_constants(champagne)
        samp = period_lattice(champagne, EMValue(0.07, -0.02))
        lhs = TWO_PI * samp.rotation_number
        rhs = samp.tau1 * ff.A0 - samp.tau2
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tau1_plus_log_bounded_on_ray(self, champagne):
        # tau1 + ln|j| = sigma1(j): smooth, so nearly constant near 0
        vals = []
        for rho in np.geomspace(1e-4, 1e-2, 9):
            j = MomentumValue(rho * math.cos(0.3), rho * math.sin(0.3))
            samp = period_lattice(champagne, from_momentum_chart(champagne, j))
            vals.append(samp.tau1 + math.log(rho))
        assert max(vals) - min(vals) < 0.1

    def test_tau2_gains_two_pi_per_positive_loop(self, champagne):
        angles = np.linspace(0.1, 0.1 + TWO_PI, 181)
        theta_ref = None
        tau2 = []
        for th in angles:
            j = MomentumValue(0.05 * math.cos(th), 0.05 * math.sin(th))
            samp = period_lattice(champagne, from_momentum_chart(champagne, j),
                                  theta_ref=theta_ref)
            theta_ref = samp.theta
            tau2.append(samp.tau2)
        assert tau2[-1] - tau2[0] == pytest.approx(TWO_PI, abs=1e-6)

    def test_branch_flips_once_across_cut(self, champagne):
        # transporting across the positive-j1 ray changes the sheet by one
        angles = np.linspace(0.3, TWO_PI + 0.2, 101)   # crosses theta = 2 pi
        theta_ref = None
        branches = []
        for th in angles:
            j = MomentumValue(0.05 * math.cos(th), 0.05 * math.sin(th))
            samp = period_lattice(champagne, from_momentum_chart(champagne, j),
                                  theta_ref=theta_ref)
            theta_ref = samp.theta
            branches.append(samp.branch)
        assert branches[0] == 0
        assert branches[-1] == -1
        assert set(np.diff(branches)) <= {0, -1}

    def test_loop_not_encircling_origin_returns(self, champagne):
        # rectangle in the upper half plane: Theta and branch return
        corners = [(0.02, 0.01), (0.06, 0.01), (0.06, 0.05), (0.02, 0.05),
                   (0.02, 0.01)]
        path = []
        for (a1, a2), (b1, b2) in zip(corners[:-1], corners[1:]):
            for t in np.linspace(0.0, 1.0, 12, endpoint=False):
                path.append(MomentumValue(a1 + t * (b1 - a1),
                                          a2 + t * (b2 - a2)))
        path.append(path[0])
        theta_ref = None
        first = last = None
        for j in path:
            samp = period_lattice(champagne, from_momentum_chart(champagne, j),
                                  theta_ref=theta_ref)
            theta_ref = samp.theta
            if first is None:
                first = samp
            last = samp
        assert abs(last.theta - first.theta) <= 1e-6
        assert last.branch == first.branch


@pytest.fixture(scope="module")
def sweep(champagne):
    return annulus_sweep(champagne, 1e-4, 1e-2, 8, 16)


class TestAnnulusSweep:
    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_one_call_equals_transport_row_by_row(self, name, request):
        # the whole sweep in one array call, against each row transported
        # on its own
        system = request.getfixturevalue(name)
        n_r, n_theta = 5, 12
        got = annulus_sweep(system, 1e-4, 1e-2, n_r, n_theta)
        assert len(got) == n_r * n_theta
        for row in range(n_r):
            samples = got[row * n_theta:(row + 1) * n_theta]
            carried = lattice.transport(system, [s.c for s in samples])
            assert [s.lattice for s in samples] == carried

    def test_failed_torus_raises_the_scalar_exception(self, champagne):
        # the inner row sits below the |j| floor: its first torus fails
        # the sweep, with reduced_period_rotation's exception
        rho = 1e-6
        c = from_momentum_chart(champagne, MomentumValue(
            rho * math.cos(lattice.RAY_OFFSET),
            rho * math.sin(lattice.RAY_OFFSET)))
        with pytest.raises(WindowError) as want:
            reduced_period_rotation(champagne, c)
        with pytest.raises(WindowError) as got:
            annulus_sweep(champagne, rho, 1e-2, 3, 8)
        assert str(got.value) == str(want.value)


class TestAsymptoticFit:
    def test_log_coefficients_unity(self, sweep):
        model = fit_asymptotic_model(sweep)
        assert model.log_coeff_tau1 == pytest.approx(1.0, abs=0.05)
        assert model.log_coeff_tau2 == pytest.approx(1.0, abs=0.05)

    def test_a0_recovered(self, sweep, champagne):
        model = fit_asymptotic_model(sweep)
        a0 = eval_constants(champagne).A0
        assert model.A0_fit == pytest.approx(a0, rel=0.02)

    def test_residual_decays_toward_origin(self, champagne):
        inner = fit_asymptotic_model(annulus_sweep(champagne, 1e-4, 1e-3,
                                                   6, 12))
        outer = fit_asymptotic_model(annulus_sweep(champagne, 1e-3, 1e-2,
                                                   6, 12))
        assert inner.residual_tau1 < outer.residual_tau1
        assert inner.residual_tau2 < outer.residual_tau2

    def test_synthetic_model_recovery(self):
        # samples generated from the model class itself: sigma1 = 2 + j1,
        # sigma2 = -pi + 0.3 j2, alpha = 1, omega = 0.3
        alpha, omega = 1.0, 0.3
        samples = []
        for rho in np.geomspace(1e-4, 1e-2, 8):
            for th in 0.01 + TWO_PI * np.arange(16) / 16:
                j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
                tau1 = (2.0 + j.j1) - math.log(rho)
                tau2 = (-math.pi + 0.3 * j.j2) + th
                T = tau1 / alpha
                theta = omega * T - tau2
                samples.append(SweepSample(
                    c=EMValue(alpha * j.j1 + omega * j.j2, j.j2), j=j,
                    theta_tracked=float(th),
                    lattice=PeriodLatticeSample(T=T, theta=theta, tau1=tau1,
                                                tau2=tau2, branch=0)))
        model = fit_asymptotic_model(samples)
        assert model.log_coeff_tau1 == pytest.approx(1.0, abs=1e-9)
        assert model.log_coeff_tau2 == pytest.approx(1.0, abs=1e-9)
        assert model.sigma1_0 == pytest.approx(2.0, abs=1e-6)
        assert model.sigma2_0 == pytest.approx(0.0, abs=1e-6)

    def test_rejects_thin_annulus(self, champagne):
        samples = annulus_sweep(champagne, 9.9e-3, 1e-2, 3, 16)
        with pytest.raises(FitError):
            fit_asymptotic_model(samples)

    def test_rejects_missing_sectors(self, champagne):
        sweep = annulus_sweep(champagne, 1e-3, 1e-2, 6, 16)
        half = [s for s in sweep if s.j.j2 > 0]
        with pytest.raises(FitError, match="sectors"):
            fit_asymptotic_model(half)
