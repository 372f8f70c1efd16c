import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from focusfocus import (EMValue, MomentumValue, SphericalPendulum,
                        annulus_sweep, cross_check, eval_constants,
                        fit_asymptotic_model, from_momentum_chart,
                        period_lattice, reduced_period_rotation,
                        to_momentum_chart)
from focusfocus import acceptance, cli, lattice, numerics
from focusfocus.errors import FitError, FlowError, WindowError
from focusfocus.lattice import PolarTori

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
        assert traj.drift.max() <= 1e-10


def batch_tori(system, n=4, seed=7):
    return lattice.sample_cross_tori(system, random.Random(seed), n)


class TestBatchedCrossCheck:
    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_batch_matches_one_torus_calls(self, request, name):
        system = request.getfixturevalue(name)
        tori = batch_tori(system)
        results, _ = lattice.cross_checks(system, tori)
        for c, res in zip(tori, results):
            T, theta = reduced_period_rotation(system, c, engine="flow")
            assert res["T_flow"] == pytest.approx(T, rel=1e-10)
            assert res["theta_flow"] == pytest.approx(theta, rel=1e-10)

    @pytest.mark.parametrize("fault", ["budget", "drift"])
    def test_failing_lane_is_isolated(self, champagne, monkeypatch, fault):
        tori = batch_tori(champagne)
        clean, _ = lattice.cross_checks(champagne, tori)
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
        results, _ = lattice.cross_checks(champagne, tori)
        assert isinstance(results[1], FlowError)
        assert ("exceeded" if fault == "budget" else "energy drift") \
            in str(results[1])
        for k in (0, 2, 3):
            for key, value in clean[k].items():
                assert results[k][key] == pytest.approx(value, rel=1e-10)

    def test_crossings_land_on_the_section(self, monkeypatch, report_cfg):
        # C1's batches, 50 champagne lanes and 2 x 50 pendulum legs: Henon's
        # step puts every recorded crossing on its section to rounding
        integrate_flow = lattice.integrate_flow
        calls = []

        def recording_flow(*args, **kwargs):
            calls.append((kwargs["section"], integrate_flow(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
        assert acceptance.c1_cross_engine(report_cfg)[0] == "pass"
        assert [traj.states.shape[2] for _, traj in calls] == [50, 100]
        for section, traj in calls:
            for records in traj.event_records:
                assert len(records) == 1
                for _, state in records:
                    assert abs(section.fn(state)) <= 1e-13

    def test_landing_is_lane_independent(self, monkeypatch, report_cfg):
        # four of C1's tori per system, as one batch and each alone: every
        # lane (one per champagne torus, two per pendulum torus) takes the
        # same accepted states and lands on the same bits, with the same
        # drift and error, though in the batch it steps beside lanes that
        # retry a rejected step while it moves on, or the reverse
        champ, _, pend = acceptance.systems(report_cfg)
        rng = random.Random(report_cfg["seed"])
        integrate_flow = lattice.integrate_flow
        runs = []

        def recording_flow(*args, **kwargs):
            runs.append(integrate_flow(*args, **kwargs))
            return runs[-1]

        def lanes(traj):
            # each lane's distinct accepted (time, state) rows, its drift,
            # error and landings, as bytes where they are floats
            moved = np.diff(traj.times, axis=0) != 0.0
            out = []
            for j in range(traj.times.shape[1]):
                rows = [0, *(np.flatnonzero(moved[:, j]) + 1)]
                error = traj.errors[j]
                out.append((traj.times[rows, j].tobytes(),
                            traj.states[rows, :, j].tobytes(),
                            traj.drift[j].tobytes(),
                            None if error is None else str(error),
                            [(t.hex(), s.tobytes())
                             for t, s in traj.event_records[j]]))
            return out

        monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
        for system in (champ, pend):
            tori = lattice.sample_cross_tori(system, rng,
                                             report_cfg["n_tori"])
            lattice._tori_flow(system, tori[:4])
            traj = runs[-1]
            legs = traj.times.shape[1] // 4
            assert [len(lane) for lane in traj.event_records] == [1] * 4 * legs
            # a row where a lane stands still before its last time retried
            # a rejected step; every row has a lane that moved
            moved = np.diff(traj.times, axis=0) != 0.0
            retried = ~moved & (traj.times[1:] < traj.times[-1])
            assert (retried.any(axis=1) & moved.any(axis=1)).any()
            batch = lanes(traj)
            for k, c in enumerate(tori[:4]):
                lattice._tori_flow(system, [c])
                assert lanes(runs[-1]) == batch[k * legs:(k + 1) * legs]

    def test_one_landing_call_per_integration(self, monkeypatch,
                                              report_cfg):
        # C1's 50 champagne lanes and 100 pendulum legs land their 150
        # crossings in two calls
        land = numerics._land
        calls = []

        def counting_land(field, rate, t, *args):
            calls.append(t.size)
            return land(field, rate, t, *args)

        monkeypatch.setattr(numerics, "_land", counting_land)
        assert acceptance.c1_cross_engine(report_cfg)[0] == "pass"
        assert calls == [50, 100]

    def test_sampler_draws_the_reference_sequence(self, champagne,
                                                  pendulum):
        # the draw loop C1 and crosscheck each carried before they shared
        # sample_cross_tori; C1 continues one generator across systems
        def reference(system, rng, n, r_lo, r_hi):
            out = []
            while len(out) < n:
                rho = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                th = rng.uniform(0.0, TWO_PI)
                out.append(from_momentum_chart(system, MomentumValue(
                    rho * math.cos(th), rho * math.sin(th))))
            return out

        rng_a, rng_b = random.Random(5), random.Random(5)
        for system, domain in ((champagne, (1e-4, 0.12)),
                               (pendulum, (1e-3, 0.1))):
            got = lattice.sample_cross_tori(system, rng_a, 20)
            assert got == reference(system, rng_b, 20, *domain)
        window = (1e-4, 1e-2)
        got = lattice.sample_cross_tori(
            champagne, random.Random(3), 20, window=window)
        assert got == reference(champagne, random.Random(3), 20,
                                1e-4, 1e-2)

    def test_sampler_draws_a_pinned_first_torus(self, champagne):
        # C1's first torus at the default seed, from the standard library's
        # Mersenne Twister: a change to the draw stream shows here
        (c,) = lattice.sample_cross_tori(
            champagne, random.Random(cli.RNG_SEED), 1)
        assert c.h == pytest.approx(0.001480072287734807, rel=1e-15)
        assert c.l == pytest.approx(0.00029719441082549236, rel=1e-15)

    def test_sampler_draws_near_the_axis_and_the_oracle_agrees_there(
            self, champagne, pendulum):
        # at seed 1, two of 20 tori per system lie within the |sin arg
        # zeta| margins (0.05, 0.1) that once kept C1 off the l = 0 axis,
        # and both engines agree on each of them
        for system, margin in ((champagne, 0.05), (pendulum, 0.1)):
            tori = lattice.sample_cross_tori(system, random.Random(1), 20)
            near = [c for c in tori if abs(c.l)
                    < margin * to_momentum_chart(system, c).modulus]
            assert len(near) == 2
            results, _ = lattice.cross_checks(system, near)
            assert all(isinstance(res, dict) for res in results), results

    def test_sampler_rejects_a_window_outside_the_domain(self, champagne):
        with pytest.raises(ValueError, match="misses"):
            lattice.sample_cross_tori(champagne, random.Random(0), 1,
                                      window=(0.2, 0.3))


def full_return_reference(system, tori):
    """(T, Theta) of each torus by a full return, independent of the
    reversor and of the oracle's azimuth reading: seeded at its outer
    turning point (r_hi, or z2), timed between its first and second
    falling crossings of the mid-orbit level of r^2, or z.  The azimuth
    phi is integrated, as phi' = (x ydot - y xdot)/r^2, in a state row
    after the system's own.  Each lane's level rides as a last, constant
    state component, which the section subtracts."""
    def field(s):
        f = system.flow_field(s[:-2])
        phi_dot = (s[0] * f[1] - s[1] * f[0]) / (s[0] * s[0] + s[1] * s[1])
        return np.concatenate([f, [phi_dot], 0.0 * s[-1:]])

    seeds, budgets = [], []
    for c in tori:
        lo, hi = system.reduced_profile(c)
        if system.name == "champagne":
            seeds.append([hi, 0.0, 0.0, c.l / hi, 0.0,
                          0.5 * (lo * lo + hi * hi)])
        else:
            x0 = math.sqrt(1.0 - hi * hi)
            seeds.append([x0, 0.0, hi, 0.0, c.l / x0, 0.0, 0.0,
                          0.5 * (lo + hi)])
        j = to_momentum_chart(system, c)
        budgets.append(numerics.T_BUDGET_FACTOR
                       * (1.0 + abs(math.log(j.modulus)))
                       / eval_constants(system).alpha)
    if system.name == "champagne":
        section = numerics.EventSpec(
            lambda s: s[0] * s[0] + s[1] * s[1] - s[5],
            lambda s, f: 2.0 * (s[0] * f[0] + s[1] * f[1]), count=2)
    else:
        section = numerics.EventSpec(lambda s: s[2] - s[7],
                                     lambda s, f: f[2], count=2)
    traj = numerics.integrate_flow(
        field, np.array(seeds).T, t_max=np.array(budgets),
        invariant=system.flow_hamiltonian, section=section,
        tol=system.flow_rtol)
    assert traj.errors == [None] * len(tori)
    assert traj.drift.max() <= lattice.ENERGY_DRIFT_TOL
    return [(t2 - t1, float(s2[-2] - s1[-2]))
            for (t1, s1), (t2, s2) in traj.event_records]


class TestHalfReturn:
    def test_matches_the_full_return_reference(self, report_cfg):
        # C1's default 2 x 50 tori: half a return, doubled, is a full one
        champ, _, pend = acceptance.systems(report_cfg)
        rng = random.Random(report_cfg["seed"])
        for system in (champ, pend):
            tori = lattice.sample_cross_tori(system, rng,
                                             report_cfg["n_tori"])
            flows, _ = lattice._tori_flow(system, tori)
            for (T, theta), (T_ref, theta_ref) in zip(
                    flows, full_return_reference(system, tori)):
                assert abs(T - T_ref) <= 1e-9 * T_ref
                assert abs(theta - theta_ref) <= 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_step_turns_stay_in_the_half_circle(self, monkeypatch, seed,
                                                report_cfg):
        # C1's tori at seeds 1-5: every accepted step's wrapped azimuth turn
        # in the turning frame lies in sign(l) [0, pi], well inside the
        # guard window, so no turn count is in doubt
        integrate_flow = lattice.integrate_flow
        calls = []

        def recording_flow(*args, **kwargs):
            calls.append(integrate_flow(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
        cfg = {**report_cfg, "seed": seed}
        champ, _, pend = acceptance.systems(cfg)
        rng = random.Random(seed)
        for system, legs in ((champ, 1), (pend, 2)):
            tori = lattice.sample_cross_tori(system, rng, cfg["n_tori"])
            flows, _ = lattice._tori_flow(system, tori)
            assert all(isinstance(f, tuple) for f in flows)
            traj = calls.pop()
            sign = np.repeat([math.copysign(1.0, c.l) for c in tori], legs)
            turns = sign * lattice._frame_turns(
                traj.states, traj.times, system.frame_rate, sign)
            assert 0.0 <= turns.min() and turns.max() <= math.pi

    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_a_turn_outside_the_guard_fails_its_torus(self, request,
                                                      monkeypatch, name):
        # the first recorded position of torus 1's first leg turned back by
        # a quarter circle: that step reads a turn below sign(l) (-pi/4),
        # which no monotone azimuth makes, so torus 1 fails with FlowError
        # and the other tori keep their values
        system = request.getfixturevalue(name)
        tori = batch_tori(system)
        clean, _ = lattice._tori_flow(system, tori)
        integrate_flow = lattice.integrate_flow
        legs = {"champagne": 1, "pendulum": 2}[name]
        bad = legs   # the first leg of torus 1

        def rotated_flow(*args, **kwargs):
            traj = integrate_flow(*args, **kwargs)
            back = -math.copysign(0.5 * math.pi, tori[1].l)
            x, y = traj.states[1, :2, bad]
            traj.states[1, 0, bad] = x * math.cos(back) - y * math.sin(back)
            traj.states[1, 1, bad] = x * math.sin(back) + y * math.cos(back)
            return traj

        monkeypatch.setattr(lattice, "integrate_flow", rotated_flow)
        flows, _ = lattice._tori_flow(system, tori)
        assert isinstance(flows[1], FlowError)
        assert "turns outside sign(l) [-0.25 pi, 1.25 pi]" in str(flows[1])
        assert [flows[k] for k in (0, 2, 3)] == [clean[k] for k in (0, 2, 3)]

    @pytest.mark.parametrize("name,h,axis_error", [
        ("champagne", 0.01, True), ("champagne", -0.01, False),
        ("pendulum", 0.01, True), ("pendulum", -0.01, True)])
    def test_l_axis_tori(self, request, name, h, axis_error):
        # r_lo = 0 (champagne, g > 0) and z1 = -1 (pendulum) are passages,
        # not turning points: no seed there, and a FlowError says so
        system = request.getfixturevalue(name)
        c = EMValue(h, 0.0)
        (res,), _ = lattice.cross_checks(system, [c])
        if axis_error:
            with pytest.raises(FlowError, match="l = 0 axis"):
                reduced_period_rotation(system, c, "flow")
            assert isinstance(res, FlowError) and "l = 0 axis" in str(res)
        else:
            T, theta = reduced_period_rotation(system, c, "flow")
            assert (res["T_flow"], res["theta_flow"]) == (T, theta)
            assert res["rel_dT"] <= 1e-7 and res["rel_dtheta"] <= 1e-7

    def test_pendulum_orbit_below_the_equator(self):
        # 2 (1 + h) < l^2: both turning points lie below z = 0, where the
        # pendulum's legs land, so the oracle has no landing for them
        system = SphericalPendulum(j_cap=1.5)
        c = EMValue(-0.9, 0.6)
        z1, z2 = system.reduced_profile(c)
        assert z1 < z2 < 0.0
        with pytest.raises(FlowError, match="misses the equator"):
            reduced_period_rotation(system, c, "flow")


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
        _, theta, _ = system.period_rotation_array(np.array([0.0031, 0.0031]),
                                                   np.array([-0.0, 0.0]))
        assert [th_minus, th_plus] == theta.tolist()
        assert th_plus > th_minus
        # and so does the complex step, whose values are its real parts
        values = lattice.derivatives(system, 0.0031, [-0.0, 0.0], 1.0, 1.0)[1]
        assert values == pytest.approx([th_minus, th_plus], abs=1e-14)


class TestPeriodLattice:
    def test_rotation_identity(self, champagne):
        # 2 pi W = tau1 A0 - tau2 holds identically
        ff = eval_constants(champagne)
        samp = period_lattice(champagne, EMValue(0.07, -0.02))
        lhs = samp.theta   # 2 pi W
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


def synthetic_samples(r_in, r_out):
    """8 x 16 samples generated from the model class itself on |j| in
    [r_in, r_out]: sigma1 = 2 + j1, sigma2 = -pi + 0.3 j2, alpha = 1,
    omega = 0.3."""
    alpha, omega = 1.0, 0.3
    rho = np.geomspace(r_in, r_out, 8)[:, None]
    th = np.broadcast_to(0.01 + TWO_PI * np.arange(16) / 16, (8, 16))
    j1, j2 = rho * np.cos(th), rho * np.sin(th)
    tau1 = (2.0 + j1) - np.log(rho)
    tau2 = (-math.pi + 0.3 * j2) + th
    T = tau1 / alpha
    theta = omega * T - tau2
    return PolarTori(arg=th, j1=j1, j2=j2, h=alpha * j1 + omega * j2, l=j2,
                     T=T, theta=theta, branch=np.zeros(th.shape, dtype=int),
                     tau1=tau1, tau2=tau2)


def designs(samples):
    """The (design, target) pairs fit_asymptotic_model fits on samples:
    tau1 on (-ln|j|, 1, j1, j2) and tau2 on (arg zeta, 1, j1, j2)."""
    j1, j2 = samples.j1.ravel(), samples.j2.ravel()
    rho, ones = np.hypot(j1, j2), np.ones(j1.size)
    return [(np.column_stack([-np.log(rho), ones, j1, j2]),
             samples.tau1.ravel()),
            (np.column_stack([samples.arg.ravel(), ones, j1, j2]),
             samples.tau2.ravel())]


def assert_matches_lapack(X, y):
    """_lstsq on (X, y) equals LAPACK's least squares and condition
    number: each coefficient to 1e-12 relative, one below 1e-9 of the
    largest (the fit's rounding noise, such as C3's j2 coefficient of tau1,
    ~1e-14) to 1e-12 of the largest; cond(X^T X) to 1e-6 relative; the rms
    residual to 1e-12 of max|y|."""
    coef, cond, resid = lattice._lstsq(X, y)
    want = np.linalg.lstsq(X, y, rcond=None)[0]
    big = np.abs(want).max()
    scale = np.where(np.abs(want) < 1e-9 * big, big, np.abs(want))
    assert np.all(np.abs(coef - want) <= 1e-12 * scale), (coef, want)
    assert cond == pytest.approx(np.linalg.cond(X.T @ X), rel=1e-6)
    want_resid = math.sqrt(np.mean((X @ want - y) ** 2))
    assert abs(resid - want_resid) <= 1e-12 * np.abs(y).max()


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
        assert got.T.shape == (n_r, n_theta)
        ff = eval_constants(system)
        assert np.array_equal(got.tau1, ff.alpha * got.T)
        assert np.array_equal(got.tau2, ff.omega * got.T - got.theta)
        for row in range(n_r):
            *carried, failed = lattice.transport(system, got.h[row],
                                                 got.l[row])
            assert failed == {}
            for a, b in zip((got.T, got.theta, got.branch), carried):
                assert np.array_equal(a[row], b)

    def test_tori_are_the_scalar_polar_points(self, champagne):
        # (j1, j2) are rho cos arg and rho sin arg with math's cos and sin,
        # and (h, l) their scalar chart images, to the last bit
        got = annulus_sweep(champagne, 1e-4, 1e-2, 3, 8)
        rhos = np.geomspace(1e-4, 1e-2, 3).tolist()
        for (r, k), th in np.ndenumerate(got.arg):
            j = MomentumValue(rhos[r] * math.cos(th), rhos[r] * math.sin(th))
            c = from_momentum_chart(champagne, j)
            assert (got.j1[r, k], got.j2[r, k]) == (j.j1, j.j2)
            assert (got.h[r, k], got.l[r, k]) == (c.h, c.l)

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
        # 2 pi W + arg zeta ~ A0 (-ln|j|) + smooth: a least-squares fit on
        # the sweep, in the fit_asymptotic_model basis, recovers A0
        rho = np.hypot(sweep.j1, sweep.j2).ravel()
        X = np.column_stack([-np.log(rho), np.ones_like(rho),
                             sweep.j1.ravel(), sweep.j2.ravel()])
        coef, *_ = np.linalg.lstsq(
            X, (sweep.theta + sweep.arg).ravel(), rcond=None)
        a0 = eval_constants(champagne).A0
        assert coef[0] == pytest.approx(a0, rel=0.02)

    def test_residual_decays_toward_origin(self, champagne):
        inner = fit_asymptotic_model(annulus_sweep(champagne, 1e-4, 1e-3,
                                                   6, 12))
        outer = fit_asymptotic_model(annulus_sweep(champagne, 1e-3, 1e-2,
                                                   6, 12))
        assert inner.residual_tau1 < outer.residual_tau1
        assert inner.residual_tau2 < outer.residual_tau2

    def test_synthetic_model_recovery(self):
        model = fit_asymptotic_model(synthetic_samples(1e-4, 1e-2))
        assert model.log_coeff_tau1 == pytest.approx(1.0, abs=1e-9)
        assert model.log_coeff_tau2 == pytest.approx(1.0, abs=1e-9)
        assert model.sigma1_0 == pytest.approx(2.0, abs=1e-6)
        assert model.sigma2_0 == pytest.approx(0.0, abs=1e-6)

    def test_rejects_thin_annulus(self, champagne):
        samples = annulus_sweep(champagne, 9.9e-3, 1e-2, 3, 16)
        with pytest.raises(FitError):
            fit_asymptotic_model(samples)

    def test_rejects_an_ill_conditioned_design(self):
        # the model's samples at |j| in [1e-9, 1e-7]: the radial span and
        # the sectors pass, but the j1 and j2 columns are ~1e-8 of the
        # others, so cond(X^T X) ~ 1e18
        with pytest.raises(FitError, match="design matrix ill-conditioned"):
            fit_asymptotic_model(synthetic_samples(1e-9, 1e-7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_design(self, bad):
        X = np.column_stack([np.arange(8.0), np.ones(8)])
        X[3, 0] = bad
        with pytest.raises(FitError, match="ill-conditioned"):
            lattice._lstsq(X, np.ones(8))

    def test_rotations_that_do_not_converge_fail_the_fit(self, monkeypatch,
                                                          sweep):
        # C3's designs take more than one sweep of rotations
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", 1)
        with pytest.raises(FitError, match="did not converge in 1 sweeps"):
            fit_asymptotic_model(sweep)

    @pytest.mark.parametrize("r_in, r_out, n_r, n_theta", [
        (1e-4, 1e-2, 10, 16),      # C3's annulus
        (1e-3, 1e-2, 5, 16)])
    def test_fit_matches_lapack_on_sweeps(self, champagne, r_in, r_out, n_r,
                                          n_theta):
        for X, y in designs(annulus_sweep(champagne, r_in, r_out, n_r,
                                          n_theta)):
            assert_matches_lapack(X, y)

    def test_fit_matches_lapack_on_the_synthetic_model(self):
        for X, y in designs(synthetic_samples(1e-4, 1e-2)):
            assert_matches_lapack(X, y)

    @given(n=st.integers(4, 40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fit_matches_lapack_on_well_conditioned_designs(self, n, data):
        # 2 I stacked on n drawn rows in [-1, 1]: X^T X lies between 4 I
        # and (4 + 4 n) I, so cond(X^T X) <= 1 + n
        unit = st.floats(-1.0, 1.0)
        X = np.vstack([2.0 * np.eye(4),
                       data.draw(arrays(float, (n, 4), elements=unit))])
        beta = data.draw(arrays(float, 4, elements=st.floats(0.1, 10.0)))
        noise = data.draw(arrays(float, n + 4, elements=st.floats(-0.1, 0.1)))
        assert_matches_lapack(X, X @ beta + noise)

    def test_rejects_missing_sectors(self, champagne):
        sweep = annulus_sweep(champagne, 1e-3, 1e-2, 6, 16)
        upper = sweep.j2 > 0
        half = PolarTori(**{f.name: getattr(sweep, f.name)[upper]
                            for f in dataclasses.fields(sweep)})
        with pytest.raises(FitError, match="sectors"):
            fit_asymptotic_model(half)
