import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (BracketError, EMValue, EventSpec, FlowError,
                        NoTorusError, QuadratureSpec, StencilError,
                        align_angle, fd_derivative, find_root_bracketed,
                        integrate_flow, quad_singular)
from focusfocus.lattice import reduced_period_rotation
from focusfocus.systems import turning_points

TWO_PI = 2.0 * math.pi


def oscillator(t, y):
    return [y[1], -y[0]]


class TestIntegrateFlow:
    def test_harmonic_first_return(self):
        # start on the section x = 0 moving upward; the next rising crossing
        # is one full period later
        ev = EventSpec(lambda y: y[0], direction=+1, count=1)
        traj = integrate_flow(oscillator, [0.0, 1.0], t_max=10.0, events=[ev],
                              tol=1e-12)
        t1 = traj.event_records[0][0]
        assert t1 == pytest.approx(TWO_PI, abs=1e-9)

    def test_energy_conservation_long_run(self, champagne):
        field = champagne.flow_field
        seed = champagne.flow_seed(EMValue(0.1, 0.05))
        traj = integrate_flow(field, seed, t_max=100.0, tol=1e-12)
        assert traj.max_relative_drift(champagne.flow_hamiltonian) <= 1e-10

    def test_energy_conservation_pendulum(self, pendulum):
        c = EMValue(0.05, 0.02)
        traj = integrate_flow(pendulum.flow_field, pendulum.flow_seed(c),
                              t_max=100.0, tol=pendulum.flow_rtol)
        assert traj.max_relative_drift(pendulum.flow_hamiltonian) <= 1e-10

    def test_return_event_exists_on_champagne_torus(self, champagne):
        c = EMValue(0.1, 0.05)
        section = EventSpec(champagne.flow_section_value, -1.0, count=2,
                            level=champagne.flow_section_level(c))
        traj = integrate_flow(champagne.flow_field, champagne.flow_seed(c),
                              t_max=1e3, events=[section], tol=1e-10)
        assert len(traj.event_records) >= 2
        assert traj.event_records[1][0] < 1e3

    def test_event_count_not_reached(self):
        ev = EventSpec(lambda y: y[0], direction=+1, count=3)
        with pytest.raises(FlowError, match="exceeded"):
            integrate_flow(oscillator, [0.0, 1.0], t_max=8.0, events=[ev])


def blowup(t, y):
    # y' = y^2: y(t) = y0 / (1 - y0 t) leaves every float at t = 1/y0
    return [y[0] * y[0]]


class TestBatchedFlow:
    def test_step_underflow_raises(self):
        # as solve_ivp's status -1: the step falls below ten ulps of t
        with pytest.raises(FlowError, match="spacing between numbers"):
            integrate_flow(blowup, [1.0], t_max=2.0)

    def test_underflow_stays_in_its_lane(self):
        traj = integrate_flow(blowup, [[1.0, 0.1]], t_max=2.0)
        assert isinstance(traj.errors[0], FlowError)
        assert "spacing between numbers" in str(traj.errors[0])
        assert traj.errors[1] is None
        assert traj.times[-1, 1] == 2.0
        assert traj.states[-1, 0, 1] == pytest.approx(0.1 / 0.8, rel=1e-10)
        assert traj.times.shape == (len(traj.times), 2)
        assert traj.states.shape == (len(traj.times), 1, 2)

    def test_lanes_match_single_seeds(self):
        # per-lane levels, budgets and event counts; every lane agrees
        # with its own one-seed run
        seeds = np.array([[0.0, 0.3, -0.5], [1.0, 0.8, 0.2]])
        levels = np.array([0.0, 0.1, -0.2])
        ev = EventSpec(lambda y: y[0], direction=+1, count=2, level=levels)
        traj = integrate_flow(oscillator, seeds, t_max=[20.0, 20.0, 30.0],
                              events=[ev])
        for i in range(3):
            one = integrate_flow(
                oscillator, seeds[:, i], t_max=20.0,
                events=[EventSpec(lambda y, v=levels[i]: y[0] - v,
                                  direction=+1, count=2)])
            assert traj.errors[i] is None
            got = [(t, k) for t, _, k in traj.event_records[i]]
            assert got == pytest.approx([(t, k) for t, _, k
                                         in one.event_records], abs=1e-12)
        # the seed on the section (lane 0) is not a crossing
        assert traj.event_records[0][0][0] == pytest.approx(TWO_PI,
                                                            abs=1e-9)

    def test_budget_is_per_lane(self):
        ev = EventSpec(lambda y: y[0], direction=+1, count=2)
        traj = integrate_flow(oscillator, [[0.0, 0.0], [1.0, 1.0]],
                              t_max=[20.0, 8.0], events=[ev])
        assert traj.errors[0] is None
        assert len(traj.event_records[0]) == 2
        assert isinstance(traj.errors[1], FlowError)
        assert "exceeded with 1/2" in str(traj.errors[1])

    def test_drift_matches_loop_reference(self, champagne):
        c = EMValue(0.1, 0.05)
        seeds = np.column_stack([champagne.flow_seed(c),
                                 champagne.flow_seed(EMValue(0.05, -0.02))])
        traj = integrate_flow(champagne.flow_field, seeds, t_max=5.0)
        drift = traj.max_relative_drift(champagne.flow_hamiltonian)
        for i in range(2):
            lane = traj.states[:, :, i]
            v0 = champagne.flow_hamiltonian(lane[0])
            ref = max(abs(champagne.flow_hamiltonian(s) - v0) for s in lane)
            assert drift[i] == ref / (1.0 + abs(v0))


class TestQuadSingular:
    def test_inverse_sqrt(self):
        spec = QuadratureSpec(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                              singularity_exponents=(0.5, 0.0))
        assert quad_singular(spec) == pytest.approx(2.0, rel=1e-12)

    def test_double_sqrt_beta(self):
        spec = QuadratureSpec(lambda x: 1.0 / math.sqrt(x * (1.0 - x)),
                              0.0, 1.0, singularity_exponents=(0.5, 0.5))
        assert quad_singular(spec) == pytest.approx(math.pi, rel=1e-12)

    def test_turning_point_period_equals_flow(self, champagne):
        # [DERIVED] cross-engine oracle: the raw period integral over the
        # reduced orbit, declared with sqrt endpoints, against the flow T
        c = EMValue(0.1, 0.05)
        prof = champagne.reduced_profile(c)
        spec = QuadratureSpec(lambda r: 2.0 / math.sqrt(prof.p(r)),
                              prof.r_lo, prof.r_hi,
                              singularity_exponents=(0.5, 0.5))
        T_raw = quad_singular(spec)
        T_flow, _ = reduced_period_rotation(champagne, c, engine="flow")
        assert T_raw == pytest.approx(T_flow, rel=1e-8)

    def test_invariant_under_tol_halving(self):
        spec = QuadratureSpec(lambda x: math.cos(x) / math.sqrt(x), 0.0, 2.0,
                              singularity_exponents=(0.5, 0.0))
        v1 = quad_singular(spec, rel_tol=1e-10)
        v2 = quad_singular(spec, rel_tol=5e-11)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            quad_singular(QuadratureSpec(lambda x: x, 1.0, 0.0))

    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_exactness(self, b, c0, c1):
        # exponent (0, 0) path must agree with the closed form
        spec = QuadratureSpec(lambda x: c0 + c1 * x, 0.0, b)
        exact = c0 * b + c1 * b * b / 2.0
        assert quad_singular(spec) == pytest.approx(exact, abs=1e-11)


class TestFindRoot:
    def test_cosine(self):
        assert find_root_bracketed(math.cos, (0.0, 2.0)) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_sqrt2(self):
        r = find_root_bracketed(lambda x: x * x - 2.0, (1.0, 2.0))
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, (0.0, 1.0))

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 3.0), st.floats(0.2, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_never_leaves_bracket(self, root, off, scale):
        f = lambda x: scale * (x - root) * (1.0 + (x - root) ** 2)
        a, b = root - off, root + 2 * off
        x = find_root_bracketed(f, (a, b))
        assert a <= x <= b
        assert x == pytest.approx(root, abs=1e-9)


class TestFdDerivative:
    def test_sin_at_zero(self):
        assert fd_derivative(math.sin, 0.0, "richardson") == pytest.approx(
            1.0, abs=1e-8)

    def test_cubic(self):
        assert fd_derivative(lambda x: x ** 3, 2.0, "richardson") == \
            pytest.approx(12.0, abs=1e-6)

    def test_cubic_central_within_truncation(self):
        # central at the default step carries the full O(h^2) truncation
        est = fd_derivative(lambda x: x ** 3, 2.0, "central")
        assert est == pytest.approx(12.0, abs=1e-5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            fd_derivative(math.sin, 0.0, "fwd")

    def test_toolkit_error_becomes_stencil_error(self):
        def edge(x):
            if x > 1.0:
                raise NoTorusError("outside the image")
            return x
        with pytest.raises(StencilError):
            fd_derivative(edge, 1.0)

    def test_programming_error_propagates(self):
        def buggy(x):
            raise TypeError("bug")
        with pytest.raises(TypeError):
            fd_derivative(buggy, 1.0, "richardson")

    @pytest.mark.parametrize("scheme", ["central", "richardson"])
    def test_vector_valued_matches_components(self, scheme):
        # a vector f differentiates each component exactly as a scalar f
        est = fd_derivative(lambda x: np.array([math.sin(x), x ** 3]), 0.7,
                            scheme)
        assert est.tolist() == [fd_derivative(math.sin, 0.7, scheme),
                                fd_derivative(lambda x: x ** 3, 0.7, scheme)]

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_richardson_beats_central_on_smooth(self, x):
        # richardson's O(h^4) must sit inside the central O(h^2) gap
        exact = math.cos(x)
        c = fd_derivative(math.sin, x, "central", step=1e-4)
        r = fd_derivative(math.sin, x, "richardson", step=1e-4)
        assert abs(r - exact) <= max(abs(c - exact), 1e-12)
        assert abs(c - exact) <= 1e-7   # h^2 * |f'''|/6 bound with margin


class TestAlignAngle:
    @given(st.floats(-50.0, 50.0), st.integers(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, ref, k):
        v = ref + 0.3 + k * TWO_PI
        assert align_angle(v, ref) == pytest.approx(ref + 0.3, abs=1e-9)

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_within_half_period(self, v, ref):
        assert abs(align_angle(v, ref) - ref) <= math.pi + 1e-9


class TestTwistBracketFromScan:
    def test_twist_root_within_scan_bracket(self, champagne):
        # [DERIVED] the brute-force sign scan supplies the bracket; the
        # bracketed root then lands inside it with |S| below tolerance
        from focusfocus import twist
        h = 0.02
        ls = np.linspace(-0.15, -0.001, 24)
        sv = [twist(champagne, EMValue(h, l)) for l in ls]
        flips = [i for i in range(len(ls) - 1) if sv[i] * sv[i + 1] < 0]
        assert len(flips) == 1
        a, b = ls[flips[0]], ls[flips[0] + 1]
        lstar = find_root_bracketed(
            lambda l: twist(champagne, EMValue(h, l)), (a, b))
        assert a <= lstar <= b
        assert abs(twist(champagne, EMValue(h, lstar))) <= 1e-8
