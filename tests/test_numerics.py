import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from focusfocus import numerics
from focusfocus import (BracketError, EMValue, FlowError, align_angle,
                        find_root_bracketed, integrate_flow)
from focusfocus.numerics import QuadratureSpec, linear_quantiles, quad_singular
from focusfocus.lattice import reduced_period_rotation
from reference_profiles import champagne_profile, flow_seeds

TWO_PI = 2.0 * math.pi


def oscillator(y):
    return [y[1], -y[0]]


def amplitude(y):
    return y[0] * y[0] + y[1] * y[1]


def upward(y):
    # -x, which falls through zero where x rises through it
    return -y[0]


def x_rate(y, f):
    # -dx/dt, the rate of the sections level - y[0], which fall where x
    # rises through the level
    return -f[0]


def never(y):
    # a section no lane crosses: each runs to its t_max
    return np.ones(y.shape[-1])


def no_rate(y, f):
    raise AssertionError("a section no lane crosses has no landing to rate")


def one_lane(seed):
    return np.array(seed, dtype=float)[:, None]


def assert_ran_out(traj, i, t_max):
    """Lane i ran to its t_max without a crossing, and has no landing."""
    assert isinstance(traj.errors[i], FlowError)
    assert str(traj.errors[i]) == (f"t_max={t_max:.6g} exceeded with 0/1 "
                                   "section crossings")
    assert traj.times[-1, i] == t_max
    assert np.isnan(traj.landing_t[i]) and np.isnan(traj.landing_y[:, i]).all()


class TestIntegrateFlow:
    def test_harmonic_first_return(self):
        # start on the section x = 0 moving upward; the next upward crossing
        # (-x falling through 0) is one full period later
        traj = integrate_flow(oscillator, one_lane([0.0, 1.0]), t_max=10.0,
                              invariant=amplitude, section=upward,
                              rate=x_rate, tol=1e-12)
        assert traj.errors == [None]
        assert traj.landing_t[0] == pytest.approx(TWO_PI, abs=1e-9)
        assert traj.landing_y[:, 0] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_energy_conservation_long_run(self, champagne):
        traj = integrate_flow(champagne.flow_field,
                              flow_seeds(champagne, EMValue(0.1, 0.05)),
                              t_max=100.0,
                              invariant=champagne.flow_hamiltonian,
                              section=never, rate=no_rate, tol=1e-12)
        assert traj.drift[0] <= 1e-10
        assert_ran_out(traj, 0, 100.0)

    def test_energy_conservation_pendulum(self, pendulum):
        c = EMValue(0.05, 0.02)
        traj = integrate_flow(pendulum.flow_field,
                              flow_seeds(pendulum, c)[:, :1], t_max=100.0,
                              invariant=pendulum.flow_hamiltonian,
                              section=never, rate=no_rate,
                              tol=pendulum.flow_rtol)
        assert traj.drift[0] <= 1e-10
        assert_ran_out(traj, 0, 100.0)

    def test_return_event_exists_on_champagne_torus(self, champagne):
        # the seed at the inner turning point lands at the outer one
        seed = flow_seeds(champagne, EMValue(0.1, 0.05))
        traj = integrate_flow(champagne.flow_field, seed, t_max=1e3,
                              invariant=champagne.flow_hamiltonian,
                              section=champagne.flow_section_value,
                              rate=champagne.flow_section_rate, tol=1e-10)
        assert traj.errors[0] is None
        assert 0.0 < traj.landing_t[0] <= traj.times[-1, 0] < 1e3
        assert abs(champagne.flow_section_value(traj.landing_y)[0]) <= 1e-12

    def test_one_seed_is_one_column(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_flow(oscillator, [0.0, 1.0], t_max=1.0,
                           invariant=amplitude, section=upward, rate=x_rate)


def blowup(y):
    # y' = y^2: y(t) = y0 / (1 - y0 t) leaves every float at t = 1/y0
    return [y[0] * y[0]]


class TestBatchedFlow:
    def test_step_underflow_raises(self):
        # as solve_ivp's status -1: the step falls below ten ulps of t
        traj = integrate_flow(blowup, [[1.0]], t_max=2.0,
                              invariant=lambda y: y[0], section=never,
                              rate=no_rate)
        assert isinstance(traj.errors[0], FlowError)
        assert "spacing between numbers" in str(traj.errors[0])
        assert np.isnan(traj.landing_t[0])

    def test_zero_error_grows_by_max_factor(self):
        # a field that vanishes estimates every step's error at exactly 0,
        # and the step grows by MAX_FACTOR each time, as in solve_ivp
        traj = integrate_flow(lambda y: 0.0 * y, [[1.0]], t_max=1.0,
                              invariant=lambda y: y[0], section=never,
                              rate=no_rate)
        steps = np.diff(traj.times[:, 0])
        assert steps[0] == 1e-6 and traj.times[-1, 0] == 1.0
        assert steps[1:-1] / steps[:-2] == pytest.approx(
            numerics.MAX_FACTOR, rel=1e-9)
        assert (traj.states == 1.0).all()
        assert_ran_out(traj, 0, 1.0)

    def test_underflow_stays_in_its_lane(self):
        traj = integrate_flow(blowup, [[1.0, 0.1]], t_max=2.0,
                              invariant=lambda y: y[0], section=never,
                              rate=no_rate)
        assert isinstance(traj.errors[0], FlowError)
        assert "spacing between numbers" in str(traj.errors[0])
        assert_ran_out(traj, 1, 2.0)
        assert traj.times[-1, 1] == 2.0
        assert traj.states[-1, 0, 1] == pytest.approx(0.1 / 0.8, rel=1e-10)
        assert traj.times.shape == (len(traj.times), 2)
        assert traj.states.shape == (len(traj.times), 1, 2)

    def test_lanes_match_single_seeds(self):
        # per-lane levels, carried as a third, constant state component
        # that the section subtracts, and budgets; every lane agrees with
        # its own one-lane run
        def field(y):
            return [y[1], -y[0], 0.0 * y[2]]

        def section(y):
            return y[2] - y[0]

        seeds = np.array([[0.0, 0.3, -0.5], [1.0, 0.8, 0.2],
                          [0.0, 0.1, -0.2]])
        traj = integrate_flow(field, seeds, t_max=[20.0, 20.0, 30.0],
                              invariant=amplitude, section=section,
                              rate=x_rate)
        for i in range(3):
            one = integrate_flow(field, seeds[:, i:i + 1], t_max=20.0,
                                 invariant=amplitude, section=section,
                                 rate=x_rate)
            assert traj.errors[i] is None and one.errors[0] is None
            assert traj.landing_t[i] == pytest.approx(one.landing_t[0],
                                                      abs=1e-12)
            assert traj.landing_y[:, i] == pytest.approx(
                one.landing_y[:, 0], abs=1e-12)
            assert traj.drift[i] == pytest.approx(one.drift[0], abs=1e-14)
        # the seed on the section (lane 0) is not a crossing
        assert traj.landing_t[0] == pytest.approx(TWO_PI, abs=1e-9)
        # each lane stopped at its landing's step: lanes 1 and 2 cross
        # their levels before 2 pi
        assert (traj.landing_t[1:] < TWO_PI).all()
        assert (traj.times[-1] < [20.0, 20.0, 30.0]).all()

    def test_zero_rate_fails_only_its_lane(self):
        # a third, constant component tags lane 1, whose section rate reads
        # 0: it cannot land, and lane 0 lands as if alone
        def field(y):
            return [y[1], -y[0], 0.0 * y[2]]

        traj = integrate_flow(field, [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                              t_max=20.0, invariant=amplitude,
                              section=upward,
                              rate=lambda y, f: -f[0] * (1.0 - y[2]))
        assert traj.errors[0] is None
        assert traj.landing_t[0] == pytest.approx(TWO_PI, abs=1e-9)
        assert isinstance(traj.errors[1], FlowError)
        assert "no landing on the section" in str(traj.errors[1])
        assert np.isnan(traj.landing_t[1])
        assert np.isnan(traj.landing_y[:, 1]).all()

    def test_budget_is_per_lane(self):
        # both lanes start on the section, one period before their first
        # crossing; lane 1's budget ends first
        traj = integrate_flow(oscillator, [[0.0, 0.0], [1.0, 1.0]],
                              t_max=[20.0, 6.0], invariant=amplitude,
                              section=upward, rate=x_rate)
        assert traj.errors[0] is None
        assert traj.landing_t[0] == pytest.approx(TWO_PI, abs=1e-9)
        assert_ran_out(traj, 1, 6.0)

    def test_drift_matches_loop_reference(self, champagne):
        # a fifth, constant state component tags each lane, so the blocks
        # the kernel passes to the invariant can be told apart by lane; the
        # running maximum must equal the max-then-divide formula over every
        # state the kernel evaluated, lane by lane
        seeds = flow_seeds(champagne, EMValue(0.1, 0.05),
                           EMValue(0.05, -0.02))
        seeds = np.vstack([seeds, [0.0, 1.0]])
        seen = []

        def field(y):
            return [*champagne.flow_field(y[:4]), 0.0 * y[4]]

        def invariant(y):
            seen.append(y.copy())
            return champagne.flow_hamiltonian(y)

        traj = integrate_flow(field, seeds, t_max=[5.0, 3.0],
                              invariant=invariant, section=never,
                              rate=no_rate)
        assert_ran_out(traj, 0, 5.0)
        assert_ran_out(traj, 1, 3.0)
        states = [[], []]
        for block in seen:
            for s in block.T:
                states[int(s[4])].append(s)
        for i, lane in enumerate(states):
            assert len(lane) >= 2 and lane[0].tolist() == seeds[:, i].tolist()
            v0 = champagne.flow_hamiltonian(lane[0])
            ref = max(abs(champagne.flow_hamiltonian(s) - v0) for s in lane)
            assert traj.drift[i] == ref / (1.0 + abs(v0))
        assert traj.drift[0] > 0.0


class TestNonFinite:
    @pytest.mark.parametrize("kwargs", [dict(tol=math.nan),
                                        dict(tol=math.inf),
                                        dict(t_max=math.inf),
                                        dict(t_max=[1.0, math.nan])])
    def test_rejects_a_non_finite_tol_or_budget(self, kwargs):
        args = {"t_max": 1.0, "invariant": amplitude, "section": upward,
                "rate": x_rate, **kwargs}
        with pytest.raises(ValueError, match="finite"):
            integrate_flow(oscillator, [[0.0, 0.3], [1.0, 0.8]], **args)

    def test_nan_lane_fails_alone(self):
        # a NaN seed makes its step size NaN, which is never "tiny": the
        # lane fails at once and its neighbour lands as it does alone
        traj = integrate_flow(oscillator, [[math.nan, 0.3], [1.0, 0.8]],
                              t_max=20.0, invariant=amplitude,
                              section=upward, rate=x_rate)
        alone = integrate_flow(oscillator, one_lane([0.3, 0.8]), t_max=20.0,
                               invariant=amplitude, section=upward,
                               rate=x_rate)
        assert isinstance(traj.errors[0], FlowError)
        assert "non-finite step size" in str(traj.errors[0])
        assert np.isnan(traj.landing_t[0])
        assert traj.errors[1] is None and alone.errors[0] is None
        assert traj.landing_t[1].tobytes() == alone.landing_t[0].tobytes()
        assert (traj.landing_y[:, 1].tobytes()
                == alone.landing_y[:, 0].tobytes())
        assert (traj.states[-1, :, 1].tolist()
                == alone.states[-1, :, 0].tolist())


def test_dop853_tableau_is_scipys():
    from scipy.integrate import DOP853
    for name in ("n_stages", "error_estimator_order"):
        assert getattr(numerics.DOP853, name) == getattr(DOP853, name)
    for name in ("A", "B", "E3", "E5"):
        ours, theirs = getattr(numerics.DOP853, name), getattr(DOP853, name)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()


@pytest.mark.parametrize("name", ["champagne", "pendulum"])
def test_rk_step_matches_scipy(request, name):
    # one DOP853 step of each system's field, against scipy's at
    # first_step = h with a tolerance loose enough to accept it: scipy sums
    # the stages by BLAS dot, so the two agree to the rounding of the sums
    from scipy.integrate import DOP853
    system = request.getfixturevalue(name)
    y0 = flow_seeds(system, EMValue(0.1, 0.05))[:, 0]
    h = 0.05
    ref = DOP853(lambda t, y: system.flow_field(y[:, None])[:, 0], 0.0, y0,
                 t_bound=1.0, first_step=h, rtol=1e-3, atol=1e-6)
    ref.step()
    assert ref.status == "running" and ref.t == h
    K = np.empty((numerics.DOP853.n_stages + 1, y0.size, 1))
    got = numerics._rk_step(system.flow_field, y0[:, None],
                            system.flow_field(y0[:, None]), np.array([h]), K)
    bound = 4.0 * numerics.EPS * np.maximum(1.0, np.abs(ref.y))
    assert (np.abs(got[:, 0] - ref.y) <= bound).all()


@st.composite
def lane_blocks(draw):
    """Arrays indexed by lane last, real or complex, 1-D or (d, m) blocks,
    with a mask over their m lanes: drawn, all false or all true."""
    m = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (1,), (3,), (6,)]))
    blocks = [draw(arrays(dtype, lead + (m,)))
              for dtype in draw(st.lists(st.sampled_from([float, complex]),
                                         min_size=1, max_size=3))]
    mask = draw(st.one_of(arrays(bool, (m,)), st.just(np.zeros(m, bool)),
                          st.just(np.ones(m, bool))))
    return mask, blocks


@given(lane_blocks())
@settings(max_examples=200, deadline=None)
def test_lanes_gathers_as_a_mask(case):
    mask, blocks = case
    got = numerics._lanes(mask, *blocks)
    assert len(got) == len(blocks)
    for a, b in zip(got, blocks):
        ref = b[..., mask]
        assert (a.dtype, a.shape) == (ref.dtype, ref.shape)
        assert a.tobytes() == ref.tobytes()


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
        gamma = champagne.gamma
        spec = QuadratureSpec(
            lambda r: 2.0 / math.sqrt(champagne_profile(gamma, c, r)),
            *champagne.reduced_profile(c), singularity_exponents=(0.5, 0.5))
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


def solve(f, bracket, f_ends):
    """Drive find_root_bracketed's iterates through f: (root, f there)."""
    steps = find_root_bracketed(bracket, f_ends)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def root_of(f, bracket):
    """find_root_bracketed, given f at the bracket ends."""
    return solve(f, bracket, (f(bracket[0]), f(bracket[1])))


class TestFindRoot:
    def test_cosine(self):
        x, fx = root_of(math.cos, (0.0, 2.0))
        assert x == pytest.approx(math.pi / 2, abs=1e-12)
        assert fx == math.cos(x)

    def test_sqrt2(self):
        r, _ = root_of(lambda x: x * x - 2.0, (1.0, 2.0))
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            root_of(lambda x: x * x + 1.0, (0.0, 1.0))

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 3.0), st.floats(0.2, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_never_leaves_bracket(self, root, off, scale):
        f = lambda x: scale * (x - root) * (1.0 + (x - root) ** 2)
        a, b = root - off, root + 2 * off
        x, fx = root_of(f, (a, b))
        assert a <= x <= b
        assert x == pytest.approx(root, abs=1e-9)
        assert fx == f(x)


# drawn functions with one simple root r in the bracket; their shapes reach
# each of Brent's steps: interpolation, extrapolation and bisection
SHAPES = {
    "cubic": lambda x, r, k: k * (x - r) * (1.0 + (x - r) ** 2),
    "exp": lambda x, r, k: math.expm1(k * (x - r)),
    "atan": lambda x, r, k: math.atan(k * (x - r)) + 1e-3 * (x - r),
    "flat": lambda x, r, k: (x - r) ** 3 + 1e-9 * abs(k) * (x - r),
}
# the (xtol, rtol) of find_root_bracketed, the one caller of the port
BRENT_TOLS = [(numerics.ROOT_XTOL, 8 * numerics.EPS)]


class TestBrentPort:
    @pytest.mark.parametrize("xtol,rtol", BRENT_TOLS)
    @given(shape=st.sampled_from(sorted(SHAPES)), root=st.floats(-5.0, 5.0),
           k=st.one_of(st.floats(0.05, 20.0), st.floats(-20.0, -0.05)),
           left=st.floats(1e-6, 3.0), right=st.floats(1e-6, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_scipy_brentq(self, xtol, rtol, shape, root, k,
                                           left, right):
        from scipy.optimize import brentq

        def f(x):
            return SHAPES[shape](x, root, k)

        a, b = root - left, root + right
        want = brentq(f, a, b, xtol=xtol, rtol=rtol)
        x, fx = solve(f, (a, b), (f(a), f(b)))
        assert x == want and fx == f(x)

    @given(shape=st.sampled_from(sorted(SHAPES)), root=st.floats(-5.0, 5.0),
           left=st.floats(1e-6, 3.0), right=st.floats(1e-6, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_find_root_evaluates_each_end_once(self, shape, root, left,
                                               right):
        # brentq evaluates f(a) and f(b) a second time; the port takes them
        # in, and evaluates f only at its iterates
        from scipy.optimize import brentq
        calls = []

        def f(x):
            calls.append(x)
            return SHAPES[shape](x, root, 1.5)

        a, b = root - left, root + right
        ends = (f(a), f(b))
        calls.clear()
        x, _ = solve(f, (a, b), ends)
        mine = len(calls)
        want, info = brentq(f, a, b, xtol=numerics.ROOT_XTOL,
                            rtol=8 * numerics.EPS, full_output=True)
        assert x == want
        assert mine == info.function_calls - 2

    def test_no_convergence_raises_bracket_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "BRENT_MAX_ITER", 3)
        with pytest.raises(BracketError, match="did not converge"):
            root_of(math.cos, (0.0, 2.0))

    @pytest.mark.parametrize("nan_at_ends", [True, False])
    def test_nan_raises_bracket_error(self, nan_at_ends):
        def f(x):
            at_end = x in (0.0, 2.0)
            return math.nan if at_end == nan_at_ends else math.cos(x)

        with pytest.raises(BracketError, match="(?i)nan"):
            root_of(f, (0.0, 2.0))


class TestLinearQuantiles:
    # signed zeros are drawn as +0.0: they compare equal, and np.sort and
    # np.quantile's partition may order a -0.0 and a +0.0 either way
    @given(row=st.lists(st.floats(-1e300, 1e300).map(lambda x: x + 0.0),
                        min_size=1, max_size=80),
           qs=st.lists(st.one_of(st.floats(0.0, 1.0),
                                 st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
                       min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_np_quantile(self, row, qs):
        values = np.array(row)
        got = linear_quantiles(values, qs)
        assert [x.hex() for x in got] == \
            [float(np.quantile(values, q)).hex() for q in qs]
        assert values.tolist() == row   # the input is left unsorted


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
        lstar, _ = root_of(lambda l: twist(champagne, EMValue(h, l)), (a, b))
        assert a <= lstar <= b
        assert abs(twist(champagne, EMValue(h, lstar))) <= 1e-8
