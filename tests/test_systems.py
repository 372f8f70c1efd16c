import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from focusfocus import (ChampagneBottle, EMValue, NoTorusError,
                        SystemRejected, TurningPointDegeneracy, WindowError,
                        eval_constants, integrate_flow, make_system)
from focusfocus.systems import SystemDefinition
from reference_profiles import (champagne_profile, champagne_profile_dr,
                                pendulum_profile)

SQRT2 = math.sqrt(2.0)


class TestEvalConstants:
    def test_champagne_gamma_half(self, champagne):
        # analytic oracle: rotation term and radial part commute, so the
        # quadruple is +-sqrt(2) +- i gamma
        ff = eval_constants(champagne)
        assert ff.alpha == pytest.approx(SQRT2, abs=1e-9)
        assert ff.omega == pytest.approx(0.5, abs=1e-9)
        assert ff.A0 == pytest.approx(0.5 / SQRT2, abs=1e-9)

    def test_champagne_gamma_zero(self, champagne0):
        assert eval_constants(champagne0).omega == pytest.approx(0.0, abs=1e-12)

    def test_pendulum(self, pendulum):
        ff = eval_constants(pendulum)
        assert ff.alpha == pytest.approx(1.0, abs=1e-12)
        assert ff.omega == pytest.approx(0.0, abs=1e-12)

    def test_rejects_elliptic_spectrum(self):
        class Elliptic(SystemDefinition):
            def hessian(self):
                return np.eye(4)   # harmonic oscillator: +-i, +-i
        with pytest.raises(SystemRejected):
            eval_constants(Elliptic())

    def test_rejection_raised_on_every_call(self):
        @dataclasses.dataclass(frozen=True)
        class Elliptic(SystemDefinition):
            def hessian(self):
                return np.eye(4)
        system = Elliptic()
        for _ in range(2):
            with pytest.raises(SystemRejected):
                eval_constants(system)

    @pytest.mark.parametrize("name", ["champagne", "champagne0", "pendulum"])
    def test_window_variants_share_constants(self, request, name):
        system = request.getfixturevalue(name)
        base = eval_constants(system)
        assert eval_constants(system) is base
        for variant in (dataclasses.replace(system, j_floor=1e-3),
                        dataclasses.replace(system, j_cap=0.05),
                        dataclasses.replace(system, j_floor=1e-4, j_cap=0.1)):
            assert eval_constants(variant) == base

    def test_invariance_under_symplectic_basis_change(self, champagne):
        from scipy.linalg import expm
        J = np.zeros((4, 4))
        J[0, 2] = J[1, 3] = 1.0
        J[2, 0] = J[3, 1] = -1.0
        rng = np.random.default_rng(7)
        base = eval_constants(champagne)
        for _ in range(5):
            S = rng.normal(size=(4, 4), scale=0.3)
            S = S + S.T
            M = expm(J @ S)
            transformed = M.T @ champagne.hessian() @ M
            transformed_l = M.T @ champagne.second_integral_hessian() @ M

            class Transformed(SystemDefinition):
                def hessian(self):
                    return transformed

                def second_integral_hessian(self):
                    return transformed_l

            ff = eval_constants(Transformed())
            assert ff.alpha == pytest.approx(base.alpha, abs=1e-10)
            assert ff.omega == pytest.approx(base.omega, abs=1e-10)


def complex_step_gradient(f, s, step=1e-30):
    """The gradient of f at the phase point s, one complex step per
    component: f takes the four perturbed states as the columns of one
    block, row by row, so the step holds each derivative exactly."""
    return f(s[:, None] + 1j * step * np.eye(4)).imag / step


class TestPoissonBracket:
    @pytest.mark.parametrize("name,params", [("champagne", {"gamma": 0.5}),
                                             ("champagne", {"gamma": 0.0})])
    def test_h_l_commute(self, name, params):
        # {H, L} on (x, y, px, py), the gradients of H and L by complex
        # steps; the flow oracle integrates this H (flow_hamiltonian)
        system = make_system(name, **params)
        rng = np.random.default_rng(42)
        for s in rng.uniform(-0.8, 0.8, size=(1000, 4)):
            gh = complex_step_gradient(system.hamiltonian, s)
            gl = complex_step_gradient(system.second_integral, s)
            bracket = gh[0] * gl[2] + gh[1] * gl[3] - gh[2] * gl[0] \
                - gh[3] * gl[1]
            scale = 1.0 + np.linalg.norm(gh) * np.linalg.norm(gl)
            assert abs(bracket) <= 1e-10 * scale


class TestChampagneModel:
    def test_profile_matches_h_l_at_turning_state(self, champagne):
        # (0.3, 0, 0, 0.2) has p_r = 0, so r = 0.3 is a turning point of the
        # profile at this state's (H, L)
        s = np.array([0.3, 0.0, 0.0, 0.2])
        c = EMValue(champagne.hamiltonian(s), champagne.second_integral(s))
        assert abs(champagne_profile(champagne.gamma, c, 0.3)) <= 1e-12
        assert min(abs(r - 0.3) for r in champagne.reduced_profile(c)) <= 1e-12

    def test_profile_matches_radial_speed_at_random_states(self, champagne):
        # P(r; H(s), L(s)) = ((x px + y py)/r)^2 identically
        rng = np.random.default_rng(3)
        checked = 0
        for s in rng.uniform(-0.7, 0.7, size=(40, 4)):
            c = EMValue(champagne.hamiltonian(s), champagne.second_integral(s))
            r = math.hypot(s[0], s[1])
            if r < 1e-3 or abs(c.l) < 1e-12:
                continue
            try:
                r_lo, r_hi = champagne.reduced_profile(c)
            except NoTorusError:
                continue
            pr = (s[0] * s[2] + s[1] * s[3]) / r
            assert champagne_profile(champagne.gamma, c, r) == pytest.approx(
                pr * pr, abs=1e-10)
            assert r_lo - 1e-12 <= r <= r_hi + 1e-12
            checked += 1
        assert checked >= 10

    def test_critical_value_at_origin(self, champagne):
        z = np.zeros(4)
        assert champagne.hamiltonian(z) == 0.0
        assert champagne.second_integral(z) == 0.0

    def test_foliation_independent_of_gamma(self, champagne, champagne0):
        # H_gamma = H_0 + gamma L: turning points at matched (h - gamma l, l)
        c5 = EMValue(0.1, 0.05)
        c0 = EMValue(0.1 - 0.5 * 0.05, 0.05)
        assert champagne.reduced_profile(c5) == pytest.approx(
            champagne0.reduced_profile(c0), abs=1e-13)

    def test_gamma_precondition(self):
        with pytest.raises(ValueError):
            ChampagneBottle(gamma=2.5)


class TestTurningPoints:
    def test_champagne_l_zero_positive_h(self, champagne0):
        r_lo, r_hi = champagne0.reduced_profile(EMValue(0.1, 0.0))
        assert r_lo == 0.0
        assert r_hi == pytest.approx(
            math.sqrt((1.0 + math.sqrt(1.4)) / 2.0), rel=1e-12)

    def test_champagne_generic(self, champagne):
        # [DERIVED] quartic root finder vs an independent sign-scan oracle
        c = EMValue(0.1, 0.05)
        r_lo, r_hi = champagne.reduced_profile(c)
        assert 0.0 < r_lo < r_hi
        rr = np.linspace(1e-3, 1.2, 2000)
        pv = champagne_profile(champagne.gamma, c, rr)
        crossings = rr[np.flatnonzero(np.sign(pv[:-1]) != np.sign(pv[1:]))]
        assert len(crossings) == 2
        assert r_lo == pytest.approx(crossings[0], abs=1e-3)
        assert r_hi == pytest.approx(crossings[1], abs=1e-3)
        # simple roots: P vanishes there, and its slope does not
        for r in (r_lo, r_hi):
            assert abs(champagne_profile(champagne.gamma, c, r)) <= 1e-14
            assert abs(champagne_profile_dr(c, r)) > 1e-8

    def test_pendulum_generic(self, pendulum):
        c = EMValue(0.1, 0.05)
        z_lo, z_hi = pendulum.reduced_profile(c)
        assert -1.0 < z_lo < z_hi < 1.0
        zz = np.linspace(-0.99995, 0.99995, 20000)
        pv = pendulum_profile(c, zz)
        crossings = zz[np.flatnonzero(np.sign(pv[:-1]) != np.sign(pv[1:]))]
        assert len(crossings) == 2
        assert z_lo == pytest.approx(crossings[0], abs=1e-4)
        assert z_hi == pytest.approx(crossings[1], abs=1e-4)
        for z in (z_lo, z_hi):
            assert abs(pendulum_profile(c, z)) <= 1e-14

    def test_pendulum_l_zero(self, pendulum):
        # librating branch: turning points are z = -1 and z = h_raw
        z_lo, z_hi = pendulum.reduced_profile(EMValue(-0.1, 0.0))
        assert z_lo == -1.0
        assert z_hi == pytest.approx(0.9, abs=1e-12)

    def test_elliptic_boundary_reported_distinctly(self, champagne0):
        # double root of the l = 0 profile at h = -1/4: elliptic circle
        with pytest.raises(TurningPointDegeneracy):
            champagne0.reduced_profile(EMValue(-0.25, 0.0))

    def test_window_floor_reported_distinctly(self, champagne):
        with pytest.raises(WindowError):
            champagne.check_window(EMValue(1e-8, 0.0))

    def test_no_torus_outside_image(self, champagne):
        # below the elliptic boundary the fiber is empty
        with pytest.raises((NoTorusError, TurningPointDegeneracy)):
            champagne.reduced_profile(EMValue(-0.35, 0.05))


class TestProfileAlongFlow:
    def test_radial_speed_matches_profile(self, champagne):
        # (dr/dt)^2 along an integrated trajectory equals P(r) to 1e-9: the
        # final states of one seed run at several budgets
        c = EMValue(0.08, -0.03)
        budgets = np.linspace(0.25, 5.0, 20)
        seeds = np.tile(champagne.flow_start(c)[0][:, None], budgets.size)
        traj = integrate_flow(champagne.flow_field, seeds, t_max=budgets,
                              invariant=champagne.flow_hamiltonian, tol=1e-12)
        for s in traj.final.T:
            r = math.hypot(s[0], s[1])
            rdot = (s[0] * s[2] + s[1] * s[3]) / r
            assert champagne_profile(champagne.gamma, c, r) == pytest.approx(
                rdot * rdot, abs=1e-9)


def champagne_list_field(gamma, s):
    """The champagne bottle's field as a list of rows, as flow_field once
    returned it: the reference for the array form."""
    x, y, px, py, _ = s
    r2 = x * x + y * y
    xd = px - gamma * y
    yd = py + gamma * x
    return [xd, yd,
            2 * x - 4 * x * r2 - gamma * py,
            2 * y - 4 * y * r2 + gamma * px,
            (x * yd - y * xd) / r2]


def pendulum_list_field(s):
    """The spherical pendulum's field as a list of rows, as flow_field
    once returned it: the reference for the array form."""
    eta = 2.0
    x, y, z, vx, vy, vz, _ = s
    q2m1 = x * x + y * y + z * z - 1.0
    qv = x * vx + y * vy + z * vz
    lam = z - (vx * vx + vy * vy + vz * vz)
    r2 = x * x + y * y
    return [vx, vy, vz,
            lam * x - eta * (qv * x + q2m1 * vx),
            lam * y - eta * (qv * y + q2m1 * vy),
            lam * z - 1.0 - eta * (qv * z + q2m1 * vz),
            (x * vy - y * vx) / r2]


@st.composite
def states(draw, d):
    """A state (d,) or a block (d, m) of m in {1, 2, 50} states."""
    m = draw(st.sampled_from([None, 1, 2, 50]))
    return draw(arrays(float, d if m is None else (d, m),
                       elements=st.floats(-2.0, 2.0)))


class TestArrayFlowField:
    # the array fields keep each element's operation order: bit for bit
    @given(st.sampled_from([-1.0, 0.0, 0.5]), states(5))
    @settings(max_examples=200, deadline=None)
    def test_champagne(self, gamma, s):
        with np.errstate(all="ignore"):   # r = 0 draws divide by zero
            ref = np.asarray(champagne_list_field(gamma, s), dtype=float)
            got = ChampagneBottle(gamma=gamma).flow_field(s)
        assert got.shape == s.shape
        assert got.tobytes() == ref.tobytes()

    @given(states(7))
    @settings(max_examples=200, deadline=None)
    def test_pendulum(self, pendulum, s):
        with np.errstate(all="ignore"):
            ref = np.asarray(pendulum_list_field(s), dtype=float)
            got = pendulum.flow_field(s)
        assert got.shape == s.shape
        assert got.tobytes() == ref.tobytes()


class TestMakeSystem:
    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system"):
            make_system("kepler")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="bad parameters"):
            make_system("pendulum", gamma=1.0)
