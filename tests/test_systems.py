import dataclasses
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from focusfocus import (ChampagneBottle, EMValue, NoTorusError,
                        SystemRejected, TurningPointDegeneracy, WindowError,
                        acceptance, eval_constants, integrate_flow, lattice,
                        make_system)
from focusfocus import systems
from focusfocus.systems import SYSTEMS, SystemDefinition
from reference_profiles import (champagne_profile, champagne_profile_dr,
                                flow_seeds, pendulum_profile)

SQRT2 = math.sqrt(2.0)
CHAMPAGNE_D2H = ChampagneBottle(gamma=0.5).hessian()
CHAMPAGNE_D2L = ChampagneBottle(gamma=0.5).second_integral_hessian()


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
        base = eval_constants(champagne)
        for d2h, d2l in symplectic_images(champagne):
            ff = eval_constants(hessian_system(d2h, d2l))
            assert ff.alpha == pytest.approx(base.alpha, abs=1e-10)
            assert ff.omega == pytest.approx(base.omega, abs=1e-10)

    @pytest.mark.parametrize("gamma", [-1.9, -1.3, -0.5, 0.0, 0.25, 0.5, 1.0,
                                       SQRT2, 1.9])
    def test_exact_to_an_ulp(self, gamma):
        # the analytic quadruple +-sqrt(2) +- i gamma, to the last bit or
        # one: an eigensolver reads omega = 0.5000000000000001 at 0.5
        ff = eval_constants(ChampagneBottle(gamma=gamma))
        assert abs(ff.omega - gamma) <= math.ulp(gamma)
        assert abs(ff.alpha - SQRT2) <= math.ulp(SQRT2)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, -1.3])
    def test_agrees_with_an_eigensolver(self, gamma):
        system = ChampagneBottle(gamma=gamma)
        for d2h, d2l in symplectic_images(system):
            ff = eval_constants(hessian_system(d2h, d2l))
            alpha, omega = eig_constants(d2h, d2l)
            assert abs(ff.alpha - alpha) <= 1e-13
            assert abs(ff.omega - omega) <= 1e-13

    @pytest.mark.parametrize("d2h,d2l,reason", [
        (np.diag([-1.0, -4.0, 1.0, 1.0]), None, "spectrum"),   # +-1, +-2
        (CHAMPAGNE_D2H + np.diag([0.1], k=-3), None, "symmetric"),
        (CHAMPAGNE_D2H, 2.0 * CHAMPAGNE_D2L, "N\\^2 = -I"),
        (CHAMPAGNE_D2H, np.eye(4), "MN = NM"),
    ], ids=["saddle-saddle", "asymmetric", "not-a-circle", "not-commuting"])
    def test_rejections_on_every_call(self, d2h, d2l, reason):
        system = hessian_system(d2h, d2l)
        for _ in range(2):
            with pytest.raises(SystemRejected, match=reason):
                eval_constants(system)


J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def hessian_system(d2h, d2l=None):
    """A system of the given Hessians at the equilibrium; without d2l, one
    whose d^2L must not be read."""
    class Hessians(SystemDefinition):
        def hessian(self):
            return d2h

        def second_integral_hessian(self):
            assert d2l is not None, "d^2L read"
            return d2l
    return Hessians()


def symplectic_images(system, count=5):
    """(d^2H, d^2L) of system in count random symplectic bases expm(J S)."""
    from scipy.linalg import expm
    rng = np.random.default_rng(7)
    for _ in range(count):
        S = rng.normal(size=(4, 4), scale=0.3)
        M = expm(J4 @ (S + S.T))
        yield (M.T @ system.hessian() @ M,
               M.T @ system.second_integral_hessian() @ M)


def eig_constants(d2h, d2l):
    """(alpha, omega) by an eigensolver: alpha + i omega is the eigenvalue
    of J d^2H with positive real part on whose eigenvector J d^2L acts most
    nearly as +i."""
    eig, vec = np.linalg.eig(J4 @ d2h)
    pos = np.flatnonzero(eig.real > 0.0)
    turn = [(v.conj() @ J4 @ d2l @ v).imag for v in vec[:, pos].T]
    lam = eig[pos[np.argmax(turn)]]
    return float(lam.real), float(lam.imag)


def rotation_integral(s):
    """L = x p_y - y p_x on (x, y, p_x, p_y), the champagne bottle's second
    integral, on a state or a block of states, one per column."""
    x, y, px, py = s[:4]
    return x * py - y * px


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
            gh = complex_step_gradient(system.flow_hamiltonian, s)
            gl = complex_step_gradient(rotation_integral, s)
            bracket = gh[0] * gl[2] + gh[1] * gl[3] - gh[2] * gl[0] \
                - gh[3] * gl[1]
            scale = 1.0 + np.linalg.norm(gh) * np.linalg.norm(gl)
            assert abs(bracket) <= 1e-10 * scale


class TestChampagneModel:
    def test_profile_matches_h_l_at_turning_state(self, champagne):
        # (0.3, 0, 0, 0.2) has p_r = 0, so r = 0.3 is a turning point of the
        # profile at this state's (H, L)
        s = np.array([0.3, 0.0, 0.0, 0.2])
        c = EMValue(champagne.flow_hamiltonian(s), rotation_integral(s))
        assert abs(champagne_profile(champagne.gamma, c, 0.3)) <= 1e-12
        assert min(abs(r - 0.3) for r in champagne.reduced_profile(c)) <= 1e-12

    def test_profile_matches_radial_speed_at_random_states(self, champagne):
        # P(r; H(s), L(s)) = ((x px + y py)/r)^2 identically
        rng = np.random.default_rng(3)
        checked = 0
        for s in rng.uniform(-0.7, 0.7, size=(40, 4)):
            c = EMValue(champagne.flow_hamiltonian(s), rotation_integral(s))
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
        assert champagne.flow_hamiltonian(z) == 0.0
        assert rotation_integral(z) == 0.0

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

    def test_pendulum_matches_the_flow_seeds(self, report_cfg):
        # the seeds the oracle runs, from one solve of all the cubics: their
        # z equal each torus's turning points (z1, z2), bit for bit, on C1's
        # default pendulum tori (drawn after its champagne tori)
        champ, _, pend = acceptance.systems(report_cfg)
        rng = random.Random(report_cfg["seed"])
        lattice.sample_cross_tori(champ, rng, report_cfg["n_tori"])
        drawn = lattice.sample_cross_tori(pend, rng, report_cfg["n_tori"])
        tori = list(map(EMValue, drawn.h.tolist(), drawn.l.tolist()))
        z = flow_seeds(pend, *tori)[2].reshape(-1, 2).tolist()
        for c, (z_seed2, z_seed1) in zip(tori, z):
            assert pend.reduced_profile(c) == (z_seed1, z_seed2)

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
        seeds = np.tile(flow_seeds(champagne, c), budgets.size)
        traj = integrate_flow(champagne.flow_field, seeds, t_max=budgets,
                              invariant=champagne.flow_hamiltonian,
                              section=lambda y: np.ones(y.shape[-1]),
                              rate=None, tol=1e-12)
        # the section is never crossed: every lane runs out of its budget
        assert traj.times[-1].tolist() == budgets.tolist()
        assert [str(e) for e in traj.errors] == [
            f"t_max={t:.6g} exceeded with 0/1 section crossings"
            for t in budgets]
        for s in traj.states[-1].T:
            r = math.hypot(s[0], s[1])
            rdot = (s[0] * s[2] + s[1] * s[3]) / r
            assert champagne_profile(champagne.gamma, c, r) == pytest.approx(
                rdot * rdot, abs=1e-9)


def champagne_list_field(gamma, s):
    """The champagne bottle's field as a list of rows, as flow_field once
    returned it: the reference for the array form."""
    x, y, px, py = s
    r2 = x * x + y * y
    return [px - gamma * y, py + gamma * x,
            2 * x - 4 * x * r2 - gamma * py,
            2 * y - 4 * y * r2 + gamma * px]


def pendulum_list_field(s):
    """The spherical pendulum's field as a list of rows, as flow_field
    once returned it: the reference for the array form."""
    eta = 2.0
    x, y, z, vx, vy, vz = s
    q2m1 = x * x + y * y + z * z - 1.0
    qv = x * vx + y * vy + z * vz
    lam = z - (vx * vx + vy * vy + vz * vz)
    return [vx, vy, vz,
            lam * x - eta * (qv * x + q2m1 * vx),
            lam * y - eta * (qv * y + q2m1 * vy),
            lam * z - 1.0 - eta * (qv * z + q2m1 * vz)]


@st.composite
def states(draw, d):
    """A block (d, m) of m in {1, 2, 50} states."""
    m = draw(st.sampled_from([1, 2, 50]))
    return draw(arrays(float, (d, m), elements=st.floats(-2.0, 2.0)))


class TestArrayFlowField:
    # the array fields keep each element's operation order: bit for bit
    @given(st.sampled_from([-1.0, 0.0, 0.5]), states(4))
    @settings(max_examples=200, deadline=None)
    def test_champagne(self, gamma, s):
        ref = np.asarray(champagne_list_field(gamma, s), dtype=float)
        got = ChampagneBottle(gamma=gamma).flow_field(s)
        assert got.shape == s.shape
        assert got.tobytes() == ref.tobytes()

    @given(states(6))
    @settings(max_examples=200, deadline=None)
    def test_pendulum(self, pendulum, s):
        ref = np.asarray(pendulum_list_field(s), dtype=float)
        got = pendulum.flow_field(s)
        assert got.shape == s.shape
        assert got.tobytes() == ref.tobytes()


class TestBlocksOnly:
    # the flow callables act column by column: a block (d, m) gives, bit
    # for bit, what its columns give one (d, 1) block at a time
    @pytest.mark.parametrize("name", ["champagne", "pendulum"])
    def test_block_equals_its_columns(self, request, name):
        system = request.getfixturevalue(name)
        d = {"champagne": 4, "pendulum": 6}[name]
        block = np.random.default_rng(3).uniform(-1.0, 1.0, (d, 40))
        for fn in (system.flow_field, system.flow_section_value,
                   lambda s: system.flow_section_rate(s, system.flow_field(s)),
                   system.flow_hamiltonian):
            columns = [np.asarray(fn(block[:, i:i + 1]), dtype=float)
                       for i in range(block.shape[1])]
            got = np.asarray(fn(block), dtype=float)
            assert got.tobytes() == np.concatenate(columns, axis=-1).tobytes()


def test_one_closed_form_body():
    # every system reads SystemDefinition's one array body of the closed
    # form, and brings only its cubic and elliptic terms; there is no
    # scalar body, and the l = 0 axis has no tolerance and no second path
    for cls in SYSTEMS.values():
        own = set(vars(cls))
        assert not {"period_rotation", "period_rotation_array", "_roots"} & own
        assert {"_roots_array", "_elliptic"} <= own
        assert list(inspect.signature(cls._roots_array).parameters) == [
            "self", "h", "l"]
    for name in ("L_AXIS_TOL", "_cel", "_cubic_roots"):
        assert not hasattr(systems, name)
    assert not hasattr(SystemDefinition, "period_rotation")


class TestMakeSystem:
    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system"):
            make_system("kepler")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="bad parameters"):
            make_system("pendulum", gamma=1.0)
