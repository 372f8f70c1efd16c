"""The closed-form torus engine against high-precision references.

REFERENCE holds (h, l, T, Theta) per system: 16 tori each, covering
|l| in {1e-11, 1e-7} on both sides of the l = 0 axis at h = +-1e-3, three
tori at |j| = j_floor, two near j_cap, and three generic ones.  The values
come from tanh-sinh quadrature of the reduced-profile integrals at 40
digits, independent of the closed forms under test; they agree with
mpmath's own Carlson forms to 1e-21.  Generator (mpmath, ~20 s):

    import mpmath as mp
    mp.mp.dps = 40

    def reference(system, h, l):
        h, l = mp.mpf(h), mp.mpf(l)
        if system == "champagne":       # gamma = 1/2, over s = r^2
            far, lo, hi = sorted(mp.re(r) for r in mp.polyroots(
                [1, -1, l / 2 - h, l * l / 2], maxsteps=200, extraprec=400))
            rate = lambda s: l / s + mp.mpf(1) / 2
        else:                           # over z
            lo, hi, far = sorted(mp.re(r) for r in mp.polyroots(
                [1, -h - 1, -1, h + 1 - l * l / 2], maxsteps=200,
                extraprec=400))
            rate = lambda z: 2 * l / (1 - z * z)
        x = lambda u: lo + (hi - lo) * mp.sin(u) ** 2
        dt = lambda u: 2 / mp.sqrt(2 * abs(x(u) - far))
        cuts = [mp.mpf(10) ** -k for k in range(16, 0, -1)]
        cuts = ([0] + cuts + [mp.pi / 2 - c for c in reversed(cuts)]
                + [mp.pi / 2])
        k = 1 if system == "champagne" else 2
        return (k * mp.quad(dt, cuts),
                mp.quad(lambda u: rate(x(u)) * dt(u), cuts))

The j_floor and j_cap tori are from_momentum_chart of |j| = j_floor
(angles 0.3, 2.0, 4.0) and |j| = 0.99 j_cap (champagne 0.5, 1.5; pendulum
0.5, 3.0).
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from focusfocus import (ChampagneBottle, EMValue, MomentumValue, NoTorusError,
                        SphericalPendulum, reduced_period_rotation)
from focusfocus import derivatives, from_momentum_chart
from focusfocus.lattice import CLOSED_FORM_REL_TOL, _tori
from focusfocus.systems import _cel

# cel's worst relative error against 40-digit Carlson forms, measured on
# 9,500 draws over the ranges below, was 9.3e-16 (Pi) and 5.6e-16 (K); the
# gate allows 4x that
CEL_REL_TOL = 4e-15

REFERENCE = {
    "champagne": [
        (0.001, 1e-11, 6.841677794018033, 6.5624315364802526),
        (0.001, -1e-11, 6.8416777869187349, 0.27924625398813115),
        (0.001, 1e-07, 6.841713280773474, 6.56230810133758),
        (0.001, -1e-07, 6.8416422877938457, 0.27936966880751322),
        (-0.001, 1e-11, 6.8484098455978482, 3.4242049369647184),
        (-0.001, -1e-11, 6.8484098526404316, 3.4242049121544213),
        (-0.001, 1e-07, 6.8483746300130684, 3.4243289658770787),
        (-0.001, -1e-07, 6.8484450558460413, 3.4240808629068389),
        (1.4988099228819988e-05, 2.9552020666133956e-06,
         9.8562432228433869, 7.7697257852269768),
        (-1.338717867707874e-06, 9.092974268256818e-06,
         9.8563533807482261, 6.0698071695279059),
        (-1.3027929212379417e-05, -7.568024953079283e-06,
         9.8563723479811262, 4.0697480252490235),
        (0.439798173337589, 0.14238938496544828,
         2.5087651654673057, 3.9357548352803081),
        (0.1778391459696496, 0.29625601102140414,
         2.5955152584654659, 3.1174492396032473),
        (0.05, 0.02, 4.0428051534283243, 4.5684815882196364),
        (-0.03, 0.01, 4.3326905431129261, 2.5622546520758012),
        (0.01, -0.004, 4.9932473419304698, -0.21039751761516452),
    ],
    "pendulum": [
        (0.001, 1e-11, 10.372444777949458, 6.2831852972122279),
        (0.001, -1e-11, 10.372444777949458, -6.2831852972122279),
        (0.001, 1e-07, 10.372444772951337, 6.283085633594392),
        (0.001, -1e-07, 10.372444772951337, -6.283085633594392),
        (-0.001, 1e-11, 10.374538150937941, 3.141592663622453),
        (-0.001, -1e-11, 10.374538150937941, -3.141592663622453),
        (-0.001, 1e-07, 10.37453814593607, 3.1416929801869046),
        (-0.001, -1e-07, 10.37453814593607, -3.1416929801869046),
        (9.55336489125606e-06, 2.9552020666133956e-06,
         14.978645973370119, 5.9832000272410213),
        (-4.161468365471424e-06, 9.092974268256818e-06,
         14.978667689024237, 4.2832297595583844),
        (-6.53643620863612e-06, -7.568024953079283e-06,
         14.978671504135774, -4.0000372378122181),
        (0.17376134725429382, 0.0949262566436322,
         5.0268898071524683, 5.8979650278930358),
        (-0.1960185143268882, 0.02794176159585371,
         5.1644109595090471, 3.320691853125564),
        (0.05, 0.02, 6.3611230432350093, 5.9373118321994903),
        (-0.03, 0.01, 6.9378562342832647, 3.4830696751876358),
        (0.01, -0.004, 7.9893969829351414, -5.9120800987551954),
    ],
}

SYSTEMS = {"champagne": ChampagneBottle(gamma=0.5),
           "pendulum": SphericalPendulum()}


@given(log_x=st.floats(-12.0, 1.0), log_p=st.floats(-12.0, 0.0))
@settings(max_examples=200, deadline=None)
def test_cel_against_mpmath(log_x, log_p):
    # kc^2 in [1e-12, 10] and p = 1 - n in [1e-12, 1]: down to the
    # near-axis tori, where 1 - n is tiny
    kc, p = math.sqrt(10.0 ** log_x), 10.0 ** log_p
    with mp.workdps(40):
        x = mp.mpf(kc) ** 2
        K = mp.elliprf(0, x, 1)
        Pi = K + (1 - mp.mpf(p)) / 3 * mp.elliprj(0, x, 1, p)
        assert abs(_cel(kc, 1.0) / K - 1) <= CEL_REL_TOL
        assert abs(_cel(kc, p) / Pi - 1) <= CEL_REL_TOL


def _cases():
    for name, rows in REFERENCE.items():
        for h, l, T, theta in rows:
            yield pytest.param(name, h, l, T, theta,
                               id=f"{name}-{h:.3g}-{l:.3g}")


@pytest.mark.parametrize("name,h,l,T_ref,theta_ref", _cases())
def test_matches_reference(name, h, l, T_ref, theta_ref):
    system = SYSTEMS[name]
    # the closed form itself: j_floor tori may round to just below the floor
    T, theta = system.period_rotation(EMValue(h, l))
    assert abs(T - T_ref) <= 1e-13 * T_ref
    assert abs(theta - theta_ref) <= 1e-11


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("h", [1e-3, -1e-3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_axis_branch_continues_general_formula(name, h, sign):
    # the torus at l = +-0.0 is the l -> 0+- limit of its neighbours (pi
    # per pole passage, with the sign of l)
    system = SYSTEMS[name]
    T_axis, theta_axis = system.period_rotation(EMValue(h, sign * 0.0))
    T, theta = system.period_rotation(EMValue(h, sign * 2e-13))
    assert abs(T - T_axis) <= 1e-8 * T_axis
    assert abs(theta - theta_axis) <= 1e-8


def test_pendulum_torus_just_off_the_axis():
    # |l| = 1e-11 puts 1 + z1 ~ 1e-23 below the spacing of floats near -1;
    # the roots must not collapse z1 onto the pole
    T, theta = reduced_period_rotation(SphericalPendulum(),
                                       EMValue(1e-5, 1e-11))
    assert math.isfinite(T) and math.isfinite(theta)
    assert theta == pytest.approx(2.0 * math.pi, abs=1e-3)


def test_champagne_below_the_image_has_no_torus():
    # h - gamma l < -1/4: the reduced cubic has a single real root
    with pytest.raises(NoTorusError):
        reduced_period_rotation(SYSTEMS["champagne"], EMValue(-0.42, 3e-5))


@pytest.mark.parametrize("name,h,l", [("champagne", 1.31, 2.92),
                                      ("champagne", -0.3, 0.0),
                                      ("pendulum", -2.5, 0.1),
                                      ("pendulum", -2.5, 0.0),
                                      ("pendulum", 0.5, 3.0)])
def test_outside_the_image_raises_no_torus(name, h, l):
    # a single real root: Newton leaves the convex branch of the cubic,
    # which must read as "no torus", never as a math domain error
    with pytest.raises(NoTorusError):
        SYSTEMS[name].period_rotation(EMValue(h, l))


def test_accuracy_request_below_verified_floor_rejected():
    system = SYSTEMS["champagne"]
    c = EMValue(0.05, 0.02)
    reduced_period_rotation(system, c, rel_tol=CLOSED_FORM_REL_TOL)
    with pytest.raises(ValueError, match="rel_tol"):
        reduced_period_rotation(system, c, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# derivatives by the complex step (lattice.derivatives) against mpmath.diff
# ---------------------------------------------------------------------------

MP_DPS = 50


def mp_period_rotation(name, h, l):
    """(T, Theta) of the closed form in mpmath at the working precision.
    The smallest root comes from the other two by Vieta, so that it keeps
    its digits near the axis, where it is ~ l^2."""
    if name == "champagne":   # gamma = 1/2, over s = r^2
        coeffs = [1, -1, l / 2 - h, l * l / 2]
    else:                     # over w = 1 - z
        coeffs = [1, h - 2, -2 * h, l * l / 2]
    a, b, _ = sorted((mp.re(r) for r in mp.polyroots(
        coeffs, maxsteps=200, extraprec=mp.mp.prec)), key=abs,
        reverse=True)
    lo, mid, hi = sorted([a, b, -coeffs[3] / (a * b)])

    def cel(kc, p):
        x = kc * kc
        return mp.elliprf(0, x, 1) + (1 - p) / 3 * mp.elliprj(0, x, 1, p)

    if name == "champagne":
        s3, s1, s2 = lo, mid, hi
        kc = mp.sqrt((s1 - s3) / (s2 - s3))
        T = mp.sqrt(2) * cel(kc, 1) / mp.sqrt(s2 - s3)
        return T, (T / 2 + mp.sqrt(2) * l / (s2 * mp.sqrt(s2 - s3))
                   * cel(kc, s1 / s2))
    w3, w2, wc = lo, mid, hi
    kc = mp.sqrt((w2 - w3) / (wc - w3))
    one_z1 = l * l / (2 * (h + wc) * wc)
    one_z2 = one_z1 + (wc - w2)
    north = cel(kc, w2 / wc) / (wc * mp.sqrt(wc - w3))
    south = (cel(mp.sqrt((wc - w3) / (w2 - w3)), one_z1 / one_z2)
             / (one_z2 * mp.sqrt(w2 - w3)))
    return (2 * mp.sqrt(2) * cel(kc, 1) / mp.sqrt(wc - w3),
            mp.sqrt(2) * l * (north + south))


def mp_derivatives(name, h, l):
    """(T_h, T_l, Theta_h, Theta_l) by mpmath.diff of mp_period_rotation at
    MP_DPS digits.  At l = +-0.0 the closed form takes the limit l -> 0
    from l's side, and so does this reference, at |l| = 1e-25."""
    with mp.workdps(MP_DPS):
        if l == 0.0:
            l = math.copysign(1e-25, l)
        h, l = mp.mpf(h), mp.mpf(l)
        step = min(mp.mpf(10) ** -20, abs(l) / 1000)
        values = {}

        def at(x, y, k):
            if (x, y) not in values:
                values[x, y] = mp_period_rotation(name, x, y)
            return values[x, y][k]

        return [float(mp.diff(f, x, h=step)) for f, x in (
            (lambda x: at(x, l, 0), h), (lambda y: at(h, y, 0), l),
            (lambda x: at(x, l, 1), h), (lambda y: at(h, y, 1), l))]


def complex_step(system, h, l):
    """(T_h, T_l, Theta_h, Theta_l) of one torus from lattice.derivatives,
    and whether both of its lanes were accepted."""
    _, _, dT, dtheta, failed = derivatives(system, [h, h], [l, l],
                                           [1.0, 0.0], [0.0, 1.0])
    return [*dT, *dtheta], not failed


@st.composite
def derivative_tori(draw, region):
    """(system name, h, l) of one torus in a region: generic (|j| from 1e-4
    to 0.9 j_cap), at j_floor, near j_cap (0.99 j_cap), all three with
    |sin arg zeta| >= 0.3 and inside the image; near the axis (2e-13 <=
    |l| <= 1e-7), nearer (1e-20 <= |l| <= 1e-13) and on it (l = +-0.0,
    5e-14, -1e-13), all three at 1e-3 <= |h| <= 0.05, both sides."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    if region in ("near_axis", "axis_band", "axis"):
        h = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
            st.floats(-3.0, math.log10(0.05)))
        if region == "axis":
            return name, h, draw(st.sampled_from([0.0, -0.0, 5e-14, -1e-13]))
        lo, hi = (-20.0, -13.0) if region == "axis_band" else (
            math.log10(2e-13), -7.0)
        return name, h, draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
            st.floats(lo, hi))
    rho = {"floor": 1.001 * system.j_floor, "cap": 0.99 * system.j_cap,
           "generic": 10.0 ** draw(st.floats(
               -4.0, math.log10(0.9 * system.j_cap)))}[region]
    th = draw(st.floats(0.0, 2.0 * math.pi).filter(
        lambda t: abs(math.sin(t)) >= 0.3))
    c = from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                  rho * math.sin(th)))
    # |j| <= j_cap reaches beyond the image at some angles
    assume(_tori(system, np.array([c.h]), np.array([c.l]))[2][0])
    return name, c.h, c.l


def gradient_errors(name, h, l):
    """The largest error of (T_h, T_l) relative to |grad T| and of
    (Theta_h, Theta_l) relative to |grad Theta|."""
    got, accepted = complex_step(SYSTEMS[name], h, l)
    assert accepted, (name, h, l)
    want = mp_derivatives(name, h, l)
    return [max(abs(g - w) for g, w in zip(got[k:k + 2], want[k:k + 2]))
            / math.hypot(*want[k:k + 2]) for k in (0, 2)]


# Gates at 100 x the worst error measured over 300 draws per region (both
# systems): generic 1.1e-14 (gated at 1e-12, the bound set for exact
# derivatives), floor 1.5e-14, cap 8.5e-15, axis 1.35e-15 (gated at
# 1.3e-13, as before the pole split), near the axis 1.55e-15, and 1.4e-15
# at 1e-20 <= |l| <= 1e-13.  Theta's pole part is split off exactly, so
# the complex step takes no l times ~ pi/|l| near the axis.
DERIVATIVE_REL_TOL = {"generic": 1e-12, "floor": 1.5e-12, "cap": 8.5e-13,
                      "axis": 1.3e-13, "axis_band": 1.4e-13,
                      "near_axis": 1.6e-13}


@pytest.mark.parametrize("region", sorted(DERIVATIVE_REL_TOL))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_derivatives_against_mpmath(region, data):
    name, h, l = data.draw(derivative_tori(region))
    err_T, err_theta = gradient_errors(name, h, l)
    assert err_T <= DERIVATIVE_REL_TOL[region]
    assert err_theta <= DERIVATIVE_REL_TOL[region]


@given(torus=derivative_tori("generic"))
@settings(max_examples=100, deadline=None)
def test_hessian_is_symmetric(torus):
    # T and Theta are the gradient of one action: T_l + Theta_h = 0, here
    # relative to the largest entry of its Hessian (2.4e-15 at worst over
    # 2,000 draws)
    name, h, l = torus
    (T_h, T_l, theta_h, theta_l), accepted = complex_step(SYSTEMS[name], h, l)
    assert accepted
    assert abs(T_l + theta_h) <= 1e-13 * max(abs(T_h), abs(T_l),
                                             abs(theta_l))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_complex_call_accepts_the_real_lanes(data):
    # on the same draws, and on draws moved out of the window or the image,
    # the complex call accepts a lane exactly where the real one does (the
    # window and every branch read the real parts)
    region = data.draw(st.sampled_from(sorted(DERIVATIVE_REL_TOL)))
    name, h, l = data.draw(derivative_tori(region))
    system = SYSTEMS[name]
    scale = data.draw(st.sampled_from([1.0, 0.5, 3.0, 30.0]))
    hs, ls = np.array([h * scale]), np.array([l * scale])
    _, _, ok, _ = _tori(system, hs, ls)
    *_, dtheta, failed = derivatives(system, hs, ls, 1.0, 1.0)
    assert bool(ok[0]) == (not failed) == bool(np.isfinite(dtheta[0]))


def test_lane_without_a_complex_step(scalar_path):
    # a lane that the array form rejects and the scalar form accepts has no
    # derivative: it fails with that reason, never as a silent NaN
    scalar_path()
    *_, dtheta, failed = derivatives(SYSTEMS["champagne"], [0.05], [0.02],
                                     0.0, 1.0)
    assert np.isnan(dtheta[0]) and "no derivative" in str(failed[0])


# ---------------------------------------------------------------------------
# the l = 0 axis: one formula down to |l| = 1e-300, against mpmath
# ---------------------------------------------------------------------------

AXIS_SWEEP_H = [1e-5, -1e-5, 1e-3, -1e-3, 1e-8, -1e-8, 1e-11, 0.05, -0.05]
AXIS_SWEEP_L = [3e-2, 1e-4, 1e-6, 1.01e-13, 9.9e-14, 5e-14, 1e-16, 1e-30,
                1e-100, 1e-200, 1e-300]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("h", AXIS_SWEEP_H)
def test_axis_sweep_against_mpmath(name, h):
    # both forms, both signs of l: each third-kind pole is split off
    # exactly, so no |l| is evaluated at the l -> 0 limit in its place
    system = SYSTEMS[name]
    ls = np.array([sign * l for l in AXIS_SWEEP_L for sign in (1.0, -1.0)])
    T_array, theta_array, ok = system.period_rotation_array(
        np.full(ls.size, h), ls)
    assert ok.all()
    with mp.workdps(MP_DPS):
        for k, l in enumerate(ls.tolist()):
            T_mp, theta_mp = mp_period_rotation(name, mp.mpf(h), mp.mpf(l))
            for T, theta in (system.period_rotation(EMValue(h, l)),
                             (T_array[k], theta_array[k])):
                assert abs(T - T_mp) <= 2e-15 * T_mp, (l, T)
                assert (abs(theta - theta_mp)
                        <= 4e-15 * max(abs(theta_mp), 1)), (l, theta)
