"""The array closed form (period_rotation_array, behind lattice._tori), the
package's one closed form, on lanes drawn anywhere around the window:
every lane carries the reason that the exact gap between its turning
points implies, accepted lanes agree with the 50-digit mpmath closed form
(test_closed_form.mp_period_rotation) at that module's gates, the 1e-12
degeneracy rule falls to the ulp where the float roots are exact, each
reason is named by the exception class and message that the one-torus
entries have always raised for it, and no lane depends on its batch."""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (ChampagneBottle, EMValue, FlowError, MomentumValue,
                        NoTorusError, SphericalPendulum,
                        TurningPointDegeneracy, WindowError,
                        from_momentum_chart, lattice, systems,
                        to_momentum_chart, transport)
from focusfocus.lattice import _tori
from focusfocus.systems import EPS
from test_closed_form import (AXIS_T_REL_TOL, AXIS_THETA_TOL, MP_DPS,
                              mp_period_rotation)

# the band around a double turning point, in signed_gap, where a lane may
# go either way: the 1e-12 rule acts on float roots, and the rounding of
# the cubic's coefficients alone moves a double root by ~sqrt(EPS)
# relative.  Over the sweep below and 7,000 drawn lanes the widest were a
# rejected lane 1.07e-8 above a double root and an accepted one 1.28e-8
# below it (a complex pair).  A lane farther above must be accepted, one
# farther below rejected for no torus; test_degeneracy_threshold pins the
# rule itself where the roots are exact
DEGENERACY_BAND = 4.0 * math.sqrt(EPS)
# below this energy the pendulum's Theta loses digits as h nears the
# hanging rest at -2, where its turning points meet (measured relative
# errors 7e-16 at h + 2 = 0.5, 2.5e-14 at 0.1, 1e-11 at 0.01, 8e-2 at
# 1e-7, all far below the window's h >= -0.2), which
# test_theta_near_a_double_turning_point pins; there its Theta is held to
# THETA_CONDITION EPS/(h + 2)^2 more than the gate (the measured worst was
# 4.4 EPS/(h + 2)^2), while T, and the champagne bottle's Theta, hold their
# gates down to the degeneracy band
PENDULUM_THETA_H_MIN = -1.5
THETA_CONDITION = 16.0
# the reasons for no torus, and the degenerate one, of each system's roots
NO_TORUS_REASONS = {systems.NO_TORUS, systems.NO_REGULAR_TORUS}
DEGENERATE = {"champagne": systems.ELLIPTIC_BOUNDARY,
              "pendulum": systems.DOUBLE_TURNING_POINT}


@st.composite
def systems_(draw):
    if draw(st.booleans()):
        return SphericalPendulum()
    return ChampagneBottle(gamma=draw(st.floats(-1.9, 1.9)))


@st.composite
def tori(draw, system):
    """(h, l) of one lane: anywhere around the window, on and near the
    l = 0 axis, at the |j| floor and cap, the singular fiber, no torus,
    and double turning points."""
    kind = draw(st.sampled_from(["chart", "axis", "edge", "singular",
                                 "boundary"]))
    th = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "singular":
        return 0.0, draw(st.sampled_from([0.0, -0.0, 5e-14]))
    if kind == "boundary":
        u = draw(st.floats(1.0, 1.9)) * 10.0 ** draw(st.integers(-15, -1))
        return double_turning_point(system, u,
                                    draw(st.sampled_from([1.0, -1.0, 0.0])),
                                    draw(st.integers(-4, 4)))
    if kind == "edge":
        rho = draw(st.sampled_from([system.j_floor, system.j_cap]))
        rho *= 1.0 + draw(st.integers(-3, 3)) * EPS
    else:
        rho = math.exp(draw(st.floats(math.log(0.25 * system.j_floor),
                                      math.log(4.0 * system.j_cap))))
    c = from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                  rho * math.sin(th)))
    if kind == "axis":
        return c.h, draw(st.sampled_from(
            [0.0, -0.0, 1e-13, -1e-13, 1e-13 * (1 + EPS), 1e-13 * (1 - EPS),
             -3e-13]))
    return c.h, c.l


def double_turning_point(system, u, sign, ulps):
    """(h, l) a few ulps in h from a double root of the reduced profile,
    at distance u: on the l = 0 axis for sign 0, where u < 0 lies beyond
    the boundary."""
    if sign == 0.0:
        # turning points 2 u apart (champagne) or u apart (pendulum)
        h = (-0.25 + math.copysign(u * u, u) if system.name == "champagne"
             else -2.0 + u)
        return h + ulps * EPS * abs(h), 0.0
    if system.name == "champagne":
        # s^3 - s^2 - g s + l^2/2 has the double root s0 = 1/2 + u
        s0 = 0.5 + u
        g = 3.0 * s0 * s0 - 2.0 * s0
        l = sign * math.sqrt(2.0 * s0 * s0 * (2.0 * s0 - 1.0))
        h = g + system.gamma * l
    else:
        # f(z) = 2 (h_raw - z)(1 - z^2) - l^2 has the double root z0 < 0
        z0 = -1.0 + 5.0 * u
        h = z0 - (1.0 - z0 * z0) / (2.0 * z0) - 1.0
        l = sign * math.sqrt(-(1.0 - z0 * z0) ** 2 / z0)
    return h + ulps * EPS * max(1.0, abs(h)), l


@st.composite
def batches(draw, max_size=30):
    system = draw(systems_())
    lanes = draw(st.lists(tori(system), min_size=1, max_size=max_size))
    h, l = (np.array(v, dtype=float) for v in zip(*lanes))
    return system, h, l


def bits(x) -> str:
    return float(x).hex()


def signed_gap(system, h, l):
    """The gap between the turning points of the torus (h, l) on its exact
    reduced cubic, relative to max(1, largest root): from the exact
    discriminant near a double root, negative where the pair is complex
    (no torus, by twice its imaginary part), and -inf on the pendulum at
    or below the hanging rest, h <= -2."""
    h, l = Fraction(h), Fraction(l)
    if system.name == "champagne":
        b, c, d = Fraction(-1), Fraction(system.gamma) * l - h, l * l / 2
    elif h <= -2:
        return -math.inf
    else:
        b, c, d = h - 2, -2 * h, l * l / 2
    disc = (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3
            - 27 * d * d)
    # the real root <= 0 is the lowest: f(0) = l^2/2 >= 0
    low, mid, top = sorted(np.roots([1.0, float(b), float(c), float(d)]),
                           key=lambda r: r.real)
    scale = max(1.0, abs(top.real))
    if disc > 0 and (top - mid).real > 1e-6 * scale:
        return (top - mid).real / scale
    # disc = (top - mid)^2 (top - low)^2 (mid - low)^2, and mid ~ top
    return (math.copysign(math.sqrt(abs(disc)), disc)
            / abs(top - low) ** 2 / scale)


def theta_tol(system, h):
    if system.name == "pendulum" and h < PENDULUM_THETA_H_MIN:
        return AXIS_THETA_TOL + THETA_CONDITION * EPS / (h + 2.0) ** 2
    return AXIS_THETA_TOL


def assert_lanes_hold(system, h, l):
    """Every lane of one period_rotation_array call carries the reason its
    signed gap implies: (0, +-0.0) the singular fiber; above
    DEGENERACY_BAND accepted, below -DEGENERACY_BAND rejected for no
    torus, within it either, or rejected as a double turning point.
    Returns (T, Theta, reason)."""
    T, theta, reason = system.period_rotation_array(h, l)
    for lane in zip(h.tolist(), l.tolist(), T.tolist(), theta.tolist(),
                    reason.tolist()):
        hk, lk, Tk, thk, why = lane
        assert math.isnan(Tk) == math.isnan(thk) == bool(why), lane
        if hk == 0.0 and lk == 0.0:
            assert why == systems.SINGULAR_FIBER, lane
            continue
        gap = signed_gap(system, hk, lk)
        if gap > DEGENERACY_BAND:
            assert not why, (lane, gap)
        elif gap < -DEGENERACY_BAND:
            assert why in NO_TORUS_REASONS, (lane, gap)
        else:
            assert why in NO_TORUS_REASONS | {0, DEGENERATE[system.name]}, \
                (lane, gap)
    return T, theta, reason


def assert_matches_mpmath(system, h, l, T, theta):
    """T and Theta of accepted lanes against mp_period_rotation at the
    axis sweep's gates, the pendulum's Theta below PENDULUM_THETA_H_MIN at
    theta_tol.  At l = +-0.0 the reference takes l's side of the axis at
    |l| = 1e-300."""
    for lane in zip(h.tolist(), l.tolist(), T.tolist(), theta.tolist()):
        hk, lk, Tk, thk = lane
        with mp.workdps(MP_DPS):
            T_mp, theta_mp = mp_period_rotation(
                system.name, mp.mpf(hk),
                mp.mpf(lk or math.copysign(1e-300, lk)),
                getattr(system, "gamma", 0.5))
            dT = float(abs(Tk - T_mp) / T_mp)
            dtheta = float(abs(thk - theta_mp) / max(abs(theta_mp), 1))
        assert dT <= AXIS_T_REL_TOL, (lane, dT)
        assert dtheta <= theta_tol(system, hk), (lane, dtheta)


class TestAgainstMpmath:
    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_period_rotation(self, batch):
        # every lane's reason, and the first accepted lane's values, as
        # mpmath costs ~10 ms a lane
        system, h, l = batch
        T, theta, reason = assert_lanes_hold(system, h, l)
        i = np.flatnonzero(reason == 0)[:1]
        assert_matches_mpmath(system, h[i], l[i], T[i], theta[i])

    @pytest.mark.parametrize("system", [ChampagneBottle(gamma=0.5),
                                        ChampagneBottle(gamma=-1.3),
                                        SphericalPendulum()],
                             ids=["champagne", "champagne-1.3", "pendulum"])
    def test_double_turning_points(self, system):
        # every decade of distance from the elliptic boundary, on and off
        # the axis, across the degeneracy thresholds: every lane's reason,
        # and the values of the accepted lanes at mantissa 1 and 0 ulps
        grid = [(m, side * 10.0 ** e, sign, ulps)
                for e in range(-15, 0) for m in (1.0, 1.3, 1.7)
                for sign in (1.0, -1.0, 0.0)
                for side in ((1.0, -1.0) if sign == 0.0 else (1.0,))
                for ulps in range(-2, 3)]
        h, l = (np.array(v) for v in zip(*(
            double_turning_point(system, m * u, sign, ulps)
            for m, u, sign, ulps in grid)))
        T, theta, reason = assert_lanes_hold(system, h, l)
        i = np.flatnonzero((reason == 0) & np.array(
            [m == 1.0 and ulps == 0 for m, _, _, ulps in grid]))
        assert_matches_mpmath(system, h[i], l[i], T[i], theta[i])

    def test_degeneracy_threshold(self):
        # where the float roots are exact, the 1e-12 rule falls to the ulp.
        # On the pendulum's l = 0 axis at h = -2 + k 2^-51, wc = 2 and w2 =
        # -h come out exact, h + 2 apart: rejected through k = 2251, 9.996e-13
        # apart, and accepted from k = 2252, 1.0001e-12 apart
        h = -2.0 + np.arange(2245, 2260) * 2.0 ** -51
        assert (SphericalPendulum().period_rotation_array(h, 0.0 * h)[2]
                == np.where(h + 2.0 <= 1e-12, systems.DOUBLE_TURNING_POINT,
                            0)).all()
        # the champagne bottle's are sqrt(1 + 4 h) apart, 0 at h = -1/4 and
        # at least 2^-26.5 ~ 1.05e-8 at the floats above it, so the rule
        # rejects h = -1/4 alone
        h = np.array([-0.25 - 2.0 ** -54, -0.25, -0.25 + 2.0 ** -55,
                      -0.25 + 2.0 ** -54])
        assert (ChampagneBottle(gamma=0.5).period_rotation_array(
            h, 0.0 * h)[2].tolist()
            == [systems.NO_TORUS, systems.ELLIPTIC_BOUNDARY, 0, 0])

    @pytest.mark.xfail(strict=True, reason="near a double turning point "
                       "the pendulum's roots carry errors of order EPS/gap, "
                       "which reach Theta")
    @pytest.mark.parametrize("torus", [
        (-1.999999, 0.0), double_turning_point(SphericalPendulum(), 1e-7,
                                               1.0, 0)],
        ids=["axis", "off-axis"])
    def test_theta_near_a_double_turning_point(self, torus):
        # a known defect pinned: the accepted pendulum tori with turning
        # points 5e-7 (on the axis, h + 2 = 1e-6) and 3.2e-8 apart miss
        # Theta by 7.0e-4 and 1.2e-4; when their Theta meets the gate, this
        # test passes, and its xfail mark must come off
        system, (h, l) = SphericalPendulum(), torus
        _, theta, reason = system.period_rotation_array(np.array([h]),
                                                        np.array([l]))
        assert reason[0] == 0 and h < PENDULUM_THETA_H_MIN
        with mp.workdps(MP_DPS):
            _, theta_mp = mp_period_rotation(system.name, mp.mpf(h),
                                             mp.mpf(l or 1e-300))
            assert float(abs(theta[0] - theta_mp)) <= AXIS_THETA_TOL


class TestBitForBit:
    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_window_and_transport(self, batch):
        # a lane in the window, by check_window's rule on Python floats, is
        # the array form's lane bit for bit, its value or its reason; one
        # outside carries the WindowError with check_window's text; and
        # transport records a rejected lane as its reason's exception,
        # class and message
        system, h, l = batch
        T, theta, ok, failed = _tori(system, h, l)
        want_T, want_theta, reason = system.period_rotation_array(h, l)
        for i in range(h.size):
            r = to_momentum_chart(system, EMValue(h[i], l[i])).modulus
            if r < system.j_floor:
                text = (f"|j|={r:.17g} below floor {system.j_floor:.17g}: "
                        "too close to the singular fiber")
            elif r > system.j_cap:
                text = f"|j|={r:.17g} above cap {system.j_cap:.17g}"
            else:
                assert ([bits(T[i]), bits(theta[i]), bool(ok[i])]
                        == [bits(want_T[i]), bits(want_theta[i]),
                            not reason[i]])
                if reason[i]:
                    want = system.rejection(int(reason[i]), h[i], l[i])
                    assert (type(failed[i]), str(failed[i])) \
                        == (type(want), str(want))
                continue
            assert not ok[i] and type(failed[i]) is WindowError
            assert str(failed[i]) == text
        for i in failed:
            got = transport(system, h[i:i + 1], l[i:i + 1])[3][0]
            assert (type(got), str(got)) == (type(failed[i]), str(failed[i]))

    @given(batches(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_lanes_do_not_depend_on_their_batch(self, batch, rnd):
        system, h, l = batch
        whole = system.period_rotation_array(h, l)
        order = list(range(h.size))
        rnd.shuffle(order)
        order = np.array(order)
        back = np.argsort(order)
        shuffled = system.period_rotation_array(h[order], l[order])
        doubled = system.period_rotation_array(np.tile(h, 2), np.tile(l, 2))
        for i in range(h.size):
            one = system.period_rotation_array(h[i:i + 1], l[i:i + 1])
            lane = [bits(a[i]) for a in whole[:2]] + [whole[2][i]]
            assert lane == [bits(a[0]) for a in one[:2]] + [one[2][0]]
            j = back[i]
            assert lane == ([bits(a[j]) for a in shuffled[:2]]
                            + [shuffled[2][j]])
            k = i + h.size
            assert lane == ([bits(a[k]) for a in doubled[:2]]
                            + [doubled[2][k]])


CHAMPAGNE, PENDULUM = ChampagneBottle(gamma=0.5), SphericalPendulum()
# each reason at a torus of each system that has it, with the class and
# message that the one-torus entries raised for it before the closed form
# had only its array body; "window", "closed form" and "flow" say which
# stage rejects the torus (_tori's window, period_rotation_array, or the
# flow seeds of _tori_flow).  NO_DERIVATIVE, which only complex lanes
# reach, is test_closed_form.test_lane_without_a_complex_step's.
REJECTION_TEXTS = [
    (CHAMPAGNE, "window", "BELOW_FLOOR", (1e-7, 0.0), WindowError,
     "|j|=7.0710678118654745e-08 below floor 1.0000000000000001e-05: too "
     "close to the singular fiber"),
    (PENDULUM, "window", "BELOW_FLOOR", (1e-7, 0.0), WindowError,
     "|j|=9.9999999999999995e-08 below floor 1.0000000000000001e-05: too "
     "close to the singular fiber"),
    (CHAMPAGNE, "window", "ABOVE_CAP", (0.9, 0.0), WindowError,
     "|j|=0.63639610306789274 above cap 0.29999999999999999"),
    (PENDULUM, "window", "ABOVE_CAP", (0.9, 0.0), WindowError,
     "|j|=0.90000000000000002 above cap 0.20000000000000001"),
    (CHAMPAGNE, "closed form", "NO_TORUS", (-0.3, 0.0), NoTorusError,
     "no torus at (h, l)=(-0.3, 0)"),
    (PENDULUM, "closed form", "NO_TORUS", (-2.5, 0.0), NoTorusError,
     "no torus at (h, l)=(-2.5, 0)"),
    (CHAMPAGNE, "closed form", "NO_REGULAR_TORUS", (1.31, 2.92),
     NoTorusError, "no regular torus at (h, l)=(1.31, 2.92)"),
    (PENDULUM, "closed form", "NO_REGULAR_TORUS", (0.5, 3.0),
     NoTorusError, "no regular torus at (h, l)=(0.5, 3)"),
    (CHAMPAGNE, "closed form", "UNSETTLED", (0.05, 0.02),
     NoTorusError, "no regular torus at (h, l)=(0.05, 0.02): root iteration "
     "did not settle"),
    (PENDULUM, "closed form", "UNSETTLED", (0.05, 0.02), NoTorusError,
     "no regular torus at (h, l)=(0.05, 0.02): root iteration did not "
     "settle"),
    (CHAMPAGNE, "closed form", "SINGULAR_FIBER", (0.0, 0.0),
     NoTorusError, "(h, l)=(0, 0) is on the singular fiber"),
    (PENDULUM, "closed form", "SINGULAR_FIBER", (0.0, 0.0),
     NoTorusError, "(h, l)=(0, 0) is on the singular fiber"),
    (CHAMPAGNE, "closed form", "ELLIPTIC_BOUNDARY", (-0.25, 0.0),
     TurningPointDegeneracy,
     "double turning point at (h, l)=(-0.25, 0): elliptic boundary"),
    (PENDULUM, "closed form", "DOUBLE_TURNING_POINT",
     (-1.9999998999999988, 1.000000000048738e-07), TurningPointDegeneracy,
     "double turning point at (h, l)=(-2, 1e-07)"),
    (CHAMPAGNE, "flow", "CENTER_PASSAGE", (0.05, 0.0), FlowError,
     "no turning-point seed on the l = 0 axis at (h, l)=(0.05, 0): r_lo = 0 "
     "is a center passage"),
    (PENDULUM, "flow", "POLE_PASSAGE", (0.05, 0.0), FlowError,
     "no turning-point seed on the l = 0 axis at (h, l)=(0.05, 0): z1 = -1 "
     "is a pole passage"),
    (SphericalPendulum(j_cap=1.5), "flow", "MISSES_EQUATOR",
     (-0.9, 0.6), FlowError, "the orbit at (h, l)=(-0.9, 0.6) misses the "
     "equator z = 0"),
]


@pytest.mark.parametrize(
    "system,stage,name,torus,cls,text", REJECTION_TEXTS,
    ids=[f"{row[0].name}-{row[2].lower()}" for row in REJECTION_TEXTS])
def test_every_reason_names_its_rejection(monkeypatch, system, stage, name,
                                          torus, cls, text):
    # every reason is reached on a real lane and on a complex one, a step
    # of 1e-30 in h (0 at the singular fiber, where T and Theta have no
    # derivative; the flow seeds take real lanes only), and names one
    # class and message, which the one-torus entries raise as well
    reason = getattr(systems, name)
    if reason == systems.UNSETTLED:
        monkeypatch.setattr(systems, "NEWTON_MAX_ITER", 1)
    h, l = (np.array([x]) for x in torus)
    step = 0.0 if reason == systems.SINGULAR_FIBER else 1e-30
    if stage == "flow":
        (got,), _ = lattice._tori_flow(system, [EMValue(*torus)])
        errors = [got]
        one = lattice.reduced_period_rotation
        args = (system, EMValue(*torus), "flow")
    elif stage == "window":
        errors = [_tori(system, x, l)[3][0] for x in (h, h + 1j * step)]
        one, args = system.check_window, (EMValue(*torus),)
    else:
        for x in (h, h + 1j * step):
            assert system.period_rotation_array(x, l)[2].tolist() == [reason]
        errors = [system.rejection(reason, *torus)]
        one, args = system.reduced_profile, (EMValue(*torus),)
    with pytest.raises(cls) as raised:
        one(*args)
    for got in errors + [raised.value]:
        assert (type(got), str(got)) == (cls, text)


@pytest.mark.parametrize("system", [ChampagneBottle(gamma=0.5),
                                    SphericalPendulum()],
                         ids=["champagne", "pendulum"])
def test_failed_tori_in_a_path_carry_the_scalar_exception(system):
    # the exceptions of the scalar era, class and message, recorded at
    # their path indices; the rest of the path is carried as if they were
    # absent
    arc = [from_momentum_chart(system, MomentumValue(
        1e-2 * math.cos(th), 1e-2 * math.sin(th)))
        for th in 0.5 + 0.1 * np.arange(6)]
    cap = f"{system.j_cap:.17g}"
    bad = {1: (EMValue(0.0, 0.0), WindowError,    # below the |j| floor
               "|j|=0 below floor 1.0000000000000001e-05: too close to the "
               "singular fiber"),
           3: (EMValue(0.9, 0.0), WindowError,    # above the |j| cap
               {"champagne": "|j|=0.63639610306789274",
                "pendulum": "|j|=0.90000000000000002"}[system.name]
               + f" above cap {cap}")}
    if system.name == "champagne":
        # 1 + 4 h < 0: no torus; s1 = s2: a double turning point
        bad[4] = (EMValue(-0.3, 0.0), NoTorusError,
                  "no torus at (h, l)=(-0.3, 0)")
        bad[6] = (EMValue(-0.25, 0.0), TurningPointDegeneracy,
                  "double turning point at (h, l)=(-0.25, 0): elliptic "
                  "boundary")
    path = list(arc)
    for i in sorted(bad):
        path.insert(i, bad[i][0])
    h, l = (np.array(v) for v in zip(*((c.h, c.l) for c in path)))
    *out, failed = transport(system, h, l)
    assert {i: (type(e), str(e)) for i, e in failed.items()} \
        == {i: (cls, text) for i, (_, cls, text) in bad.items()}
    keep = [i for i in range(len(path)) if i not in bad]
    *want, arc_failed = transport(system, h[keep], l[keep])
    assert arc_failed == {}
    for got, arc_value in zip(out, want):
        assert np.array_equal(got[keep], arc_value)
