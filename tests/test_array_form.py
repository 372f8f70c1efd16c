"""The array form of the closed form (period_rotation_array, behind
lattice._tori) against the scalar form, bit for bit: every
accepted lane equals period_rotation, a lane is accepted exactly when the
scalar form succeeds, a rejected lane raises the scalar exception through
transport, and no lane depends on its batch."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (ChampagneBottle, EMValue, FocusFocusError,
                        MomentumValue, NoTorusError, SphericalPendulum,
                        TurningPointDegeneracy, WindowError,
                        from_momentum_chart, transport)
from focusfocus.lattice import _tori, reduced_period_rotation
from focusfocus.systems import EPS

# what the scalar form may raise on a lane the array form must reject
SCALAR_FAILURES = (FocusFocusError, ArithmeticError, ValueError)


@st.composite
def systems(draw):
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
    system = draw(systems())
    lanes = draw(st.lists(tori(system), min_size=1, max_size=max_size))
    h, l = (np.array(v, dtype=float) for v in zip(*lanes))
    return system, h, l


def bits(x) -> str:
    return float(x).hex()


def scalar(fn, system, h, l):
    try:
        return fn(system, EMValue(float(h), float(l)))
    except SCALAR_FAILURES as exc:
        return exc


def assert_matches_period_rotation(system, h, l):
    T, theta, ok = system.period_rotation_array(h, l)
    for i in range(h.size):
        want = scalar(type(system).period_rotation, system, h[i], l[i])
        if isinstance(want, Exception):
            assert not ok[i], (h[i], l[i], want)
        else:
            assert ok[i], (h[i], l[i])
            assert (bits(T[i]), bits(theta[i])) == tuple(map(bits, want))


class TestBitForBit:
    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_period_rotation(self, batch):
        assert_matches_period_rotation(*batch)

    @pytest.mark.parametrize("system", [ChampagneBottle(gamma=0.5),
                                        ChampagneBottle(gamma=-1.3),
                                        SphericalPendulum()],
                             ids=["champagne", "champagne-1.3", "pendulum"])
    def test_double_turning_points(self, system):
        # every decade of distance from the elliptic boundary, on and off
        # the axis, across the degeneracy thresholds
        lanes = [double_turning_point(system, side * m * 10.0 ** e, sign,
                                      ulps)
                 for e in range(-15, 0) for m in (1.0, 1.3, 1.7)
                 for sign in (1.0, -1.0, 0.0)
                 for side in ((1.0, -1.0) if sign == 0.0 else (1.0,))
                 for ulps in range(-2, 3)]
        h, l = (np.array(v) for v in zip(*lanes))
        assert_matches_period_rotation(system, h, l)

    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_window_and_transport(self, batch):
        # a lane is accepted exactly when reduced_period_rotation succeeds;
        # a rejected one is recorded by transport as the exception, class
        # and message, that the scalar call raises
        system, h, l = batch
        T, theta, ok, _ = _tori(system, h, l)
        for i in range(h.size):
            want = scalar(reduced_period_rotation, system, h[i], l[i])
            if not isinstance(want, Exception):
                assert ok[i], (h[i], l[i])
                assert (bits(T[i]), bits(theta[i])) == tuple(map(bits, want))
                continue
            assert not ok[i], (h[i], l[i], want)
            if isinstance(want, FocusFocusError):
                got = transport(system, h[i:i + 1], l[i:i + 1])[3][0]
                assert type(got) is type(want)
                assert str(got) == str(want)

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


@pytest.mark.parametrize("system", [ChampagneBottle(gamma=0.5),
                                    SphericalPendulum()],
                         ids=["champagne", "pendulum"])
def test_failed_tori_in_a_path_carry_the_scalar_exception(system):
    arc = [from_momentum_chart(system, MomentumValue(
        1e-2 * math.cos(th), 1e-2 * math.sin(th)))
        for th in 0.5 + 0.1 * np.arange(6)]
    bad = {1: EMValue(0.0, 0.0),     # below the |j| floor
           3: EMValue(0.9, 0.0)}     # above the |j| cap
    if system.name == "champagne":
        bad[4] = EMValue(-0.3, 0.0)    # 1 + 4 h < 0: no torus
        bad[6] = EMValue(-0.25, 0.0)   # s1 = s2: a double turning point
    path = list(arc)
    for i in sorted(bad):
        path.insert(i, bad[i])
    h, l = (np.array(v) for v in zip(*((c.h, c.l) for c in path)))
    *out, failed = transport(system, h, l)
    assert sorted(failed) == sorted(bad)
    kinds = set()
    for i, c in bad.items():
        with pytest.raises(FocusFocusError) as info:
            reduced_period_rotation(system, c)
        assert type(failed[i]) is type(info.value)
        assert str(failed[i]) == str(info.value)
        kinds.add(type(failed[i]))
    assert kinds == ({WindowError, NoTorusError, TurningPointDegeneracy}
                     if system.name == "champagne" else {WindowError})
    keep = [i for i in range(len(path)) if i not in bad]
    *want, arc_failed = transport(system, h[keep], l[keep])
    assert arc_failed == {}
    for got, arc_value in zip(out, want):
        assert np.array_equal(got[keep], arc_value)
