import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (BranchError, ChampagneBottle, EMValue,
                        FocusFocusError, MomentumValue, NoTorusError,
                        SphericalPendulum, align_angle, from_momentum_chart,
                        monodromy_index, rotation_grid, transport)
from focusfocus.kolmogorov import frequency_samples
from focusfocus.systems import NO_DERIVATIVE
from focusfocus.lattice import (MAX_BRANCH_STEP, RAY_OFFSET, _tori,
                                reduced_period_rotation)

TWO_PI = 2.0 * math.pi
SYSTEMS = {"champagne": ChampagneBottle(gamma=0.5),
           "champagne0": ChampagneBottle(gamma=0.0),
           "pendulum": SphericalPendulum()}


def circle(system, rho, angles):
    return [from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                      rho * math.sin(th)))
            for th in angles]


def arrays(path):
    """A path of tori as the (h, l) arrays transport takes."""
    return (np.array([c.h for c in path]), np.array([c.l for c in path]))


def sequential(system, path):
    """Reference: the one-torus-at-a-time align_angle loop that transport
    replaces, on the raw values of one closed-form call; (T, Theta,
    branch) per torus."""
    Ts, raws, ok, _ = _tori(system, *arrays(path))
    assert ok.all()
    out, theta_ref = [], None
    for T, raw in zip(Ts.tolist(), raws.tolist()):
        theta = raw if theta_ref is None else align_angle(raw, theta_ref)
        out.append((T, theta, int(round((theta - raw) / TWO_PI))))
        theta_ref = theta
    return out


def transported(system, path):
    T, theta, branch, failed = transport(system, *arrays(path))
    assert failed == {}
    return list(zip(T.tolist(), theta.tolist(), branch.tolist()))


def assert_carried_without(got, want, k):
    """The arrays transport gave (T, Theta, branch), with torus k deleted,
    equal want's to the last bit."""
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(np.delete(a, k), b)


class TestMatchesSequentialReference:
    @given(system=st.sampled_from(["champagne", "pendulum"]),
           log_rho=st.floats(math.log(1e-4), math.log(0.1)),
           start=st.floats(0.0, TWO_PI), span=st.floats(0.05, 2.5 * TWO_PI),
           n=st.integers(64, 200))
    @settings(max_examples=40, deadline=None)
    def test_arcs(self, system, log_rho, start, span, n):
        # arcs may cross the principal cut (and the pendulum's south cut)
        # and wind more than once
        sys_ = SYSTEMS[system]
        n = max(n, int(math.ceil(span / 0.1)))
        path = circle(sys_, math.exp(log_rho),
                      start + span * np.arange(n) / (n - 1))
        assert transported(sys_, path) == sequential(sys_, path)

    @given(system=st.sampled_from(["champagne", "pendulum"]),
           log_rho=st.floats(math.log(1e-4), math.log(0.1)),
           start=st.floats(0.0, TWO_PI), n=st.integers(64, 256),
           orientation=st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_closed_loops(self, system, log_rho, start, n, orientation):
        sys_ = SYSTEMS[system]
        path = circle(sys_, math.exp(log_rho),
                      start + orientation * TWO_PI * np.arange(n + 1) / n)
        assert transported(sys_, path) == sequential(sys_, path)


class TestMonodromyIndexProperty:
    @given(system=st.sampled_from(sorted(SYSTEMS)),
           log_rho=st.floats(math.log(1e-4), math.log(0.1)),
           n=st.integers(64, 256))
    @settings(max_examples=25, deadline=None)
    def test_plus_one_and_minus_one_reversed(self, system, log_rho, n):
        sys_, rho = SYSTEMS[system], math.exp(log_rho)
        assert monodromy_index(sys_, rho, n) == pytest.approx(1.0, abs=1e-9)
        assert monodromy_index(sys_, rho, n, orientation=-1) == \
            pytest.approx(-1.0, abs=1e-9)


class TestWrapGuard:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_under_resolved_row(self, system):
        # 4 angles at |j| = 1e-2: aligned steps 0.506-0.510 pi
        sys_ = SYSTEMS[system]
        row = circle(sys_, 1e-2, RAY_OFFSET + TWO_PI * np.arange(4) / 4)
        with pytest.raises(BranchError, match="refine the path"):
            transport(sys_, *arrays(row))

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_under_resolved_loop(self, system):
        sys_ = SYSTEMS[system]
        loop = circle(sys_, 1e-2,
                      TWO_PI * np.arange(5) / 4 + math.pi / 4)
        with pytest.raises(BranchError):
            transport(sys_, *arrays(loop))

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_five_angles_pass(self, system):
        sys_ = SYSTEMS[system]
        row = circle(sys_, 1e-2, RAY_OFFSET + TWO_PI * np.arange(5) / 5)
        thetas = transport(sys_, *arrays(row))[1]
        assert np.max(np.abs(np.diff(thetas))) <= MAX_BRANCH_STEP

    def test_grid_row_raises_rather_than_masks(self):
        with pytest.raises(BranchError, match="refine the path"):
            rotation_grid(SYSTEMS["champagne"], (1e-3, 1e-2), (2, 4))

    @pytest.mark.parametrize("radius", [0.25, 0.29])
    def test_step_across_failed_tori_names_the_first(self, radius):
        # a loop that leaves the bottle's image: a wide step that spans
        # tori without a regular torus raises the first one's error, not
        # BranchError
        sys_ = SYSTEMS["champagne"]
        h, l = arrays(circle(sys_, radius, TWO_PI * np.arange(257) / 256
                             + math.pi / 256))
        failed = _tori(sys_, h, l)[3]
        firsts = {str(failed[k]) for k in failed if k - 1 not in failed}
        with pytest.raises(NoTorusError, match="^no regular torus at ") as e:
            transport(sys_, h, l)
        assert str(e.value) in firsts


class TestFailedTori:
    @pytest.mark.parametrize("k", [0, 2])
    def test_failed_torus_is_recorded_and_skipped(self, k):
        # torus k has no torus (1 + 4 h < 0 on the champagne bottle's axis):
        # the array form rejects it, the scalar call raises, and the rest are
        # transported as if it were absent, so a failed anchor hands the
        # anchor to the next live torus
        sys_ = SYSTEMS["champagne"]
        path = circle(sys_, 1e-2, 0.5 + np.arange(5) * 0.1)
        path[k] = EMValue(-0.3, 0.0)
        T, theta, branch, failed = transport(sys_, *arrays(path))
        assert list(failed) == [k] and isinstance(failed[k], NoTorusError)
        with pytest.raises(NoTorusError,
                           match=f"^{re.escape(str(failed[k]))}$"):
            reduced_period_rotation(sys_, path[k])
        assert np.isnan(T[k]) and np.isnan(theta[k]) and branch[k] == 0
        rest = transport(sys_, *arrays(path[:k] + path[k + 1:]))
        assert rest[3] == {}
        assert_carried_without((T, theta, branch), rest, k)

    def test_lane_only_the_array_form_rejects_is_named_not_filled(
            self, monkeypatch):
        # torus 2 is a lane in the window that only the array form rejects,
        # here because its complex step would leave the closed form's
        # domain: transport records it as failed with that reason's error,
        # and frequency_samples, on its complex lanes, raises it, where a
        # fill would hide it
        sys_ = SYSTEMS["champagne"]
        path = circle(sys_, 1e-2, 0.5 + np.arange(5) * 0.1)
        k = 2
        array_form = type(sys_).period_rotation_array

        def rejecting_one(self, h, l):
            T, theta, reason = array_form(self, h, l)
            hit = h.real == path[k].h
            T[hit], theta[hit], reason[hit] = np.nan, np.nan, NO_DERIVATIVE
            return T, theta, reason

        monkeypatch.setattr(type(sys_), "period_rotation_array",
                            rejecting_one)
        T, theta, branch, failed = transport(sys_, *arrays(path))
        assert list(failed) == [k] and type(failed[k]) is FocusFocusError
        assert np.isnan(T[k]) and np.isnan(theta[k]) and branch[k] == 0
        with pytest.raises(FocusFocusError, match="^no derivative at .*: "
                           "the complex step leaves the closed form's domain$"):
            frequency_samples(sys_, *arrays(path))


class TestPaths:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_rows_carry_as_their_own_paths(self, system):
        # the last axis runs along a path: each row of a 2-D call, its
        # failures at their flat indices, equals the row carried alone
        sys_ = SYSTEMS[system]
        n = 17
        rows = [circle(sys_, rho, RAY_OFFSET + TWO_PI * np.arange(n) / n)
                for rho in (1e-3, 1e-2, 5e-2)]
        rows[1][3] = EMValue(0.0, 0.0)      # below the |j| floor
        h, l = (np.array(a) for a in zip(*map(arrays, rows)))
        T, theta, branch, failed = transport(sys_, h, l)
        assert T.shape == theta.shape == branch.shape == h.shape
        assert list(failed) == [n + 3]
        for r, row in enumerate(rows):
            alone = transport(sys_, *arrays(row))
            assert {r * n + k: str(e) for k, e in alone[3].items()} \
                == {k: str(e) for k, e in failed.items() if k // n == r}
            for a, b in zip((T[r], theta[r], branch[r]), alone[:3]):
                assert np.array_equal(a, b, equal_nan=True)
