import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (AnnulusRegion, BranchError, ChampagneBottle, EMValue,
                        MomentumValue, NoTorusError, PeriodLatticeSample,
                        SphericalPendulum, align_angle, from_momentum_chart,
                        monodromy_index, rotation_grid, transport)
from focusfocus.lattice import (MAX_BRANCH_STEP, RAY_OFFSET,
                                reduced_period_rotation)

TWO_PI = 2.0 * math.pi
SYSTEMS = {"champagne": ChampagneBottle(gamma=0.5),
           "champagne0": ChampagneBottle(gamma=0.0),
           "pendulum": SphericalPendulum()}


def circle(system, rho, angles):
    return [from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                      rho * math.sin(th)))
            for th in angles]


def sequential(system, path):
    """Reference: the one-torus-at-a-time align_angle loop that transport
    replaces; (T, Theta, branch) per torus."""
    out, theta_ref = [], None
    for c in path:
        T, raw = reduced_period_rotation(system, c)
        theta = raw if theta_ref is None else align_angle(raw, theta_ref)
        out.append((T, theta, int(round((theta - raw) / TWO_PI))))
        theta_ref = theta
    return out


def transported(system, path):
    return [(s.T, s.theta, s.branch) for s in transport(system, path)]


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
            transport(sys_, row)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_under_resolved_loop(self, system):
        sys_ = SYSTEMS[system]
        loop = circle(sys_, 1e-2,
                      TWO_PI * np.arange(5) / 4 + math.pi / 4)
        with pytest.raises(BranchError):
            transport(sys_, loop)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_five_angles_pass(self, system):
        sys_ = SYSTEMS[system]
        row = circle(sys_, 1e-2, RAY_OFFSET + TWO_PI * np.arange(5) / 5)
        thetas = [s.theta for s in transport(sys_, row)]
        assert np.max(np.abs(np.diff(thetas))) <= MAX_BRANCH_STEP

    def test_grid_row_raises_rather_than_masks(self):
        with pytest.raises(BranchError):
            rotation_grid(SYSTEMS["champagne"], AnnulusRegion(1e-3, 1e-2),
                          (2, 4))


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
        out = transport(sys_, path)
        assert isinstance(out[k], NoTorusError)
        with pytest.raises(NoTorusError, match=f"^{re.escape(str(out[k]))}$"):
            reduced_period_rotation(sys_, path[k])
        rest = out[:k] + out[k + 1:]
        assert all(isinstance(s, PeriodLatticeSample) for s in rest)
        assert rest == transport(sys_, path[:k] + path[k + 1:])
