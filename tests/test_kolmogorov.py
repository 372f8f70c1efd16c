import math

import numpy as np
import pytest

from focusfocus import (EMValue, MomentumValue, StencilError, asymptote_sweep,
                        cross_check, eval_constants, frequency_jacobian_det,
                        frequency_map, from_momentum_chart, rotation_number,
                        tau_jacobian)
from focusfocus.lattice import reduced_period_rotation

TWO_PI = 2.0 * math.pi


def ray_point(system, rho, th):
    return from_momentum_chart(
        system, MomentumValue(rho * math.cos(th), rho * math.sin(th)))


class TestFrequencyMap:
    def test_rotation_number_identity(self, champagne):
        c = EMValue(0.08, 0.02)
        w1, w2 = frequency_map(champagne, c)
        assert w2 / w1 == pytest.approx(rotation_number(champagne, c),
                                        abs=1e-10)

    def test_cross_engine(self, champagne):
        c = EMValue(0.1, 0.05)
        q = frequency_map(champagne, c)
        res = cross_check(champagne, c)
        f = (TWO_PI / res["T_flow"], res["theta_flow"] / res["T_flow"])
        assert q[0] == pytest.approx(f[0], rel=1e-7)
        assert q[1] == pytest.approx(f[1], rel=1e-7)

    def test_omega1_log_vanishing_along_ray(self, champagne):
        # omega1 (-ln|j|) / (2 pi alpha) -> 1, monotonically
        ff = eval_constants(champagne)
        errs = []
        for rho in (1e-2, 1e-3, 1e-4):
            w1, _ = frequency_map(champagne, ray_point(champagne, rho, 0.7))
            errs.append(abs(w1 * (-math.log(rho)) / (TWO_PI * ff.alpha) - 1))
        assert errs[0] > errs[1] > errs[2]


class TestJacobianDeterminant:
    def test_negative_on_sampled_tori(self, champagne, pendulum):
        for system in (champagne, pendulum):
            for th in (0.7, 2.2, 3.9, 5.5):
                for rho in (1e-4, 1e-3, 1e-2):
                    fs = frequency_jacobian_det(system,
                                                ray_point(system, rho, th))
                    assert fs.det_I < 0.0
                    assert fs.asymptote < 0.0

    def test_chain_factor_exact(self, champagne):
        fs = frequency_jacobian_det(champagne, ray_point(champagne, 1e-3, 0.7))
        assert fs.det_I == fs.det_c * fs.omega1

    def test_ratio_near_one_and_improving(self, champagne):
        sweep = asymptote_sweep(champagne, 0.7, 1e-4, 1e-2,
                                samples_per_decade=1)
        errs = [abs(fs.ratio - 1.0) for fs in sweep]   # ascending |j|
        assert errs[0] <= 0.30
        assert all(errs[i] <= errs[i + 1] * 1.05 for i in range(len(errs) - 1))

    def test_branch_reference_invariance(self, champagne):
        # the Jacobian does not depend on the sheet: recompute with every
        # stencil Theta shifted one sheet up
        c = ray_point(champagne, 1e-3, 0.7)
        base = frequency_jacobian_det(champagne, c)
        d = 1e-2 * 1e-3
        _, theta0 = reduced_period_rotation(champagne, c)

        def omegas(cc, shift):
            T, theta = reduced_period_rotation(champagne, cc)
            theta = theta + TWO_PI * np.round((theta0 - theta) / TWO_PI) + shift
            return TWO_PI / T, theta / T

        w1hp, w2hp = omegas(EMValue(c.h + d, c.l), TWO_PI)
        w1hm, w2hm = omegas(EMValue(c.h - d, c.l), TWO_PI)
        w1lp, w2lp = omegas(EMValue(c.h, c.l + d), TWO_PI)
        w1lm, w2lm = omegas(EMValue(c.h, c.l - d), TWO_PI)
        det_c = ((w1hp - w1hm) * (w2lp - w2lm)
                 - (w1lp - w1lm) * (w2hp - w2hm)) / (4 * d * d)
        det_shifted = det_c * base.omega1
        assert det_shifted == pytest.approx(base.det_I, rel=1e-6)


class TestTauJacobian:
    def test_det_scaling(self, champagne):
        # det dtau/dj = -1/|j|^2 at leading order
        rho = 1e-3
        tj = tau_jacobian(champagne, ray_point(champagne, rho, 0.7))
        det = tj[0, 0] * tj[1, 1] - tj[0, 1] * tj[1, 0]
        assert det * rho ** 2 == pytest.approx(-1.0, abs=0.10)

    def test_mixed_partials_symmetric(self, champagne):
        tj = tau_jacobian(champagne, ray_point(champagne, 1e-3, 0.7))
        rel = abs(tj[0, 1] - tj[1, 0]) / max(abs(tj[0, 1]), abs(tj[1, 0]))
        assert rel <= 1e-5

    def test_partial_scaling_table_bounded(self, champagne):
        # |d omega1 / dj| |j| tau1^2 and |d omega2 / dj| |j| tau1 stay
        # bounded across three decades
        ff = eval_constants(champagne)
        bound1 = 4.0 * TWO_PI * ff.alpha
        bound2 = 4.0 * ff.alpha
        for rho in (1e-2, 1e-3, 1e-4):
            c = ray_point(champagne, rho, 0.7)
            d = 1e-2 * rho
            T0, theta0 = reduced_period_rotation(champagne, c)
            tau1 = ff.alpha * T0

            def omegas(cc):
                T, theta = reduced_period_rotation(champagne, cc)
                theta += TWO_PI * np.round((theta0 - theta) / TWO_PI)
                return np.array([TWO_PI / T, theta / T])

            # j-chart directions through the linear map
            dw_dj1 = (omegas(EMValue(c.h + ff.alpha * d, c.l))
                      - omegas(EMValue(c.h - ff.alpha * d, c.l))) / (2 * d)
            dw_dj2 = (omegas(EMValue(c.h + ff.omega * d, c.l + d))
                      - omegas(EMValue(c.h - ff.omega * d, c.l - d))) / (2 * d)
            assert abs(dw_dj1[0]) * rho * tau1 ** 2 <= bound1
            assert abs(dw_dj2[0]) * rho * tau1 ** 2 <= bound1
            assert abs(dw_dj1[1]) * rho * tau1 <= bound2
            assert abs(dw_dj2[1]) * rho * tau1 <= bound2


class TestStencilLeavesTheWindow:
    # at 0.999 j_cap the 1% stencil steps cross the window cap
    @pytest.mark.parametrize("jacobian", [frequency_jacobian_det,
                                          tau_jacobian])
    def test_raises_stencil_error(self, champagne, jacobian):
        c = ray_point(champagne, 0.999 * champagne.j_cap, 0.0)
        with pytest.raises(StencilError):
            jacobian(champagne, c)


class TestSweep:
    def test_emits_requested_range(self, champagne):
        sweep = asymptote_sweep(champagne, 1.2, 1e-3, 1e-2,
                                samples_per_decade=3)
        mods = [fs.j_mod for fs in sweep]
        assert mods[0] == pytest.approx(1e-3, rel=1e-9)
        assert mods[-1] == pytest.approx(1e-2, rel=1e-9)
        assert len(mods) == 4

    def test_rejects_bad_range(self, champagne):
        with pytest.raises(ValueError):
            asymptote_sweep(champagne, 0.0, 1e-2, 1e-3)
