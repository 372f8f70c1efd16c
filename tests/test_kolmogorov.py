import math

import numpy as np
import pytest

from focusfocus import (EMValue, MomentumValue, WindowError, asymptote_sweep,
                        eval_constants, frequency_jacobian_det,
                        from_momentum_chart, tau_jacobian)
from focusfocus import kolmogorov, lattice
from focusfocus.lattice import reduced_period_rotation

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def ray_point(system, rho, th):
    return from_momentum_chart(
        system, MomentumValue(rho * math.cos(th), rho * math.sin(th)))


class TestFrequencyMap:
    def test_omega1_log_vanishing_along_ray(self, champagne):
        # omega1 = 2 pi / T: omega1 (-ln|j|) / (2 pi alpha) -> 1,
        # monotonically
        ff = eval_constants(champagne)
        errs = []
        for rho in (1e-2, 1e-3, 1e-4):
            T, _ = reduced_period_rotation(champagne,
                                           ray_point(champagne, rho, 0.7))
            w1 = TWO_PI / T
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
        # det_I = omega1 det domega/d(h, l), with det domega/d(h, l) =
        # -2 pi (T_h Theta_l - T_l Theta_h) / T^3 from the same derivatives
        c = ray_point(champagne, 1e-3, 0.7)
        fs = frequency_jacobian_det(champagne, c)
        (T, T_h, T_l, th_h, th_l), = kolmogorov._hessian(champagne, c.h,
                                                         c.l).T
        assert T == pytest.approx(reduced_period_rotation(champagne, c)[0],
                                  rel=4 * EPS)
        det_c = -TWO_PI * (T_h * th_l - T_l * th_h) / T ** 3
        assert fs.det_I == (TWO_PI / T) * det_c

    def test_ratio_near_one_and_improving(self, champagne):
        sweep = asymptote_sweep(champagne, 0.7, 1e-4, 1e-2,
                                samples_per_decade=1)
        errs = [abs(fs.ratio - 1.0) for fs in sweep]   # ascending |j|
        assert errs[0] <= 0.30
        assert all(errs[i] <= errs[i + 1] * 1.05 for i in range(len(errs) - 1))

    def test_branch_reference_invariance(self, champagne):
        # the Jacobian does not depend on the sheet: a Richardson stencil
        # with every stencil Theta shifted one sheet up gives the exact
        # determinant to its O(d^4) truncation
        c = ray_point(champagne, 1e-3, 0.7)
        base = frequency_jacobian_det(champagne, c)
        T0, theta0 = reduced_period_rotation(champagne, c)

        def omegas(cc):
            T, theta = reduced_period_rotation(champagne, cc)
            theta = theta + TWO_PI * np.round((theta0 - theta) / TWO_PI)
            return np.array([TWO_PI / T, (theta + TWO_PI) / T])

        def gradient(d):
            return [(omegas(EMValue(c.h + d * e, c.l + d * (1 - e)))
                     - omegas(EMValue(c.h - d * e, c.l - d * (1 - e))))
                    / (2 * d) for e in (1, 0)]

        d = 1e-2 * 1e-3
        (w1h, w2h), (w1l, w2l) = [(4 * b - a) / 3 for a, b in
                                  zip(gradient(d), gradient(d / 2))]
        det_shifted = (w1h * w2l - w1l * w2h) * TWO_PI / T0
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
        # T_l = -Theta_h makes them equal to rounding
        rel = abs(tj[0, 1] - tj[1, 0]) / max(abs(tj[0, 1]), abs(tj[1, 0]))
        assert rel <= 1e-13

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


class TestJacobianAtTheWindowCap:
    # a torus inside the cap evaluates however close to it; past the cap
    # the Jacobian raises the window's error
    @pytest.mark.parametrize("jacobian", [frequency_jacobian_det,
                                          tau_jacobian])
    def test_evaluates_inside_raises_beyond(self, champagne, jacobian):
        jacobian(champagne, ray_point(champagne, 0.999 * champagne.j_cap, 0.0))
        with pytest.raises(WindowError):
            jacobian(champagne,
                     ray_point(champagne, 1.001 * champagne.j_cap, 0.0))


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


@pytest.mark.parametrize("name", ["champagne", "pendulum"])
def test_frequency_samples_is_one_closed_form_call(request, monkeypatch,
                                                   name):
    # T and every derivative come from the lanes of one complex call: the
    # values are its real parts, so no second, real call is made
    system = request.getfixturevalue(name)
    calls = []
    tori = lattice._tori

    def counting(*args):
        calls.append(args[1].size)
        return tori(*args)

    # every binding of the evaluator in the package, as the tracer rebinds
    for module in (lattice, kolmogorov):
        if getattr(module, "_tori", None) is tori:
            monkeypatch.setattr(module, "_tori", counting)
    c = [ray_point(system, rho, 0.7) for rho in (1e-4, 1e-3, 1e-2)]
    samples = kolmogorov.frequency_samples(
        system, np.array([x.h for x in c]), np.array([x.l for x in c]))
    assert len(samples) == 3 and calls == [6]
