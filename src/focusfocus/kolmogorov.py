"""Frequency map and its action Jacobian near the singular fiber.

omega1 = 2 pi / T and omega2 = Theta / T on each torus.  The Jacobian
determinant with respect to the actions is obtained from the (h, l) chart
and the exact chain factor:

    dI1 = (T dh - Theta dl) / 2 pi,  I2 = l
    => det d(h,l)/dI = 2 pi / T = omega1,
    det domega/dI = omega1 * det domega/d(h,l).

So T and Theta are the gradient of one action, and every Jacobian here
comes from its Hessian, T_h, T_l = -Theta_h and Theta_l, exact to rounding
by a complex step (lattice.derivatives).  The determinant is compared
against the predicted asymptote -(2 pi alpha / (|j| tau1^2))^2, which is
negative: the frequency map is non-degenerate on every regular torus close
to the fiber.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import TWO_PI
from .lattice import derivatives
from .systems import EMValue, SystemDefinition, from_momentum_chart, polar


@dataclass(frozen=True)
class FrequencySample:
    j_mod: float
    tau1: float
    det_I: float          # omega1 det d(omega1, omega2)/d(h, l)
    asymptote: float      # -(2 pi alpha / (|j| tau1^2))^2
    ratio: float          # det_I / asymptote


def _hessian(system: SystemDefinition, h, l) -> np.ndarray:
    """(T, T_h, T_l, Theta_h, Theta_l) of the tori (h, l), flat arrays,
    rows (5, n), from one call of 2n lanes, T the real parts of the lanes
    stepped in h; raises the first failing torus's error."""
    n = np.size(h)
    along_h = np.repeat([1.0, 0.0], n)
    T, _, dT, dtheta, failed = derivatives(system, np.tile(h, 2),
                                           np.tile(l, 2), along_h,
                                           1.0 - along_h)
    if failed:
        raise failed[min(failed, key=lambda k: (k % n, k))]
    return np.concatenate([T[None, :n], dT.reshape(2, n),
                           dtheta.reshape(2, n)])


def frequency_samples(system: SystemDefinition, h: np.ndarray,
                      l: np.ndarray) -> list[FrequencySample]:
    """The frequency-map Jacobian at each torus (h, l), flat arrays:
    det domega/d(h, l) = -2 pi (T_h Theta_l - T_l Theta_h) / T^3, T and
    its derivatives at all tori from one complex array call."""
    ff = system.constants()
    out = []
    for j, (T, T_h, T_l, th_h, th_l) in zip(
            system.window_radius(h, l).tolist(),
            _hessian(system, h, l).T.tolist()):
        det_c = -TWO_PI * (T_h * th_l - T_l * th_h) / T ** 3
        omega1, tau1 = TWO_PI / T, ff.alpha * T
        asym = -((TWO_PI * ff.alpha) / (j * tau1 ** 2)) ** 2
        det_i = omega1 * det_c
        out.append(FrequencySample(j, tau1, det_i, asym, det_i / asym))
    return out


def frequency_jacobian_det(system: SystemDefinition, c: EMValue
                           ) -> FrequencySample:
    """frequency_samples at one torus."""
    return frequency_samples(system, np.array([c.h]), np.array([c.l]))[0]


def tau_jacobian(system: SystemDefinition, c: EMValue) -> np.ndarray:
    """d(tau1, tau2)/d(j1, j2) on the linear chart, rows = (tau1, tau2),
    columns = (d/dj1, d/dj2): with tau1 = alpha T, tau2 = omega T - Theta,
    d/dj1 = alpha d/dh and d/dj2 = omega d/dh + d/dl."""
    ff = system.constants()
    a, w = ff.alpha, ff.omega
    (_, T_h, T_l, th_h, th_l), = _hessian(system, c.h, c.l).T.tolist()
    return np.array([[a * a * T_h, a * (w * T_h + T_l)],
                     [a * (w * T_h - th_h),
                      w * (w * T_h + T_l) - (w * th_h + th_l)]])


def asymptote_sweep(system: SystemDefinition, ray_angle: float,
                    r_min: float, r_max: float,
                    samples_per_decade: int = 3) -> list[FrequencySample]:
    """Logarithmically spaced frequency-Jacobian samples along one ray, in
    one frequency_samples call."""
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    n = max(2, int(round(samples_per_decade * math.log10(r_max / r_min))) + 1)
    c = from_momentum_chart(system, polar(np.geomspace(r_min, r_max, n),
                                          [ray_angle]))
    return frequency_samples(system, c.h.ravel(), c.l.ravel())
