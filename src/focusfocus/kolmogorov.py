"""Frequency map and its action Jacobian near the singular fiber.

omega1 = 2 pi / T and omega2 = Theta / T on each torus.  The Jacobian
determinant with respect to the actions is obtained from the (h, l) chart
and the exact chain factor:

    dI1 = (T dh - Theta dl) / 2 pi,  I2 = l
    => det d(h,l)/dI = 2 pi / T = omega1,
    det domega/dI = omega1 * det domega/d(h,l).

It is compared against the predicted asymptote -(2 pi alpha / (|j| tau1^2))^2,
which is negative: the frequency map is non-degenerate on every regular
torus close to the fiber.  The Jacobian is branch-invariant, so stencils
(numerics.fd_derivative) only need Theta aligned to their centre
(lattice.period_lattice).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import TWO_PI, fd_derivative
from .lattice import (MomentumValue, from_momentum_chart, period_lattice,
                      reduced_period_rotation, to_momentum_chart)
from .systems import EMValue, SystemDefinition

JAC_STEP_REL = 1e-2     # FD steps shrink with |j|: derivative scales ~1/|j|


@dataclass(frozen=True)
class FrequencySample:
    c: EMValue
    j_mod: float
    tau1: float
    omega1: float
    omega2: float
    det_c: float          # det d(omega1, omega2)/d(h, l)
    det_I: float          # = omega1 * det_c
    asymptote: float      # -(2 pi alpha / (|j| tau1^2))^2
    ratio: float          # det_I / asymptote


def frequency_jacobian_det(system: SystemDefinition,
                           c: EMValue) -> FrequencySample:
    """Central differences of (omega1, omega2) in (h, l), with Theta locally
    branch-aligned across the stencil."""
    ff = system.constants()
    j = to_momentum_chart(system, c)
    d = JAC_STEP_REL * j.modulus
    T0, theta0 = reduced_period_rotation(system, c)

    def omegas(h: float, l: float) -> np.ndarray:
        s = period_lattice(system, EMValue(h, l), theta0)
        return np.array([TWO_PI / s.T, s.theta / s.T])

    d11, d21 = fd_derivative(lambda h: omegas(h, c.l), c.h, step=d)
    d12, d22 = fd_derivative(lambda l: omegas(c.h, l), c.l, step=d)
    det_c = float(d11 * d22 - d12 * d21)

    omega1 = TWO_PI / T0
    tau1 = ff.alpha * T0
    asym = -((TWO_PI * ff.alpha) / (j.modulus * tau1 ** 2)) ** 2
    det_i = omega1 * det_c
    return FrequencySample(c=c, j_mod=j.modulus, tau1=tau1,
                           omega1=omega1, omega2=theta0 / T0,
                           det_c=det_c, det_I=det_i, asymptote=asym,
                           ratio=det_i / asym)


def tau_jacobian(system: SystemDefinition, c: EMValue) -> np.ndarray:
    """d(tau1, tau2)/d(j1, j2) on the linear chart by Richardson-extrapolated
    central differences; rows = (tau1, tau2), columns = (d/dj1, d/dj2)."""
    j = to_momentum_chart(system, c)
    d = JAC_STEP_REL * j.modulus
    _, theta0 = reduced_period_rotation(system, c)

    def taus(j1: float, j2: float) -> np.ndarray:
        s = period_lattice(system, from_momentum_chart(
            system, MomentumValue(j1, j2)), theta0)
        return np.array([s.tau1, s.tau2])

    return np.column_stack([
        fd_derivative(lambda t: taus(t, j.j2), j.j1, "richardson", step=d),
        fd_derivative(lambda t: taus(j.j1, t), j.j2, "richardson", step=d)])


def asymptote_sweep(system: SystemDefinition, ray_angle: float,
                    r_min: float, r_max: float,
                    samples_per_decade: int = 3) -> list[FrequencySample]:
    """Logarithmically spaced frequency-Jacobian samples along one ray."""
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    n = max(2, int(round(samples_per_decade * math.log10(r_max / r_min))) + 1)
    out = []
    for rho in np.geomspace(r_min, r_max, n).tolist():
        j = MomentumValue(rho * math.cos(ray_angle), rho * math.sin(ray_angle))
        out.append(frequency_jacobian_det(system,
                                          from_momentum_chart(system, j)))
    return out
