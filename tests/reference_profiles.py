"""The S^1-reduced profiles of the built-in systems, written out from the
focusfocus.systems docstring: the reference the turning points that
reduced_profile returns are checked against; and flow_seeds, the seeds of
single tori."""
import numpy as np


def champagne_profile(gamma, c, r):
    """rdot^2 = P(r) = 2(h - gamma l) - l^2/r^2 + 2 r^2 - 2 r^4."""
    return (2.0 * (c.h - gamma * c.l) - c.l * c.l / (r * r) + 2.0 * r * r
            - 2.0 * r ** 4)


def champagne_profile_dr(c, r):
    """dP/dr = 2 l^2/r^3 + 4 r - 8 r^3."""
    return 2.0 * c.l * c.l / r ** 3 + 4.0 * r - 8.0 * r ** 3


def pendulum_profile(c, z):
    """zdot^2 = f(z) = 2(h_raw - z)(1 - z^2) - l^2, h_raw = h + 1."""
    return 2.0 * (c.h + 1.0 - z) * (1.0 - z * z) - c.l * c.l


def flow_seeds(system, *tori):
    """The flow seeds of the tori, one block (d, m) with each torus's seeds
    side by side, from one flow_start call; every torus must have them."""
    h, l = (np.array(v, dtype=float) for v in zip(*((c.h, c.l)
                                                    for c in tori)))
    _, seeds, reason = system.flow_start(h, l)
    assert not reason.any(), reason
    return seeds.reshape(seeds.shape[0], -1)
