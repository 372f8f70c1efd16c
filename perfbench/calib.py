"""A fixed reference computation that gauges the machine's speed while the
program runs.

A shared host's speed can drift by a third over minutes and swing by a
fifth within a second, and an unscaled wall time then measures the host,
not the program.  While a child process runs the timed CLI invocation, a
``Sampler`` interrupts it every TICK_S seconds (SIGALRM) to time one call
of ``reference``; the child subtracts those calls from its wall time, and
run.py scales the run's times to a machine of constant speed:
``scaled = measured * REF_S / median(reference times of the run)``.
Sampling inside the timed work, not before or after it, is what makes the
reference track the speed the program saw.

The computation makes the kinds of calls the program spends its time in
(solve_ivp with a Python right-hand side, QUADPACK with a Python
integrand, Brent's method) and calls nothing of the program, so no change
to the program changes it.  It touches no state of the program, so the
program's outputs are the same with and without the sampler.
"""
import math
import signal
import time

from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

REPEATS = 2
TICK_S = 0.5
# Nominal seconds of one reference() call, about its median on the 2-vCPU
# machine the baseline was measured on: scaled times are seconds on a
# machine where reference() takes exactly this long.
REF_S = 0.03


def reference() -> float:
    """Seconds that one fixed batch of solver calls takes now."""
    t0 = time.perf_counter()
    for k in range(REPEATS):
        a = 0.5 + 0.01 * k
        solve_ivp(lambda t, y: (y[1], -a * math.sin(y[0])), (0.0, 20.0),
                  [1.0, 0.0], rtol=1e-9, atol=1e-12)
        quad(lambda x: math.sqrt(x * (1.0 - x)) / (1.0 + a * x), 0.0, 1.0,
             epsabs=1e-13, epsrel=1e-12)
        brentq(lambda x: math.cos(x) - a * x, 0.0, 2.0, xtol=1e-14)
    return time.perf_counter() - t0


class Sampler:
    """Within ``with Sampler() as s:``, time reference() every TICK_S
    seconds into ``s.times``; at least once, at the exit if the block was
    shorter than a tick.  Subtract ``sum(s.times)`` from the block's time."""

    def __init__(self):
        self.times: list[float] = []
        self._handler = None

    def _tick(self, signum, frame):
        self.times.append(reference())

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        if not self.times:
            self.times.append(reference())
        return False
