import warnings

import numpy as np
import pytest

# hypothesis reports a failing @given test through hypothesis.extra._patching,
# whose libcst import trips mypy_extensions' TypedDict DeprecationWarning.
# Under the error::DeprecationWarning filter that import would raise inside
# pytest's report hook (INTERNALERROR, the session aborts and the failure is
# lost), so import it once here with that one warning silenced.  The filter
# itself is untouched: the package's own deprecations still fail.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from focusfocus import (ChampagneBottle, EMValue, FocusFocusError,
                        SphericalPendulum, SystemDefinition, lattice)


@pytest.fixture(scope="session")
def champagne():
    return ChampagneBottle(gamma=0.5)


@pytest.fixture(scope="session")
def champagne0():
    return ChampagneBottle(gamma=0.0)


@pytest.fixture(scope="session")
def pendulum():
    return SphericalPendulum()


@pytest.fixture
def scalar_path(monkeypatch):
    """A switch that puts every torus on the scalar path for the rest of
    the test: the array closed form, one body that every system shares,
    is replaced by one that sends each real lane through
    lattice.reduced_period_rotation, ok where that call returns and
    rejected where it raises, and rejects every complex lane.  Calling it
    returns the list of tori that function then receives."""
    def scalar_lanes(self, h, l):
        T, theta = np.full((2, h.size), np.nan)
        ok = np.zeros(h.size, dtype=bool)
        if h.dtype.kind == "c":
            return T, theta, ok
        for i, c in enumerate(map(EMValue, h.tolist(), l.tolist())):
            try:
                T[i], theta[i] = lattice.reduced_period_rotation(self, c)
                ok[i] = True
            except FocusFocusError:
                pass
        return T, theta, ok

    def switch() -> list:
        monkeypatch.setattr(SystemDefinition, "period_rotation_array",
                            scalar_lanes)
        calls = []
        rpr = lattice.reduced_period_rotation

        def counting(system, c, *args, **kwargs):
            calls.append(c)
            return rpr(system, c, *args, **kwargs)

        monkeypatch.setattr(lattice, "reduced_period_rotation", counting)
        return calls
    return switch
