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

from focusfocus import ChampagneBottle, SphericalPendulum, lattice


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
    the test: no system's array closed form accepts a lane, so each goes
    through lattice.reduced_period_rotation.  Calling it returns the list
    of tori that function then receives."""
    def rejecting(self, h, l):
        nan = np.full(h.shape, np.nan)
        return nan, nan.copy(), np.zeros(h.shape, dtype=bool)

    def switch() -> list:
        for cls in (ChampagneBottle, SphericalPendulum):
            monkeypatch.setattr(cls, "period_rotation_array", rejecting)
        calls = []
        rpr = lattice.reduced_period_rotation

        def counting(system, c, *args, **kwargs):
            calls.append(c)
            return rpr(system, c, *args, **kwargs)

        monkeypatch.setattr(lattice, "reduced_period_rotation", counting)
        return calls
    return switch
