import warnings

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

from focusfocus import ChampagneBottle, SphericalPendulum, cli


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
def report_cfg():
    """A fresh copy of report's defaults: the config each criterion takes."""
    return dict(cli.READS["report"])
