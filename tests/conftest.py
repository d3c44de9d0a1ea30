import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Load the module Hypothesis's plugin imports after a failed example, warnings ignored.

    Its import chain (libcst, mypy_extensions) raises a DeprecationWarning,
    which the suite's filter turns into an error: the plugin's own hook then
    ends the run with INTERNALERROR instead of reporting one failed test.
    Imported here first, it is already loaded when the plugin asks; a green
    run never loads it.
    """
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture
def rng():
    return np.random.default_rng(0)
