"""Hypothesis settings for the suite: the same examples on every run, and no
per-example deadline, so a slow host neither changes nor fails a property."""

import warnings

import pytest
from hypothesis import settings

settings.register_profile("inaclink", derandomize=True, deadline=None)
settings.load_profile("inaclink")


def pytest_runtest_makereport(item, call):
    # On a falsified property, Hypothesis's pytest plugin imports libcst to
    # suggest an @example patch.  That import warns (mypy_extensions.TypedDict
    # is deprecated), and the suite's warnings-as-errors filter would turn the
    # warning into an INTERNALERROR that ends the whole run.  Import it first
    # with that one warning silenced, so the property is reported as failed.
    if call.excinfo is not None and getattr(item.obj, "is_hypothesis_test", False):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                    DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture
def doubles_read(monkeypatch):
    """A list that collects the size of each block of uniforms the sampler reads.

    It wraps montecarlo._uniform_block, the sampler's one reader of the stream.
    """
    from inaclink import montecarlo

    read = []
    block = montecarlo._uniform_block

    def counted(*args):
        u = block(*args)
        read.append(u.size)
        return u

    monkeypatch.setattr(montecarlo, "_uniform_block", counted)
    return read
