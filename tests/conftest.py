"""Session set-up shared by the test modules."""

import warnings

import pytest
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning


@pytest.hookimpl(trylast=True)  # after Hypothesis's own plugin has started
def pytest_sessionstart(session):
    """Draw one text and load Hypothesis's failure patch writer before any
    test runs.  The first `st.text()` draw builds Hypothesis's unicode
    tables (about 2 s, cached under .hypothesis/ afterwards); inside a test
    that draw would count against the test's own deadline and health
    checks, so a fresh checkout pays it here instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.text().example()
    # Reporting a failed Hypothesis test imports its patch writer, and through
    # it libcst, which warns that mypy_extensions.TypedDict is deprecated;
    # with warnings as errors that import would end the session.  Importing
    # it once here, with the warning ignored, leaves it cached for the report.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # libcst is optional
            pass
