"""Session set-up shared by the test modules."""

import warnings

import pytest
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning


@pytest.hookimpl(trylast=True)  # after Hypothesis's own plugin has started
def pytest_sessionstart(session):
    """Draw one text before any test runs.  The first `st.text()` draw
    builds Hypothesis's unicode tables (about 2 s, cached under
    .hypothesis/ afterwards); inside a test that draw would count against
    the test's own deadline and health checks, so a fresh checkout pays it
    here instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.text().example()
