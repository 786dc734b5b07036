"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from mlcp import specfun


class _CountingNumpy:
    """numpy as specfun sees it, with one entry per np.expm1 call logged."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(np, name)

    def expm1(self, *args):
        self.calls.append(np.size(args[0]))
        return np.expm1(*args)


@pytest.fixture
def stirling_terms(monkeypatch):
    """A list that gets one entry (the element count) per Stirling term
    that specfun.lgamma_diff runs: its only np.expm1 call."""
    calls = []
    monkeypatch.setattr(specfun, "np", _CountingNumpy(calls))
    return calls
