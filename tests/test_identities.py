"""The runnable identity report: every suite must pass on a clean build."""

import math

import pytest

from mlcp import identities
from mlcp.errors import MlcpError
from mlcp.identities import (
    check_orthogonality,
    run_all,
)


def test_all_identities_pass():
    results = run_all()
    failed = [r for r in results if not r.passed]
    assert not failed, "failed identities: " + ", ".join(r.name for r in failed)


def test_exact_checks_have_zero_deviation():
    exact_names = {
        "hermite_differentiation",
        "hermite_functional_equation",
        "hermite_vanishing_sum",
        "stirling_alternating_sum",
        "gfrak_stirling_form",
        "pfrak_quartic_form",
    }
    for res in run_all():
        if res.name in exact_names:
            assert res.worst == 0.0, f"{res.name} deviated by {res.worst}"


@pytest.mark.parametrize("nu", [0, 1])
def test_orthogonality_tolerances(nu):
    res = check_orthogonality(nu)
    assert res.passed
    assert res.worst <= 1e-8


def test_report_shape():
    results = run_all()
    assert len(results) >= 14
    for r in results:
        assert isinstance(r.name, str) and r.name
        assert isinstance(r.passed, bool)
        assert isinstance(r.worst, float) or math.isinf(r.worst)


def test_crashed_orthogonality_check_is_named(monkeypatch):
    def crash(nu):
        raise MlcpError(f"forced failure, nu={nu}")

    monkeypatch.setattr(identities, "_orthogonality_worst", crash)
    failed = {r.name: r for r in run_all() if not r.passed}
    for nu in (0, 1):
        name = f"check_orthogonality_nu{nu}"
        assert name in failed
        assert f"nu={nu}" in failed[name].detail
    assert "<lambda>" not in failed
