"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure); the same checks back the CLI ``verify`` command.
"""

import pytest

from chiral_vacuum import acceptance, pasteur


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in acceptance.run_all()}


@pytest.mark.parametrize("index,name", [
    (1, "cavity London estimate"),
    (2, "collective Debye magnitude"),
    (3, "thermal London bound"),
    (4, "thermal Debye ratio"),
    (5, "non-retarded agreement"),
    (6, "symmetry suite"),
    (7, "quadrature robustness"),
    (8, "TST consistency"),
])
def test_criterion(results, index, name):
    r = results[index]
    print(f"{'PASS' if r.passed else 'FAIL'}  {r.index}. {r.name}: {r.detail}")
    assert r.name == name
    assert r.passed, r.detail


def test_quadrature_failure_fails_the_criterion_without_raising(monkeypatch):
    monkeypatch.setattr(pasteur, "MAX_SUBDIVISIONS", 10)  # fails at z = 1e-3
    r = acceptance.criterion_5_nonretarded_agreement()
    assert not r.passed
    assert "quadrature failed" in r.detail
