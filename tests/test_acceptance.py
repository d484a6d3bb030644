"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure); the same checks back the CLI ``verify`` command.
"""

import math

import pytest

from chiral_vacuum import PasteurMaterial, acceptance, pasteur
from perfbench import oracle as reference


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


@pytest.mark.parametrize("z,eps_r,mu_r,kappa_r", [
    # criterion 7's samples
    (0.3, 1.0, 1.0, 0.4), (0.5, 1.0, 1.0, 0.4), (0.5, 1.0, 1.0, 0.2),
    (1.0, 1.0, 1.0, 0.4), (1.5, 1.0, 1.0, 0.2),
    (1e-3, 2.5, 1.3, 0.67), (0.5, 2.5, 1.3, 0.67),
    (1e-3, 0.2, 5.0, 1.0), (0.5, 0.2, 5.0, 1.0),
])
def test_oracle_matches_the_benchmark_reference(z, eps_r, mu_r, kappa_r):
    # The benchmark's reference takes the x integral in closed form and
    # c' by Simpson in ln p, so it shares no rule with the oracle; the
    # oracle's two sizes agreeing with each other would show nothing.
    kappa = kappa_r * math.sqrt(eps_r * mu_r)
    value, _ = acceptance.oracle_dense_halfspace_shift(z, PasteurMaterial(eps_r, mu_r, kappa))
    ref, _ = reference.halfspace_shift(z, eps_r, mu_r, kappa, [2.0], [0.1])
    assert abs(value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("z", [1e-12, 1e-20])
def test_oracle_resolves_distances_far_below_its_old_first_x_panel(z):
    # a << 1e-9: the x axis must start below z, or the oracle loses the
    # x ~ z part of the integrand (it had been 91 % and 100 % off here)
    material = PasteurMaterial(1.0, 1.0, 0.4)
    value, estimate = acceptance.oracle_dense_halfspace_shift(z, material)
    [(_, shift, _, failure)] = pasteur._shift_scaled([z], acceptance._TWO_LEVEL, material)
    assert failure is None
    assert abs(value - shift) <= 1e-9 * abs(shift)
    assert abs(value - shift) <= estimate
