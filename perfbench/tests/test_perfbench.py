"""Self-tests of the benchmark: failure accounting and pinned work counters.

The counters are pinned for one small seed so that a change which makes
the program do more work shows up here, not only as a slower run.  A
change that alters the work on purpose updates the numbers and says so.
"""

import math

import numpy as np
import pytest

import chiral_vacuum as cv
from perfbench import run, workloads


def _scan_ops(seed, n):
    scan = workloads.MaterialScan(cv)
    ops = [op for op in scan.round(np.random.default_rng(seed)) if op.kind == "random"][:n]
    return scan, ops


def _small_cli_ops(tmp_path, seed):
    """One round of cli_mix without the 100,004-row and pasteur operations."""
    mix = workloads.CliMix(cv, run.ROOT, str(tmp_path))
    ops = [op for op in mix.round(np.random.default_rng(seed))
           if "large" not in op.kind and not op.kind.startswith("pasteur")]
    return mix, ops


def test_perturbed_and_raising_operations_count_as_failures():
    scan, ops = _scan_ops(3, 3)
    for op in ops:
        op.check_points = (0,)

    def call(op):
        if op is ops[1]:
            return scan.call(op) * (1.0 + 1e-5)  # outside the 1e-6 bound
        if op is ops[2]:
            raise ZeroDivisionError("injected")
        return scan.call(op)

    records = run.run_ops(ops, call)
    reasons = run.score(records, scan.check)
    assert reasons[0] is None
    assert isinstance(reasons[1], workloads.Wrong)
    assert reasons[2] == "ZeroDivisionError: injected"
    metrics, samples = run.end_to_end(records, reasons, 1.0, 1.0, (1.0, 1.0))
    assert samples["fail_rate"] == pytest.approx(2 / 3)
    assert metrics["success_rate"][0] == pytest.approx(1 / 3)
    assert math.isinf(metrics["op_p50_ms"][0])  # two of three miss every latency limit


def test_cli_output_that_differs_from_the_program_is_wrong(tmp_path):
    mix, ops = _small_cli_ops(tmp_path, 5)
    op = next(op for op in ops if op.kind == "cavity-csv")
    result = mix.replay(op)
    assert mix.check(op, result) is None
    rows = result.text.splitlines()
    last = rows[-1].split(",")
    last[4] = repr(float(last[4]) * (1.0 + 1e-6))
    result.text = "\n".join(rows[:-1] + [",".join(last)]) + "\n"
    assert isinstance(mix.check(op, result), workloads.Wrong)


def test_material_scan_rounds_keep_the_endpoints():
    scan = workloads.MaterialScan(cv)
    kinds = [op.kind for op in scan.round(np.random.default_rng(0))]
    assert kinds.count("kappa_r=+1") == kinds.count("kappa_r=-1") == kinds.count("kappa_r=+0") == 1


def test_oracle_meets_its_own_accuracy_target():
    value, err = workloads.oracle.halfspace_shift(0.5, 2.0, 3.0, 0.4 * math.sqrt(6.0), [2.0], [0.1])
    assert err <= workloads.oracle.ORACLE_REL_TOL * abs(value)
    assert value == pytest.approx(cv.chiral_shift_halfspace(
        0.5, cv.MoleculeSpectrum.two_level(2.0, 0.1), cv.PasteurMaterial(2.0, 3.0, 0.4 * math.sqrt(6.0))),
        rel=1e-6)


def test_work_counters_repeat_and_stay_pinned(tmp_path):
    scan, ops = _scan_ops(7, 2)
    first = run.trace_replay(cv, scan, ops)[1].counters
    again = run.trace_replay(cv, scan, ops)[1].counters
    assert first == again
    assert first["pasteur.reflection_cross.nodes"] == 111846

    counters = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        mix, cli_ops = _small_cli_ops(tmp_path / sub, 7)
        counters.append(run.trace_replay(cv, mix, cli_ops)[1].counters)
    assert counters[0] == counters[1]
    pinned = {"cavity.mode_terms": 300, "kinetics.selectivity.calls": 492, "output.bytes": 51366}
    assert {key: counters[0][key] for key in pinned} == pinned
