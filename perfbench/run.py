"""chiral-vacuum benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src/`` directory, never from an installed copy.  With ``--trace 0``
the workload runs as a closed loop with one caller for at least S
seconds, whole rounds at a time, and the end-to-end metrics are printed.
With ``--trace 1`` one fixed round runs twice in-process, plain and then
with the tracer installed, and the per-layer metrics are printed; the
fixed round makes the work counters repeat exactly for a seed.  The
traced ``cli_mix`` run also replays one ``verify``, which traces the
``acceptance`` layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host, the sample counts and the failures.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one thread per process: set before numpy loads its BLAS; children inherit it
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Wrong, child_env, run_python  # noqa: E402

PACKAGE_DIR = os.path.join(ROOT, "src", "chiral_vacuum")
SETUP_REPEATS = 5
# The probe: a fixed pure-Python loop, timed between operations.  The
# speed of a small shared host drifts by up to 1.8x within a minute; the
# probe drifts with it, and scaling operation times by PROBE_REF_S over
# the probe's time cancels most of the drift.  PROBE_REF_S is about the
# probe's time on the 2-vCPU Xeon VM the benchmark was written on, so
# that reference-speed figures read close to wall times there.
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.0064
IMPORTTIME_REPEATS = 3
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TIMER_NOTE = ("process-local timers only (time.perf_counter, getrusage); "
              "no hardware counters, CPU pinning or cache dropping")


@dataclass
class Record:
    op: Any
    result: Any
    error: Optional[str]
    latency_s: float
    probe_s: float  # mean time of the probes just before and after the call


def _probe_loop() -> float:
    x = 0.0
    for i in range(PROBE_LOOPS):
        x += (i * 0.5) % 7.0
    return x


def probe_s() -> float:
    """Wall time of the fixed probe loop: how fast the host runs now.

    The loop runs once untimed first: after a child process it would
    otherwise run from cold caches and time those, not the host.
    """
    _probe_loop()
    start = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - start


def run_ops(ops, fn: Callable) -> list:
    """Call ``fn`` on each op in turn, timing each call and the probe
    before and after it."""
    records = []
    before = probe_s()
    for op in ops:
        start = time.perf_counter()
        try:
            result, error = fn(op), None
        except Exception as exc:  # a raising operation is a counted failure, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        after = probe_s()
        records.append(Record(op, result, error, latency, (before + after) / 2.0))
        before = after
    return records


def closed_loop(make_round: Callable, call: Callable, seconds: float, min_ops: int = 1):
    """Whole rounds of operations until ``seconds`` have passed and at
    least ``min_ops`` operations have run."""
    records = []
    start = time.perf_counter()
    while True:
        records += run_ops(make_round(), call)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= min_ops:
            return records, elapsed


def score(records, check: Callable) -> list:
    """Failure reason per record, None where the operation succeeded.

    An operation fails when it raised, or when ``check`` finds its result
    wrong (non-zero exit, non-finite value, reference missed).
    """
    reasons = []
    for rec in records:
        reasons.append(rec.error if rec.error is not None else check(rec.op, rec.result))
    return reasons


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; inf sorts last."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def ref_seconds(records, per_op: bool = True) -> list:
    """Each call's time at the reference host speed.

    In-process calls are scaled by the probes around each of them.  A
    child process's time follows the probe only over many calls, so
    ``per_op=False`` scales every call by the median probe of the run.
    """
    if per_op:
        return [rec.latency_s * PROBE_REF_S / rec.probe_s for rec in records]
    scale = PROBE_REF_S / statistics.median(rec.probe_s for rec in records)
    return [rec.latency_s * scale for rec in records]


def end_to_end(records, reasons, elapsed_s, peak_rss_mb, setup, per_op=True) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample record that goes with them.

    Timings are at the reference host speed (see ``PROBE_REF_S``); the
    sample record holds their wall-clock counterparts.  ``setup`` is
    (reference, wall) seconds.  A failed operation counts as missing
    every latency limit, so it enters the percentiles as +inf;
    throughput counts successes only.
    """
    ok = [r is None for r in reasons]
    ref_s = ref_seconds(records, per_op)
    ref_ms = [t * 1e3 if good else math.inf for t, good in zip(ref_s, ok)]
    wall_ms = [rec.latency_s * 1e3 if good else math.inf for rec, good in zip(records, ok)]
    metrics = {
        "throughput_ops_s": (sum(ok) / sum(ref_s), "1/s"),
        "op_p50_ms": (percentile(ref_ms, 50), "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (sum(ok) / len(ok), "ratio"),
    }
    samples = {"op_latency": len(records), "setup_s": SETUP_REPEATS, "timed_s": elapsed_s,
               "fail_rate": 1.0 - sum(ok) / len(ok),
               "wall_throughput_ops_s": sum(ok) / sum(rec.latency_s for rec in records),
               "wall_op_p50_ms": percentile(wall_ms, 50),
               "wall_setup_s": setup[1],
               "host_speed": PROBE_REF_S / statistics.median(rec.probe_s for rec in records)}
    # a p90 needs at least ten samples beyond it
    if len(records) >= 100:
        samples["op_p90_ms"] = percentile(ref_ms, 90)
        samples["wall_op_p90_ms"] = percentile(wall_ms, 90)
    return metrics, samples


# ----------------------------------------------------------------- set-up

def setup_seconds(env) -> tuple[float, float]:
    """Median time of ``import chiral_vacuum`` in fresh interpreters, at
    the reference host speed and on the wall clock."""
    code = ("import time; t = time.perf_counter(); import chiral_vacuum; "
            "d = time.perf_counter() - t; print(d); print(chiral_vacuum.__file__)")
    records = run_ops(range(SETUP_REPEATS), lambda _: run_python(["-c", code], env, ROOT).stdout.split())
    for rec in records:
        if rec.error is not None or not rec.result[1].startswith(PACKAGE_DIR):
            raise RuntimeError(f"import chiral_vacuum from the checkout failed: {rec.error or rec.result[1]}")
        rec.latency_s = float(rec.result[0])  # the import alone, timed in the child
    return (statistics.median(ref_seconds(records, per_op=False)),
            statistics.median(rec.latency_s for rec in records))


def import_layers(env) -> dict:
    """Median import cost of numpy, scipy and the package's own modules (ms).

    From ``python -X importtime``: numpy and scipy are the cumulative
    times of their outermost subtrees, the package its modules' self time.
    """
    samples = {"numpy": [], "scipy": [], "chiral_vacuum": []}
    for _ in range(IMPORTTIME_REPEATS):
        stderr = run_python(["-X", "importtime", "-c", "import chiral_vacuum"], env, ROOT).stderr
        rows = []
        for line in stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or not parts[0].split(":")[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((int(parts[0].split(":")[1]), int(parts[1]), depth, name.strip()))
        totals = dict.fromkeys(samples, 0)
        stack = []  # ancestors of the current line; children print before parents
        for self_us, cum_us, depth, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            root = name.split(".")[0]
            outer = [r for _, r in stack]
            if root == "chiral_vacuum":
                totals[root] += self_us
            elif root in ("numpy", "scipy") and not ({"numpy", "scipy"} & set(outer)):
                totals[root] += cum_us
            stack.append((depth, root))
        for key in samples:
            samples[key].append(totals[key] / 1e3)
    return {f"import.{'chiral_vacuum_self' if k == 'chiral_vacuum' else k}_ms":
            (statistics.median(v), "ms") for k, v in samples.items()}


def host_record(threads_env_was_set: bool) -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "CHIRAL_VACUUM_THREADS": "unset",
        "CHIRAL_VACUUM_THREADS_removed_from_env": threads_env_was_set,
        "threads": 1,
        "thread_env": {k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "timers": TIMER_NOTE,
    }


# ----------------------------------------------------------------- traced

def install_tracer(cv, tracer) -> None:
    """Wrap the public functions of every domain layer (see README.md)."""
    def nodes(t, args, result):
        t.count("pasteur.reflection_cross.nodes", args[0].size if isinstance(args[0], np.ndarray) else 1)

    def sweep(t, args, result):
        t.count("pasteur.points", len(args[0]))
        t.count("pasteur.warnings", sum(r.warning is not None for r in result))

    def point(t, args, result):
        t.count("pasteur.points")

    def terms(per_transition: bool, ensemble_arg: Optional[int] = None):
        def work(t, args, result):
            n = len(args[0].modes)
            n *= len(args[1].transitions) if per_transition else 1
            if ensemble_arg is not None and len(args) > ensemble_arg and args[ensemble_arg] is not None:
                n += len(args[0].modes)
            t.count("cavity.mode_terms", n)
        return work

    def rendered(t, args, result):
        t.count("output.bytes", len(result.encode("utf-8")))

    table = [
        ("pasteur", "reflection_cross", "count", nodes),
        ("pasteur", "halfspace_sweep", "span", sweep),
        ("pasteur", "chiral_shift_halfspace", "span", point),
        ("cavity", "cavity_shift_report", "span", terms(True, 2)),
        ("cavity", "london_shift", "timed", terms(True)),
        ("cavity", "debye_shift_per_molecule", "timed", terms(False)),
        ("cavity", "thermal_ratio_london", "timed", None),
        ("cavity", "thermal_ratio_debye", "timed", None),
        ("kinetics", "selectivity", "timed", None),
        ("kinetics", "selectivity_tst", "timed", None),
        ("kinetics", "selectivity_sweep", "timed", None),
        ("kinetics", "tst_activation", "timed", None),
        ("kinetics", "zero_point_frequency_shift", "timed", None),
        ("config", "parse_config", "span", None),
        ("output", "render", "span", rendered),
        ("cli", "run", "span", None),
    ]
    for layer, attr, kind, work in table:
        module = f"chiral_vacuum.{layer}"
        if module in sys.modules:
            tracer.install(module, attr, layer, kind, work)


def install_acceptance_tracer(cv, tracer) -> None:
    """Wrap each ``acceptance.CRITERIA`` entry, and nothing else."""
    for i, fn in enumerate(cv.acceptance.CRITERIA, 1):
        tracer.install("chiral_vacuum.acceptance", fn.__name__, "acceptance", "span",
                       name=f"acceptance.criterion_{i}")


def per_layer(tracer, stats, overhead_ratio, imports, acceptance_busy) -> dict:
    c, busy, self_s = tracer.counters, tracer.busy_s, tracer.self_s
    nodes = c.get("pasteur.reflection_cross.nodes", 0)
    points = c.get("pasteur.points", 0)
    metrics = dict(imports)
    metrics.update({
        "pasteur.reflection_cross.calls": (c.get("pasteur.reflection_cross.calls", 0), "count"),
        "pasteur.reflection_cross.nodes": (nodes, "count"),
        "pasteur.nodes_per_point": (nodes / points if points else 0.0, "count"),
        "pasteur.halfspace_sweep.busy_s": (busy.get("pasteur.halfspace_sweep", 0.0), "s"),
        "pasteur.chiral_shift_halfspace.busy_s": (busy.get("pasteur.chiral_shift_halfspace", 0.0), "s"),
        "pasteur.warnings": (c.get("pasteur.warnings", 0), "count"),
        "pasteur.checked_points": (stats.checked, "count"),
        "pasteur.max_rel_err": (stats.max_rel_err, "ratio"),
        "pasteur.err_bound_ok_ratio": (stats.bound_ok / stats.bound_checked
                                       if stats.bound_checked else 0.0, "ratio"),
        "cavity.cavity_shift_report.busy_s": (busy.get("cavity.cavity_shift_report", 0.0), "s"),
        "cavity.debye_shift_per_molecule.calls": (c.get("cavity.debye_shift_per_molecule.calls", 0),
                                                  "count"),
        "cavity.mode_terms": (c.get("cavity.mode_terms", 0), "count"),
        "kinetics.selectivity.calls": (c.get("kinetics.selectivity.calls", 0), "count"),
        "kinetics.busy_s": (busy.get("kinetics", 0.0), "s"),
        "config.parse_config.busy_s": (busy.get("config.parse_config", 0.0), "s"),
        "output.render.busy_s": (busy.get("output.render", 0.0), "s"),
        "output.bytes": (c.get("output.bytes", 0), "bytes"),
        "cli.run.busy_s": (busy.get("cli.run", 0.0), "s"),
        "cli.run.self_s": (self_s.get("cli.run", 0.0), "s"),
    })
    for i in range(1, 9):
        metrics[f"acceptance.criterion_{i}.busy_s"] = (acceptance_busy.get(f"acceptance.criterion_{i}", 0.0),
                                                       "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def trace_replay(cv, workload, ops, install=install_tracer):
    """Replay ``ops`` in-process with the tracer installed; (records, tracer)."""
    tracer = Tracer()
    install(cv, tracer)
    try:
        def traced(op):
            with tracer.span("op", "bench"):
                return workload.replay(op)
        return run_ops(ops, traced), tracer
    finally:
        tracer.uninstall()


def traced_run(cv, workload, ops, env):
    """Plain replay, then traced replay, of the same fixed operations."""
    plain = run_ops(ops, workload.replay)
    records, tracer = trace_replay(cv, workload, ops)
    reasons = score(records, workload.check)
    if hasattr(workload, "probe_error_bounds"):
        workload.probe_error_bounds(ops)
    overhead = sum(r.latency_s for r in records) / sum(r.latency_s for r in plain)
    trace = {"round": tracer.record()}
    acceptance_busy = {}
    if hasattr(workload, "acceptance_op"):
        # the criteria run the Pasteur kernel too; a tracer of their own
        # keeps that work out of the round's counters
        extra, acceptance = trace_replay(cv, workload, [workload.acceptance_op()],
                                         install_acceptance_tracer)
        records, reasons = records + extra, reasons + score(extra, workload.check)
        acceptance_busy, trace["acceptance"] = acceptance.busy_s, acceptance.record()
    metrics = per_layer(tracer, workload.stats, overhead, import_layers(env), acceptance_busy)
    return records, reasons, metrics, trace


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"no chiral_vacuum sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    threads_env_was_set = os.environ.pop("CHIRAL_VACUUM_THREADS", None) is not None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chiral_vacuum as cv

    if not os.path.abspath(cv.__file__).startswith(PACKAGE_DIR):
        print(f"imported chiral_vacuum from {cv.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        kind = WORKLOADS[args.workload]
        workload = kind(cv) if kind.in_process else kind(cv, ROOT, workdir)
        rng = np.random.default_rng(args.seed)
        env = child_env(ROOT)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "host": host_record(threads_env_was_set)}
        if args.trace:
            records, reasons, metrics, trace = traced_run(cv, workload, workload.round(rng), env)
            info["samples"] = {"operations": len(records)}
            os.makedirs(OUT_DIR, exist_ok=True)
            out = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({**info, **trace}, fh)
            info["trace_file"] = os.path.relpath(out, ROOT)
        else:
            records, elapsed = closed_loop(lambda: workload.round(rng), workload.call, args.seconds,
                                           getattr(workload, "min_ops", 1))
            peak_rss = workload.peak_rss_mb()
            reasons = score(records, workload.check)
            metrics, info["samples"] = end_to_end(records, reasons, elapsed, peak_rss,
                                                  setup_seconds(env), workload.in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failures = [f"{rec.op.kind}: {why}" for rec, why in zip(records, reasons) if why is not None]
    info["failures"] = failures[:10]
    # a raise or a non-zero exit is a failure; a result that misses its
    # reference also makes the run incorrect
    correct = not any(isinstance(why, Wrong) for why in reasons)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
