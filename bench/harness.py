"""Measurement loop, checks and report of the benchmark.

One run: measure set-up time in fresh interpreters, set the workload up in
this process, then run passes of its fixed op list back to back (closed
loop, one client) until the run's seconds are used. Outputs of the first
pass are checked when it ends; every later pass must reproduce them
bitwise, and the first op is repeated once more at the end. A traced run alternates
untraced and traced passes, so the tracing overhead is measured in the
same run; its end-to-end numbers are not reported.

Op times are scaled by the machine speed measured around each op with
workloads.reference_probe, so that phases in which the shared host runs
this process slower do not show as changes of the program. Every op is
deterministic, so its executions differ only by the machine; the timing
metrics take each op at the first quartile of its scaled executions and
aggregate over the distinct ops. README.md has the measurements behind
both choices.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

SETUP_PROBES = 9
MIN_PASSES = 3  # untraced passes, so every op has several executions
OP_PCT = 25  # each op's time is this percentile of its scaled executions
TAIL_PCT = 90  # op_ms_tail's percentile over the distinct ops

_PROBE = (
    "import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make(sys.argv[3], int(sys.argv[4]), '', **json.loads(sys.argv[5])).setup()"
)


def _setup_probe(cmd: list[str]) -> float:
    """Wall time of a fresh interpreter that imports the program, builds
    the scenario, draws the inputs and exits.

    Taken as measured: the child may run on the other CPU, so the speed
    this process measures around it does not describe it.
    No timeout: with one, subprocess polls the child with sleeps of up to
    50 ms, which would round every probe up to that grid."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def _scaled_pass(outcomes: list[workloads.Outcome], wall: float) -> tuple[list[float], float]:
    """A pass's op times in ms, each scaled by the machine speed around
    it, and its glue time in s (pass time outside the ops and the
    reference probes), scaled by the pass's median speed."""
    probes = sum(sum(o.refs) for o in outcomes)
    glue = wall - probes - sum(o.seconds for o in outcomes)
    return ([o.seconds * o.speed * 1e3 for o in outcomes],
            glue * statistics.median(o.speed for o in outcomes))


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _check_first(wl, outcomes: list[workloads.Outcome]) -> list[str | None]:
    """Full checks on the first pass; returns each op's output digest."""
    digests = []
    for o in outcomes:
        if o.error is None:
            try:
                o.errors.extend(wl.check(o))
            except Exception as err:  # a check that cannot run is a failure
                o.errors.append(f"check raised {err!r}")
        digests.append(wl.digest(o.output) if o.error is None else None)
    return digests


def _check_later(wl, outcomes: list[workloads.Outcome], digests: list[str | None]) -> None:
    """A later pass must reproduce the first bitwise."""
    if len(outcomes) != len(digests):
        outcomes[0].errors.append(f"pass ran {len(outcomes)} ops, the first {len(digests)}")
    for o, d in zip(outcomes, digests):
        if o.error is None and d is not None and wl.digest(o.output) != d:
            o.errors.append("output differs bitwise from the first pass")


def _repeat_first(wl, first: workloads.Outcome) -> workloads.Outcome:
    """Run the first op once more; its output must be bitwise identical."""
    redo = workloads.Outcome(first.label + "/repeat", 0.0)
    if first.error is not None:
        redo.error = "not repeated: the first run raised"
        return redo
    t0 = time.perf_counter()
    try:
        out = first.call()
    except Exception as err:
        redo.error = repr(err)
        return redo
    redo.seconds = time.perf_counter() - t0
    if wl.digest(out) != wl.digest(first.output):
        redo.errors.append("repeated op is not bitwise identical")
    return redo


def environment(root: str) -> dict:
    """Commit, interpreter, numpy/BLAS build and thread cap, and the CPU."""
    import numpy as np

    env = {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_thread_caps": {v: os.environ.get(v) for v in _BLAS_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    return env


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Run BLAS on one thread, so the numbers measure the program and not
    the scheduler. The run is one client and its largest product is
    100 x 64, so a second BLAS thread only waits for a shared core.
    Call before numpy loads."""
    for var in _BLAS_VARS:
        os.environ[var] = "1"


def _git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        proc = None
    if proc is not None and proc.returncode == 0:
        return proc.stdout.strip()
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        sizes: dict | None = None, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result record.

    Each op's time is the OP_PCT percentile of its executions in the
    untraced passes, scaled by the machine speed (see _scaled_pass).
    wall_s is the sum of those over the op list plus that percentile of
    the glue of a pass; op_ms_p50 is their median and op_ms_tail their
    TAIL_PCT percentile over the distinct ops. The set-up probes are
    spread over the run and their median reported as measured. No pass
    starts that would end past `seconds`, judged by the last pass, once
    MIN_PASSES untraced passes have run.

    Each pass is checked as soon as it ends and its outputs are dropped,
    keeping only the first op's for the final repeat, so the run's memory
    does not grow with its number of passes.
    """
    sizes = sizes or {}
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(bench_dir, "out")
    probe = [sys.executable, "-c", _PROBE, bench_dir, os.path.join(root, "src"), name,
             str(seed), json.dumps(sizes)]
    wl = workloads.make(name, seed, out_dir, **sizes)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.calibrate()
    with tracer if tracer is not None else contextlib.nullcontext():
        wl.setup()

    min_passes = 1 if tracer is not None else MIN_PASSES
    walls, traced_walls, glues, setups, by_op = [], [], [], [], {}
    measured, raw_walls, untraced_walls = 0.0, [], []
    digests, first, quality = None, None, None
    attempted, traced_ops, failures = 0, 0, []
    try:
        while True:
            traced = tracer is not None and (len(walls) + len(traced_walls)) % 2 == 1
            workloads.reference_probe()  # the first after checks or a set-up probe runs cold
            before = workloads.reference_probe()
            # Traced passes run without probes around the ops: they would
            # count as self time of the span around an op (run_experiment's).
            workloads.PROBING = not traced
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outcomes = wl.run_pass()
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            pass_speed = workloads.speed((before, workloads.reference_probe()))
            wl.pass_checks(outcomes)
            if digests is None:
                digests = _check_first(wl, outcomes)
                quality = wl.quality(outcomes)
                first = outcomes[0]
            else:
                _check_later(wl, outcomes, digests)
            measured += wall
            if traced:
                traced_walls.append(wall * pass_speed)
                traced_ops += len(outcomes)
            else:
                op_ms, glue = _scaled_pass(outcomes, wall)
                walls.append(sum(op_ms) / 1e3 + glue)
                in_probes = sum(sum(o.refs) for o in outcomes)
                raw_walls.append(wall - in_probes)
                untraced_walls.append((wall - in_probes) * pass_speed)
                glues.append(glue)
                for o, ms in zip(outcomes, op_ms):
                    by_op.setdefault(o.label, []).append(ms)
            attempted += len(outcomes)
            failures.extend(_failure(o) for o in outcomes if o.error is not None or o.errors)
            for o in outcomes:
                if o is not first:
                    o.output = None
            del outcomes
            done = (measured + wall > seconds and len(walls) >= min_passes
                    and (tracer is None or traced_walls))
            # Probe j of `probes` is due once j/(probes-1) of the run is measured.
            while tracer is None and len(setups) < probes and (
                    done or len(setups) * seconds <= measured * max(probes - 1, 1)):
                setups.append(_setup_probe(probe))
            if done:
                break
        repeat = _repeat_first(wl, first)
    finally:
        workloads.PROBING = True
        wl.close()
    attempted += 1
    if repeat.error is not None or repeat.errors:
        failures.append(_failure(repeat))

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "passes": len(walls) + len(traced_walls),
        "ops_per_pass": len(digests),
        "pass_wall_s": walls,
        "pass_wall_s_as_measured": raw_walls,
        "glue_s": glues,
        "op_ms_by_op": {k: percentile(v, OP_PCT) for k, v in by_op.items()},
        "op_ms_scaled_by_op": by_op,
        "setup_probes_s": setups,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "quality": quality,
        "environment": environment(root),
    }
    result["quality"]["failed_frac"] = (len(failures) / attempted, "1")
    if tracer is None:
        per_op = list(result["op_ms_by_op"].values())
        result["tail_pct"] = TAIL_PCT
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_op) / 1e3 + percentile(glues, OP_PCT), "s"),
            "op_ms_p50": (statistics.median(per_op), "ms"),
            "op_ms_tail": (percentile(per_op, TAIL_PCT), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layers, absent = tracing.per_layer_metrics(tracer, traced_ops)
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        layers["trace.overhead_s"] = (overhead, "s")
        result["metrics"] = layers
        result["absent"] = absent
        result["absent_bindings"] = tracer.absent
        result["wrapper_us"] = tracer.wrapper_cost * 1e6
        result["untraced_wall_s"] = statistics.median(untraced_walls)
        result["traced_wall_s"] = statistics.median(traced_walls)
        result["spans"] = len(tracer)
        os.makedirs(out_dir, exist_ok=True)
        result["spans_file"] = os.path.join(out_dir, f"spans-{name}-seed{seed}.csv.gz")
        tracer.write(result["spans_file"])
    return result


def _failure(o: workloads.Outcome) -> str:
    return f"{o.label}: {o.error or '; '.join(o.errors)}"


def report_lines(result: dict) -> list[str]:
    """Human-readable report: every metric by name, value and unit."""
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"({'traced' if result['trace'] else 'untraced'}): {result['passes']} passes, "
             f"{result['attempted']} ops attempted, {result['failed']} failed"]
    for name, (value, unit) in list(result["metrics"].items()) + list(result["quality"].items()):
        lines.append(f"  {name:<48} {value:>14.6g} {unit}")
    if not result["trace"]:
        lines.append(f"  each of the {result['ops_per_pass']} ops is taken at p{OP_PCT} of its "
                     f"{len(result['pass_wall_s'])} executions, scaled by the machine speed "
                     f"around each; wall_s is their sum plus p{OP_PCT} of the glue of a pass, "
                     f"op_ms_p50 their median, op_ms_tail their p{result['tail_pct']}")
        lines.append(f"  as measured, the median pass took "
                     f"{statistics.median(result['pass_wall_s_as_measured']):.4f} s; setup_s "
                     f"is the median of {len(result['setup_probes_s'])} fresh interpreters")
    else:
        lines.append(f"  tracing overhead: traced wall_s {result['traced_wall_s']:.4f} s "
                     f"vs untraced {result['untraced_wall_s']:.4f} s; "
                     f"{result['spans']} spans in {result['spans_file']}")
        lines.append(f"  self times exclude a calibrated {result['wrapper_us']:.3f} us of "
                     f"wrapper work per child span")
        if result["absent"]:
            lines.append("  absent (layer not called, reported as 0): "
                         + ", ".join(result["absent"]))
        if result["absent_bindings"]:
            lines.append("  bindings missing from the program: "
                         + ", ".join(result["absent_bindings"]))
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def final_line(result: dict) -> str:
    """The one-line JSON summary the benchmark ends with."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })
