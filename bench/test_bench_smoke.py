"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric BENCHMARK.json names is emitted with its unit, in
untraced and traced runs of each workload, that op times are scaled by the
measured machine speed, and that a deliberately broken output is counted
as a failed op instead of passing.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "desk_battery": {"draws": 1, "epochs": 5},
    "paper_solve": {"draws": 1, "epochs": 5},
    "gradcheck": {"instances": 3},
}
QUALITY = {
    "desk_battery": {"wsr_ind_mean", "wsr_cpl_mean", "cpl_residual_max", "failed_frac"},
    "paper_solve": {"wsr_ind_mean", "wsr_cpl_mean", "cpl_residual_max", "failed_frac"},
    "gradcheck": {"grad_rel_err_max", "failed_frac"},
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(name, trace):
    return harness.run(name, seed=3, seconds=0.01, trace=trace, root=ROOT,
                       sizes=TINY[name], probes=2)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _run(name, trace=False)
    assert result["failed"] == 0, result["failures"]
    assert {k: u for k, (_, u) in result["metrics"].items()} == _declared("end_to_end")
    assert all(v > 0 for v, _ in result["metrics"].values())
    assert result["passes"] >= harness.MIN_PASSES
    assert len(result["setup_probes_s"]) == 2
    assert result["metrics"]["op_ms_tail"][0] >= result["metrics"]["op_ms_p50"][0]
    assert QUALITY[name] <= set(result["quality"])
    line = json.loads(harness.final_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    result = _run(name, trace=True)
    assert result["failed"] == 0, result["failures"]
    assert {k: u for k, (_, u) in result["metrics"].items()} == _declared("per_layer")
    assert os.path.isfile(result["spans_file"])


def test_op_times_are_scaled_by_machine_speed():
    slow = 2 * workloads.REF_NOMINAL_S
    ops = [workloads.Outcome("a", 0.4, refs=(slow, slow)),
           workloads.Outcome("b", 0.2, refs=(workloads.REF_NOMINAL_S,) * 2)]
    wall = 0.4 + 0.2 + sum(sum(o.refs) for o in ops) + 0.1
    op_ms, glue = harness._scaled_pass(ops, wall)
    assert op_ms == pytest.approx([200.0, 200.0])
    assert glue == pytest.approx(0.1 * 0.75)


def _double_power(run_scheme):
    def broken(*args):
        sol = run_scheme(*args)
        sol.W_opt = 2.0 * sol.W_opt
        return sol

    return broken


def _break_gradients(wsr_gradients):
    def broken(*args):
        bundle = wsr_gradients(*args)
        return type(bundle)(bundle.grad_w, 1.01 * bundle.grad_beta, bundle.grad_theta)

    return broken


BREAKS = {
    "desk_battery": ("experiments", "run_scheme", _double_power),
    "paper_solve": ("training", "run_gml", _double_power),
    "gradcheck": ("experiments", "wsr_gradients", _break_gradients),
}


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_broken_output_raises_failed_frac(name, monkeypatch):
    import importlib

    module, attr, breaker = BREAKS[name]
    mod = importlib.import_module(f"starbeam.{module}")
    monkeypatch.setattr(mod, attr, breaker(getattr(mod, attr)))
    result = _run(name, trace=False)
    assert result["quality"]["failed_frac"][0] > 0
    assert json.loads(harness.final_line(result))["correct"] is False


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "gradcheck", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
