import importlib.util
import os

import numpy as np

from starbeam import desk_scenario, desk_train, generate_channels, run_gml

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "lock_rate.py")
_spec = importlib.util.spec_from_file_location("lock_rate", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_desk_counts_are_those_of_the_runs(capsys):
    """Two short runs: the printed counts and worst residuals are those of
    the same solves made outside the tool, and the gate follows them."""
    status = tool.report_desk(2, 6)
    out = capsys.readouterr().out.splitlines()
    sys_cfg, ch_cfg = desk_scenario(K=2)
    final, best, rates = [], [], []
    for s in (100, 101):
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(1000 + s))
        sol = run_gml(sys_cfg, ch, desk_train("coupled", s, 6))
        final.append(sol.traces["residual_max"][-1])
        best.append(sol.residual_pre_projection)
        rates.append(sol.wsr_opt)
    tol = tool.COUPLING_TOL
    n_final = sum(r < tol for r in final)
    n_best = sum(r < tol for r in best)
    assert out[0].startswith("desk coupled, seeds 100-101 (channels 1100-1101), 6 epochs")
    assert out[1] == f"final-epoch lock: {n_final}/2 (worst residual {max(final):.4f})"
    assert out[2] == f"best-state lock: {n_best}/2 (worst residual {max(best):.4f})"
    assert out[3] == f"per block of 20 seeds (final/best): {n_final}/{n_best}"
    assert out[4] == f"mean wsr_opt: {np.mean(rates):.6f}"
    passed = n_final == 2
    assert out[5] == f"gate (final-epoch lock on >= 2 of 2): {'PASS' if passed else 'FAIL'}"
    assert status == (0 if passed else 1)


def test_paper_lists_both_modes_per_channel(capsys):
    assert tool.report_paper(1, 2) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "paper scale, 2 epochs"
    assert [line.split(":")[0] for line in out[1:]] == [
        "channel 100 independent", "channel 100 coupled"]
    for line in out[1:]:
        words = line.split()
        assert words[-4] == "wsr_opt" and float(words[-3]) > 0
        assert words[-2] == "residual_pre_projection" and float(words[-1]) >= 0
