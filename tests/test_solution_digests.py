import importlib.util
import os

import numpy as np

from starbeam import (
    conventional_ris_baseline,
    desk_scenario,
    desk_train,
    generate_channels,
)

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "solution_digests.py")
_spec = importlib.util.spec_from_file_location("solution_digests", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

CASE = "conventional_ris/s0"


def test_case_repeats_and_a_perturbed_trace_changes_its_digest(capsys):
    assert tool.main(["--match", CASE]) == 0
    assert tool.main(["--match", CASE]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    digest, name = first.split()
    assert name == CASE

    # the case's solve, outside the tool
    sys_cfg, ch_cfg = desk_scenario(K=2)
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(1000))
    sol = conventional_ris_baseline(sys_cfg, ch, desk_train("independent", 0))
    assert tool.solution_digest(sol) == digest
    trace = sol.traces["wsr_current"]
    trace[7] = np.nextafter(trace[7], np.inf)
    assert tool.solution_digest(sol) != digest


def test_compare_counts_equal_cases(tmp_path, capsys):
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    base.write_text("aa  one\nbb  two\n")
    head.write_text("aa  one\ncc  two\n")
    assert tool.main(["--compare", str(base), str(base)]) == 0
    assert tool.main(["--compare", str(base), str(head)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "digests equal on 2 of 2 cases"
    assert out[-1] == "digests equal on 1 of 2 cases"
