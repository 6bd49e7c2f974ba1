import importlib.util
import os

import numpy as np
import pytest

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
    first, second = [line for line in capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
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
    # a case missing from one listing differs; it is not skipped
    lacking = tmp_path / "lacking.txt"
    lacking.write_text("aa  one\n")
    assert tool.main(["--compare", str(base), str(lacking)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS two: bb != None", "digests equal on 1 of 2 cases"]
    # a listing of no case fails, named, even against another such listing
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert tool.main(["--compare", str(empty), str(empty)]) == 1
    assert tool.main(["--compare", str(base), str(empty)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"EMPTY {empty}: no case listed"] * 3
    # two headers that differ fail, each differing field named; a listing
    # without a header compares by its digests alone
    here, there = tmp_path / "here.txt", tmp_path / "there.txt"
    here.write_text("# numpy: 2.4.6\n# cpu: A\naa  one\nbb  two\n")
    there.write_text("# numpy: 2.4.6\n# cpu: B\n# simd: X\naa  one\nbb  two\n")
    assert tool.main(["--compare", str(here), str(there)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ENVIRONMENT cpu: 'A' != 'B'", "ENVIRONMENT simd: None != 'X'"]
    assert tool.main(["--compare", str(here), str(base)]) == 0
    assert tool.main(["--compare", str(here), str(here)]) == 0


def test_pinned_digests_are_unchanged():
    """Each pinned case lists the digest committed in the pinned file.
    Digests depend on the BLAS build and the CPU, so in an environment
    other than the file's header names, the test skips, naming the fields
    that differ."""
    header, committed = tool.read_listing(tool.PINNED_PATH)
    other = [f"{key}: {header.get(key)!r} pinned, {value!r} here"
             for key, value in tool.environment().items() if header.get(key) != value]
    if other:
        pytest.skip("digests pinned in another environment; " + "; ".join(other))
    listed = {name: thunk() for name, thunk in tool.cases() if tool.pinned(name)}
    assert sorted(listed) == sorted(committed)
    differ = [name for name in listed if listed[name] != committed[name]]
    assert not differ, f"{len(differ)} of {len(listed)} pinned digests differ: {differ}"
