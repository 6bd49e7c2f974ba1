"""The published operating point: default_scenario with paper_train (500
epochs, train seed 0) on paper channels 100 and 101. The acceptance
battery runs only at desk scale, so these pin that coupled runs lock at
the published scale, that both modes keep criterion 3's constraints at
every epoch, and that a repeated run is bitwise equal."""
import numpy as np
import pytest

from starbeam import default_scenario, generate_channels, paper_train, run_gml
from starbeam.constraints import COUPLING_TOL

from conftest import assert_same_solution

RUNS = [("coupled", 100), ("coupled", 101), ("independent", 100)]


def solve(mode, channel):
    sys_cfg, ch_cfg = default_scenario()
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(channel))
    return run_gml(sys_cfg, ch, paper_train(mode))


@pytest.fixture(scope="module")
def solutions():
    return {run: solve(*run) for run in RUNS}


@pytest.mark.parametrize("channel", [100, 101])
def test_coupled_run_locks(solutions, channel):
    """Measured: residuals 0.0085 and 0.0076, 270 locked epochs each."""
    sol = solutions["coupled", channel]
    assert sol.feasible_coupled
    assert sol.residual_pre_projection < 0.02
    assert (sol.traces["residual_max"] < COUPLING_TOL).sum() >= 200


@pytest.mark.parametrize("run", RUNS, ids=[f"{m}-{c}" for m, c in RUNS])
def test_constraints_and_best_so_far_every_epoch(solutions, run):
    traces = solutions[run].traces
    assert traces["power_rel_err"].max() < 1e-9
    assert traces["amp_max_err"].max() < 1e-12
    assert (np.diff(traces["wsr_best"]) >= 0).all()


def test_repeated_coupled_run_is_bitwise_equal(solutions):
    assert_same_solution(solutions["coupled", 100], solve("coupled", 100))
