"""Print how often coupled desk runs stay phase-locked, the numerics gate
for any change to the bits of a coupled run.

A run is locked when its maximum coupling residual max |cos(theta_t -
theta_r)| is below ``COUPLING_TOL``. The desk runs are the held-out seeds
100-199, which no test uses: train seed s on channel 1100 + s, with
``desk_train("coupled", s, 300)``. For them the tool prints how many lock
at the final epoch and in the reported (best) state, the same two counts
per block of 20 seeds (the size of the acceptance battery), the worst
residual of each kind and the mean ``wsr_opt``. The gate line passes when
at least 99% of the seeds lock at the final epoch:

    python tools/lock_rate.py
    python tools/lock_rate.py --paper

``--paper`` prints instead, for paper-scale channels 100-102 and
``paper_train`` (500 epochs) in both modes, each run's ``wsr_opt`` and
``residual_pre_projection``, to weigh the lock against the paper-scale
rate. The script imports ``starbeam`` from the ``src/`` next to it; the
desk list takes about half a minute at one BLAS thread.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from starbeam import (  # noqa: E402
    default_scenario,
    desk_scenario,
    desk_train,
    generate_channels,
    paper_train,
    run_gml,
)
from starbeam.constraints import COUPLING_TOL  # noqa: E402

FIRST_SEED = 100     # held out: the acceptance battery uses seeds 0-19
DESK_SEEDS = 100
DESK_EPOCHS = 300
BLOCK = 20           # seeds per acceptance battery
PAPER_CHANNELS = (100, 101, 102)
GATE_SHARE = 0.99    # of seeds that must lock at the final epoch


def desk_runs(n_seeds: int, n_epochs: int):
    """(final-epoch residual, best-state residual, wsr_opt) per seed."""
    sys_cfg, ch_cfg = desk_scenario(K=2)
    rows = []
    for s in range(FIRST_SEED, FIRST_SEED + n_seeds):
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(1000 + s))
        sol = run_gml(sys_cfg, ch, desk_train("coupled", s, n_epochs))
        rows.append((sol.traces["residual_max"][-1], sol.residual_pre_projection,
                     sol.wsr_opt))
    return np.array(rows)


def report_desk(n_seeds: int, n_epochs: int) -> int:
    runs = desk_runs(n_seeds, n_epochs)
    locked = runs[:, :2] < COUPLING_TOL
    last = FIRST_SEED + n_seeds - 1
    print(f"desk coupled, seeds {FIRST_SEED}-{last} (channels "
          f"{1000 + FIRST_SEED}-{1000 + last}), {n_epochs} epochs, "
          f"locked when residual < {COUPLING_TOL}")
    for col, what in enumerate(("final-epoch", "best-state")):
        print(f"{what} lock: {locked[:, col].sum()}/{n_seeds} "
              f"(worst residual {runs[:, col].max():.4f})")
    blocks = [f"{b[:, 0].sum()}/{b[:, 1].sum()}"
              for b in np.array_split(locked, range(BLOCK, n_seeds, BLOCK))]
    print(f"per block of {BLOCK} seeds (final/best): {' '.join(blocks)}")
    print(f"mean wsr_opt: {runs[:, 2].mean():.6f}")
    need = math.ceil(GATE_SHARE * n_seeds)
    passed = locked[:, 0].sum() >= need
    print(f"gate (final-epoch lock on >= {need} of {n_seeds}): "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def report_paper(n_channels: int, n_epochs: int) -> int:
    cfg, ch_cfg = default_scenario()
    print(f"paper scale, {n_epochs} epochs")
    for seed in PAPER_CHANNELS[:n_channels]:
        ch = generate_channels(cfg, ch_cfg, np.random.default_rng(seed))
        for mode in ("independent", "coupled"):
            sol = run_gml(cfg, ch, replace(paper_train(mode), n_epochs=n_epochs))
            print(f"channel {seed} {mode}: wsr_opt {sol.wsr_opt:.7f} "
                  f"residual_pre_projection {sol.residual_pre_projection:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paper", action="store_true",
                        help="paper-scale rates and residuals instead")
    args = parser.parse_args(argv)
    if args.paper:
        return report_paper(len(PAPER_CHANNELS), paper_train().n_epochs)
    return report_desk(DESK_SEEDS, DESK_EPOCHS)


if __name__ == "__main__":
    sys.exit(main())
