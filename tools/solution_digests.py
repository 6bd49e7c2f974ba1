"""Print one sha256 per solution of a fixed list of seeded solves, so that
two source trees can be shown to give bitwise identical results.

Each digest covers every field of the ``Solution`` (arrays by dtype, shape
and bytes, numbers by their float64 bytes) and every trace. The experiment
cases hash the CSV files that ``run_experiment`` writes, without their
``seconds`` column, the wall clock. The grad-check cases hash, for each of
the instances ``starbeam grad-check`` checks by default, the
central-difference bundle, ``wsr_finite_diff``'s, and the command's
one-instance report. The cli_config cases solve from a config file, in
each training mode, read through ``cli._build_configs``.

Digests depend on the BLAS build and the CPU, so they are compared only
between two runs on one machine, never against stored values. Each tree
is listed by its own copy of the tool, which matches the fields of that
tree's ``Solution`` (a field that a change removes is no longer there to
skip or to hash):

    python tools/solution_digests.py > head.txt
    (in a checkout of the other tree) python tools/solution_digests.py > base.txt
    python tools/solution_digests.py --compare base.txt head.txt

``--match TEXT`` runs only the cases whose name contains TEXT. The script
imports ``starbeam`` from the ``src/`` next to it; the full list takes
about half a minute at one BLAS thread.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from starbeam import (  # noqa: E402
    ExperimentSpec,
    cli,
    conventional_ris_baseline,
    default_scenario,
    desk_scenario,
    desk_train,
    experiments,
    generate_channels,
    paper_train,
    pga_oracle,
    random_phase_baseline,
    run_experiment,
    run_gml,
    wsr_finite_diff,
)

BATTERY_SEEDS = 20   # the acceptance battery: channel 1000 + s, train seed s
BATTERY_EPOCHS = 300

# A config file for `starbeam run`, every key set. Real-valued keys are
# written as integers where they can be, so the cli_config cases solve
# from converted file values: a conversion that changes a value changes
# their digests (one that changes only its type, 3000 to 3000.0, cannot).
CLI_CONFIG = {
    "system": {"M": 8, "N": 16, "K": 2, "p_max_w": 0.01, "noise_power_w": 1e-14,
               "weights": [1, 2], "user_sides": ["reflection", "transmission"]},
    "train": {"n_epochs": 100, "n2": 1, "mode": "independent", "rho_min": 0.3,
              "rho_max": 3000, "seed": 4},
    "channel": {"rician_k_g": 10, "rician_k_h": 8, "bs_pos_m": [0, 0],
                "ris_pos_m": [100, 0], "center_t_m": [100, -15],
                "center_r_m": [100, 15], "user_area_radius_m": 5,
                "pathloss_a_db": 35.6, "pathloss_b_db_per_decade": 22,
                "seed": 1004},
}


def _update(h, name: str, value) -> None:
    h.update(name.encode() + b"\0")
    if isinstance(value, dict):
        for key in sorted(value):
            _update(h, f"{name}.{key}", value[key])
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, str):
        h.update(value.encode())
    else:  # bool, int or float
        h.update(np.float64(value).tobytes())


def solution_digest(sol) -> str:
    """sha256 over every field of a Solution and its traces (or of any
    other dataclass)."""
    h = hashlib.sha256()
    for f in dataclasses.fields(sol):
        _update(h, f.name, getattr(sol, f.name))
    return h.hexdigest()


def csv_digest(paths) -> str:
    """sha256 over the named CSV files, by base name, without any column
    headed ``seconds``."""
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, col in enumerate(rows[0]) if col != "seconds"]
        h.update(os.path.basename(path).encode() + b"\0")
        for row in rows:
            h.update(",".join(row[i] for i in keep).encode() + b"\n")
    return h.hexdigest()


def _experiment(**fields) -> str:
    with tempfile.TemporaryDirectory() as out:
        report = run_experiment(ExperimentSpec(out_dir=out, **fields))
        if report.failures:
            raise RuntimeError(f"experiment failed: {report.failures}")
        return csv_digest(set(report.csv_paths))


def _cli_config(mode: str) -> str:
    """The solve of `starbeam run --config` on CLI_CONFIG with its
    train.mode set to mode."""
    config = {**CLI_CONFIG, "train": {**CLI_CONFIG["train"], "mode": mode}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(config, fh)
        args = cli.build_parser().parse_args(["run", "--config", path])
        sys_cfg, ch_cfg, train = cli._build_configs(args)
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(ch_cfg.seed))
    return solution_digest(run_gml(sys_cfg, ch, train))


def _difference_bundle(seed: int):
    """The grad-check's central-difference bundle on instance seed."""
    cfg, ch, state = experiments.random_gradient_instance(seed)
    return wsr_finite_diff(cfg, ch, state, experiments.GRAD_CHECK_STEP)


def cases():
    """(name, thunk) pairs; a thunk returns a digest."""
    sys_cfg, ch_cfg = desk_scenario(K=2)

    def desk_channels(seed):
        return generate_channels(sys_cfg, ch_cfg, np.random.default_rng(seed))

    def solve(fn, channel_seed, *args, **kwargs):
        return lambda: solution_digest(
            fn(sys_cfg, desk_channels(channel_seed), *args, **kwargs))

    out = []
    for s in range(BATTERY_SEEDS):
        ind = desk_train("independent", s, BATTERY_EPOCHS)
        out += [
            (f"battery/gml_independent/s{s:02d}", solve(run_gml, 1000 + s, ind)),
            (f"battery/gml_coupled/s{s:02d}", solve(
                run_gml, 1000 + s, desk_train("coupled", s, BATTERY_EPOCHS))),
            (f"battery/random_phase/s{s:02d}",
             solve(random_phase_baseline, 1000 + s, ind)),
            (f"battery/pga_oracle/s{s:02d}", solve(
                pga_oracle, 1000 + s, steps=BATTERY_EPOCHS, seed=s)),
        ]
    for s in range(3):
        out.append((f"conventional_ris/s{s}", solve(
            conventional_ris_baseline, 1000 + s, desk_train("independent", s))))

    paper_cfg, paper_ch_cfg = default_scenario()
    paper_ch = generate_channels(paper_cfg, paper_ch_cfg, np.random.default_rng(100))
    for mode in ("independent", "coupled"):
        train = replace(paper_train(mode), n_epochs=50)
        out.append((f"paper_50_epochs/{mode}", lambda train=train: solution_digest(
            run_gml(paper_cfg, paper_ch, train))))

    for mode in ("independent", "coupled"):
        out.append((f"cli_config/{mode}", lambda mode=mode: _cli_config(mode)))

    out += [
        ("experiment/convergence", lambda: _experiment(
            kind="convergence", schemes=("gml_independent", "gml_coupled",
                                         "pga_oracle"),
            sample_count=2, master_seed=1, n_epochs=40)),
        ("experiment/phase_trace", lambda: _experiment(
            kind="phase_trace", schemes=("gml_coupled",), sample_count=1,
            master_seed=2, n_epochs=40)),
        ("experiment/sweep_pmax", lambda: _experiment(
            kind="sweep_pmax", schemes=("random_phase", "conventional_ris"),
            grid=(1e-3, 1e-2), sample_count=2, master_seed=3, n_epochs=40)),
        ("experiment/sweep_mn", lambda: _experiment(
            kind="sweep_mn", schemes=("gml_independent", "pga_oracle"),
            grid=((4, 8), (8, 16)), sample_count=2, master_seed=4, n_epochs=40)),
    ]
    for i in range(experiments.GRAD_CHECK_INSTANCES):
        seed = experiments.GRAD_CHECK_SEED_BASE + i
        out += [
            (f"grad_check/bundle/s{seed}",
             lambda seed=seed: solution_digest(_difference_bundle(seed))),
            (f"grad_check/report/s{seed}", lambda seed=seed: solution_digest(
                experiments.grad_check_command(1, seed, verbose=False))),
        ]
    return out


def compare(base_path: str, head_path: str) -> int:
    """Print the cases whose digests differ and a summary line; 0 when all
    cases of both files are present and equal."""
    def read(path):
        with open(path, encoding="ascii") as fh:
            return {name: digest for digest, name in
                    (line.split() for line in fh if line.strip())}

    base, head = read(base_path), read(head_path)
    names = sorted(base.keys() | head.keys())
    equal = [n for n in names if n in base and base[n] == head.get(n)]
    for n in names:
        if n not in equal:
            print(f"DIFFERS {n}: {base.get(n)} != {head.get(n)}")
    print(f"digests equal on {len(equal)} of {len(names)} cases")
    return 0 if len(equal) == len(names) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--match", default="",
                        help="run only the cases whose name contains this")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two digest listings instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    selected = [(name, thunk) for name, thunk in cases() if args.match in name]
    if not selected:
        parser.error(f"no case name contains {args.match!r}")
    for name, thunk in selected:
        print(f"{thunk()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
