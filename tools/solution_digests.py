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
between runs in one environment. A listing opens with a header naming its
environment (see ``environment``), and ``--compare`` fails, naming each
header field that differs, when both listings carry one; a listing without
a header, from an older copy of the tool, compares by its digests alone.
Each tree is listed by its own copy of the tool, which matches the fields
of that tree's ``Solution`` (a field that a change removes is no longer
there to skip or to hash):

    python tools/solution_digests.py > head.txt
    (in a checkout of the other tree) python tools/solution_digests.py > base.txt
    python tools/solution_digests.py --compare base.txt head.txt

``--match TEXT`` runs only the cases whose name contains TEXT. The script
imports ``starbeam`` from the ``src/`` next to it; the full list takes
about 7-9 s at one BLAS thread (``OPENBLAS_NUM_THREADS=1``) on a 2-vCPU
Xeon.

``tests/data/solution_digests.txt`` pins the cases that ``pinned`` names,
every case but the acceptance battery's seeds beyond s00: 115 cases that
list in about 1.5 s. ``tests/test_solution_digests.py`` compares it with
a fresh listing when the running environment is the one its header
names. A change that moves bits by design rewrites it with ``--write``.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
PINNED_PATH = os.path.join(HERE, os.pardir, "tests", "data", "solution_digests.txt")

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


def pinned(name: str) -> bool:
    """Whether the committed listing holds the case: all but the battery
    seeds beyond s00."""
    return not name.startswith("battery/") or name.endswith("/s00")


def _blas_core() -> str:
    """The kernel family numpy's OpenBLAS picked at run time, or unknown.
    A DYNAMIC_ARCH build picks it by the CPU's features; the target in its
    configuration string names only the build's default."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> dict[str, str]:
    """What the digests depend on beyond the source: numpy's version, the
    name and version of numpy's BLAS, the core its kernels were picked
    for, the CPU model and the SIMD extensions numpy found on it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    simd = config.get("SIMD Extensions", {}).get("found", ["unknown"])
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": _blas_core(), "cpu": cpu, "simd": ", ".join(simd)}


def header_lines() -> list[str]:
    """The ``# key: value`` lines that open a listing, one per field of
    the environment."""
    return [f"# {key}: {value}\n" for key, value in environment().items()]


def read_listing(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """The header fields (``# key: value`` lines) and the digest of each
    case name of a listing."""
    header, digests = {}, {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            elif line.strip():
                digest, name = line.split()
                digests[name] = digest
    return header, digests


def write_pinned(path: str = PINNED_PATH) -> None:
    """List the pinned cases into path, under a header naming the
    environment."""
    lines = header_lines()
    lines += [f"{thunk()}  {name}\n" for name, thunk in cases() if pinned(name)]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def compare(base_path: str, head_path: str) -> int:
    """Print the cases whose digests differ and a summary line; 0 when all
    cases of both files are present and equal, and there is at least one.
    A listing with no case (a run that died before it printed) fails,
    named, and so do two listings whose headers differ, each differing
    field named."""
    (base_env, base), (head_env, head) = read_listing(base_path), read_listing(head_path)
    empty = [path for path, listing in ((base_path, base), (head_path, head))
             if not listing]
    for path in empty:
        print(f"EMPTY {path}: no case listed")
    if empty:
        return 1
    other = [key for key in {**base_env, **head_env}
             if base_env and head_env and base_env.get(key) != head_env.get(key)]
    for key in other:
        print(f"ENVIRONMENT {key}: {base_env.get(key)!r} != {head_env.get(key)!r}")
    if other:
        return 1
    names = sorted(base.keys() | head.keys())
    equal = [n for n in names if n in base and base[n] == head.get(n)]
    for n in names:
        if n not in equal:
            print(f"DIFFERS {n}: {base.get(n)} != {head.get(n)}")
    print(f"digests equal on {len(equal)} of {len(names)} cases")
    return 0 if len(equal) == len(names) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--match", default="",
                       help="run only the cases whose name contains this")
    group.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                       help="compare two digest listings instead of running")
    group.add_argument("--write", action="store_true",
                       help="rewrite tests/data/solution_digests.txt, the "
                            "pinned cases listed in this environment")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write:
        write_pinned()
        return 0
    selected = [(name, thunk) for name, thunk in cases() if args.match in name]
    if not selected:
        parser.error(f"no case name contains {args.match!r}")
    print("".join(header_lines()), end="", flush=True)
    for name, thunk in selected:
        print(f"{thunk()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
