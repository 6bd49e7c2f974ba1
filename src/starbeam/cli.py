"""Command-line driver.

Subcommands, each taking only the flags listed (any other is an error):

    run         single solve: --config --seed --mode --out --paper-scale
                --scheme (default: the GML scheme of the mode)
    experiment  spec-file driven batch: SPEC --seed --out --paper-scale
    grad-check  analytic-vs-finite-difference suite: --seed --instances

Settings resolve in one order, each step overriding the last: the scale
profile (desk, or the published scale under --paper-scale), the config
file, then the flags given; --seed sets the training and channel seeds.
--scheme sets the training mode to the scheme's (experiments.SCHEME_MODE,
as run_experiment does): the config file's train.mode yields to it, and a
--mode that contradicts it is an error.
For experiment, the spec (ExperimentSpec fields as JSON keys) replaces
profile and file, and --out, --seed and --paper-scale override its
out_dir, master_seed and desk_scale.

The optional JSON config file of run has three sections whose keys mirror
the config dataclasses; units are watts, meters, and radians:

    {
      "system":  {"M": 8, "N": 16, "K": 2, "p_max_w": 0.01,
                  "noise_power_w": 1e-14, "weights": [1.0, 1.0],
                  "user_sides": ["transmission", "reflection"]},
      "train":   {"n_epochs": 300, "lr_w": 1e-3, "lr_a": 5e-3,
                  "lr_theta": 5e-3, "n1": 5, "n2": 1, "mode": "independent",
                  "rho_min": 0.3, "rho_max": 3000.0, "seed": 0},
      "channel": {"rician_k_g": 10.0, "rician_k_h": 10.0,
                  "bs_pos_m": [0.0, 0.0], "ris_pos_m": [100.0, 0.0],
                  "center_t_m": [100.0, -15.0], "center_r_m": [100.0, 15.0],
                  "user_area_radius_m": 5.0, "pathloss_a_db": 35.6,
                  "pathloss_b_db_per_decade": 22.0, "seed": 0}
    }

A malformed config or spec file (not UTF-8, not JSON, or a key repeated
within one object) is an error naming the file, and a JSON error's line.
Missing sections/keys keep the scale profile's values; an unknown section
or key is an error. The values a key takes come from its config class:
each class declares the kind of each field in one table, FIELD_KINDS (the
kinds are in errors.py), and a value of another kind, such as a bool, a
string or 16.7 for N, is an error that names the key and the field
("system.N: N must be ...").
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from time import perf_counter

import numpy as np

from .channels import ChannelConfig, generate_channels, save_channels
from .constraints import COUPLING_TOL
from .errors import ConfigurationError, Kind
from .experiments import (
    GRAD_CHECK_INSTANCES,
    GRAD_CHECK_SEED_BASE,
    SCHEME_GML_COUPLED,
    SCHEME_GML_INDEPENDENT,
    SCHEME_MODE,
    SCHEMES,
    ExperimentSpec,
    grad_check_command,
    run_experiment,
    run_scheme,
    scale_configs,
    write_convergence_csv,
)
from .model import SystemConfig
from .training import MODE_COUPLED, MODE_INDEPENDENT, TrainConfig


# Config-file key -> config field, one table per section. Each value is
# checked against its field's kind in the config class's FIELD_KINDS.
SYSTEM_KEYS = {
    "M": "M", "N": "N", "K": "K", "p_max_w": "p_max",
    "noise_power_w": "noise_power", "weights": "weights",
    "user_sides": "user_sides",
}
TRAIN_KEYS = {name: name for name in TrainConfig.FIELD_KINDS}
CHANNEL_KEYS = {
    "rician_k_g": "rician_k_g", "rician_k_h": "rician_k_h",
    "bs_pos_m": "bs_pos", "ris_pos_m": "ris_pos",
    "center_t_m": "center_t", "center_r_m": "center_r",
    "user_area_radius_m": "user_area_radius", "pathloss_a_db": "pathloss_a",
    "pathloss_b_db_per_decade": "pathloss_b", "seed": "seed",
}


def _load_json(path: str):
    """The JSON value of the file at path; a file that is not UTF-8 text,
    is not JSON or repeats a key within one object is an error naming it."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigurationError(
                    f"{path}: key {key!r} repeated within one JSON object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text, {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON, {exc.msg} at line "
                                 f"{exc.lineno} column {exc.colno}") from None


def _check_keys(where: str, d: dict, known) -> None:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object; got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; known keys are {sorted(known)}"
        )


def _fields(section: str, d: dict, keys: dict, cls) -> dict:
    """The field values of config class cls that one config-file section
    sets, each checked against its kind in cls.FIELD_KINDS; an error names
    the key and the field."""
    _check_keys(f"'{section}'", d, keys)
    return {keys[k]: cls.FIELD_KINDS[keys[k]].check(f"{section}.{k}: {keys[k]}", v)
            for k, v in d.items()}


def _build_configs(args) -> tuple[SystemConfig, ChannelConfig, TrainConfig]:
    """The scale profile, then the config file, then the flags given."""
    sys_cfg, ch_cfg, train = scale_configs(args.paper_scale)
    if args.config:
        raw = _load_json(args.config)
        _check_keys("the config file", raw, ("system", "train", "channel"))
        # sides and weights not given follow K, not the scale's defaults
        sys_cfg = dataclasses.replace(sys_cfg, **{
            "user_sides": None, "weights": None,
            **_fields("system", raw.get("system", {}), SYSTEM_KEYS, SystemConfig),
        })
        train = dataclasses.replace(train, **_fields(
            "train", raw.get("train", {}), TRAIN_KEYS, TrainConfig))
        ch_cfg = dataclasses.replace(ch_cfg, **_fields(
            "channel", raw.get("channel", {}), CHANNEL_KEYS, ChannelConfig))
    if args.mode:
        train = dataclasses.replace(train, mode=args.mode)
    if args.seed is not None:
        train = dataclasses.replace(train, seed=args.seed)
        ch_cfg = dataclasses.replace(ch_cfg, seed=args.seed)
    return sys_cfg, ch_cfg, train


def _cmd_run(args) -> int:
    scheme = args.scheme
    if scheme is not None and args.mode not in (None, SCHEME_MODE[scheme]):
        raise ConfigurationError(
            f"--mode {args.mode} contradicts --scheme {scheme}, which runs "
            f"in {SCHEME_MODE[scheme]} mode")
    sys_cfg, ch_cfg, train = _build_configs(args)
    if scheme is None:
        scheme = (
            SCHEME_GML_COUPLED if train.mode == MODE_COUPLED
            else SCHEME_GML_INDEPENDENT
        )
    train = dataclasses.replace(train, mode=SCHEME_MODE[scheme])
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(ch_cfg.seed))
    started = perf_counter()
    sol = run_scheme(scheme, sys_cfg, ch, train)
    seconds = perf_counter() - started
    print(f"scheme:              {scheme}")
    print(f"mode:                {sol.mode}")
    print(f"WSR (reported):      {sol.wsr_opt:.6f} bit/s/Hz")
    if sol.mode == MODE_COUPLED:
        print(f"WSR (pre-projection): {sol.wsr_pre_projection:.6f} bit/s/Hz")
        locked = "locked" if sol.residual_pre_projection < COUPLING_TOL else "NOT locked"
        print(f"residual (pre-proj): {sol.residual_pre_projection:.4f} "
              f"({locked}, tolerance {COUPLING_TOL})")
        print(f"coupled feasible:    {sol.feasible_coupled}")
    print(f"wall clock:          {seconds:.2f} s "
          f"({seconds / train.n_epochs * 1e3:.3f} ms/epoch)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        np.savez(
            os.path.join(args.out, "solution.npz"),
            W_re=sol.W_opt.real, W_im=sol.W_opt.imag,
            beta=sol.beta_opt, theta=sol.theta_opt,
        )
        summary = {
            "scheme": scheme,
            "mode": sol.mode,
            "wsr_opt": sol.wsr_opt,
            "wsr_pre_projection": sol.wsr_pre_projection,
            "residual_pre_projection": sol.residual_pre_projection,
            "feasible_coupled": sol.feasible_coupled,
            "seed": train.seed,
        }
        with open(os.path.join(args.out, "solution.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
        write_convergence_csv(os.path.join(args.out, "convergence.csv"), sol.traces)
        save_channels(os.path.join(args.out, "channels.txt"), ch)
        print(f"artifacts written to {args.out}/")
    return 0


def _cmd_experiment(args) -> int:
    raw = _load_json(args.spec)
    _check_keys("the experiment spec", raw, ExperimentSpec.FIELD_KINDS)
    spec = ExperimentSpec(**raw)
    flags = {"out_dir": args.out, "master_seed": args.seed,
             "desk_scale": False if args.paper_scale else None}
    spec = dataclasses.replace(
        spec, **{k: v for k, v in flags.items() if v is not None}
    )
    report = run_experiment(spec)
    print(f"{len(report.records)} cells, {len(report.failures)} failures")
    for path in report.csv_paths:
        print(f"  wrote {path}")
    for msg in report.failures:
        print(f"  FAILED {msg}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_grad_check(args) -> int:
    seed = 0 if args.seed is None else args.seed
    Kind.SEED.check("seed", seed)
    report = grad_check_command(
        n_instances=args.instances, seed_base=GRAD_CHECK_SEED_BASE + seed)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starbeam",
        description="Joint precoder / STAR surface coefficient optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="single solve; prints the WSR")
    p_exp = sub.add_parser("experiment", help="run a spec-file experiment")
    p_gc = sub.add_parser("grad-check",
                          help="analytic vs finite-difference gradient suite")

    # each subcommand declares only the shared flags it reads
    for p in (p_run, p_exp, p_gc):
        p.add_argument("--seed", type=int)
    for p in (p_run, p_exp):
        p.add_argument("--out", help="output directory")
        p.add_argument("--paper-scale", action="store_true",
                       help="full-scale configuration (64 antennas, 100 "
                            "elements); the desk scale otherwise")

    p_run.add_argument("--config", help="JSON config file (see module docs)")
    p_run.add_argument("--mode", choices=[MODE_INDEPENDENT, MODE_COUPLED])
    p_run.add_argument("--scheme", choices=list(SCHEMES))
    p_run.set_defaults(func=_cmd_run)
    p_exp.add_argument("spec", help="JSON experiment spec file")
    p_exp.set_defaults(func=_cmd_experiment)
    p_gc.add_argument("--instances", type=int, default=GRAD_CHECK_INSTANCES)
    p_gc.set_defaults(func=_cmd_grad_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
