"""One boundary test generated from a table of every public input: each
settable config field and each scalar argument of an exported function.
Each invalid value of the input's kind must raise a ConfigurationError
naming it, from the call, and a config field's also from the config file
(the run config's key, or the experiment spec's). This is where the kinds
of public inputs are tested: a new invalid value goes into the lists
below, not into a test of its own."""
import dataclasses
import inspect
import json
import re
import typing

import numpy as np
import pytest

import starbeam
from starbeam import (ChannelConfig, ExperimentSpec, SystemConfig, TrainConfig,
                      adam_init, adam_step, dbm_to_watts, finite_diff_gradient,
                      grad_check_command, init_mlp, normalize_power, path_loss_linear,
                      pga_oracle, run_meta_loop, run_scheme, sign_test_p_value, sinr,
                      sinr_augmented, wsr_finite_diff)
from starbeam.cli import (
    CHANNEL_KEYS,
    SYSTEM_KEYS,
    TRAIN_KEYS,
    _build_configs,
    build_parser,
)
from starbeam.cli import main as cli_main
from starbeam.errors import ConfigurationError, Kind
from starbeam.experiments import KINDS, SCHEMES, desk_train
from starbeam.model import REFLECTION, TRANSMISSION
from starbeam.training import MODE_COUPLED, MODE_INDEPENDENT

from conftest import make_instance

NAN, INF = float("nan"), float("inf")

# Invalid values by kind, written out here rather than read from the
# kinds; all of them JSON values, so each also goes through a file.
NUMBER = [NAN, INF, -INF, True, "1", [1.0, 2.0, 3.0], None]
INTEGRAL_FLOATS = [1.0, 16.0, np.float64(2.0)]  # a float is no integer
COUNT = NUMBER + INTEGRAL_FLOATS + [2.5, -1, 0]
SEED = NUMBER + INTEGRAL_FLOATS + [2.5, -1]
POSITIVE = NUMBER + [-1, 0]
NON_NEGATIVE = NUMBER + [-1, -0.5]
POSITION = [[NAN, 0.0], [0.0, INF], [-INF, 0.0], [True, 0.0], ["1", 0.0],
            [1.0, 2.0, 3.0], [1.0], [], [[1.0], [2.0]], [[1.0, 2.0]], -1, 2.5, "xy",
            None]
CHOICE = ["bogus", "", 1, -1, 2.5, True, NAN, ["independent"], None]
FLAG = ["false", 1, 0, -1, 2.5, NAN, [True], None]
TEXT = [5, -1, 2.5, NAN, True, ["results"], None]

# (class or function, field or argument, the kind it must have, its
# invalid values); the call's other arguments are built by BASE.
CASES = [
    *[(SystemConfig, f, Kind.COUNT, COUNT) for f in ("M", "N", "K")],
    *[(SystemConfig, f, Kind.POSITIVE, POSITIVE) for f in ("p_max", "noise_power")],
    (SystemConfig, "user_sides",
     Kind.choice(TRANSMISSION, REFLECTION).listed().or_none(),
     [[], TRANSMISSION, [TRANSMISSION, "sideways"], [TRANSMISSION, 1],
      [True, False], [[TRANSMISSION], REFLECTION], NAN, -1]),
    (SystemConfig, "weights", Kind.FINITE.listed().or_none(),
     [[], [NAN, 1.0], [INF, 1.0], [-INF, 1.0], [True, True], ["1", "2"],
      [[1.0], [2.0]], 1.0, "12", -1]),
    *[(TrainConfig, f, Kind.COUNT, COUNT) for f in ("n_epochs", "n2")],
    *[(TrainConfig, f, Kind.POSITIVE, POSITIVE) for f in ("rho_min", "rho_max")],
    (TrainConfig, "mode", Kind.choice(MODE_INDEPENDENT, MODE_COUPLED), CHOICE),
    (TrainConfig, "seed", Kind.SEED, SEED),
    *[(ChannelConfig, f, Kind.NON_NEGATIVE, NON_NEGATIVE)
      for f in ("rician_k_g", "rician_k_h", "user_area_radius")],
    *[(ChannelConfig, f, Kind.FINITE, NUMBER) for f in ("pathloss_a", "pathloss_b")],
    *[(ChannelConfig, f, Kind.POSITION, POSITION)
      for f in ("bs_pos", "ris_pos", "center_t", "center_r")],
    (ChannelConfig, "seed", Kind.SEED, SEED),
    (ExperimentSpec, "kind", Kind.choice(*KINDS), CHOICE + ["grad_check"]),
    (ExperimentSpec, "schemes", Kind.choice(*SCHEMES).listed(),
     [[], "random_phase", ["magic"], [["random_phase"]], [1], [True], NAN, None]),
    (ExperimentSpec, "grid", Kind.LIST, [16, 2.5, NAN, True, "grid", None]),
    (ExperimentSpec, "sample_count", Kind.COUNT, COUNT),
    (ExperimentSpec, "out_dir", Kind.TEXT, TEXT),
    (ExperimentSpec, "master_seed", Kind.SEED, SEED),
    (ExperimentSpec, "desk_scale", Kind.FLAG, FLAG),
    (ExperimentSpec, "n_epochs", Kind.COUNT.or_none(),
     [v for v in COUNT if v is not None]),
    (pga_oracle, "steps", Kind.COUNT, COUNT),
    (pga_oracle, "seed", Kind.SEED, SEED),
    *[(run_meta_loop, a, Kind.FLAG, FLAG + [np.True_])
      for a in ("enable_an", "enable_tn")],
    (grad_check_command, "n_instances", Kind.COUNT, COUNT),
    (grad_check_command, "seed_base", Kind.SEED, SEED),
    (grad_check_command, "verbose", Kind.FLAG, FLAG + [np.True_]),
    # the lower bound only: the upper, K - 1, depends on cfg
    *[(fn, "k", Kind.SEED, SEED) for fn in (sinr, sinr_augmented)],
    *[(init_mlp, a, Kind.COUNT, COUNT)
      for a in ("input_dim", "hidden_dim", "output_dim")],
    (adam_step, "lr", Kind.POSITIVE, POSITIVE),
    *[(fn, "step", Kind.POSITIVE, POSITIVE + [np.True_, 1e-4j])
      for fn in (wsr_finite_diff, finite_diff_gradient)],
    (normalize_power, "p_max", Kind.POSITIVE, POSITIVE),
    (dbm_to_watts, "dbm", Kind.FINITE, NUMBER),
    (path_loss_linear, "d", Kind.POSITIVE, POSITIVE),
    (run_scheme, "scheme", Kind.choice(*SCHEMES), CHOICE),
    (sign_test_p_value, "n", Kind.SEED, SEED),
]
CLASSES = (SystemConfig, TrainConfig, ChannelConfig, ExperimentSpec)
CONFIG_CASES = [case for case in CASES if case[0] in CLASSES]
ARGUMENT_CASES = [case for case in CASES if case[0] not in CLASSES]


def solve_args():
    cfg, ch, _ = make_instance(0)
    return {"sys_cfg": cfg, "ch": ch}


def train_args():
    return {**solve_args(), "train": desk_train(n_epochs=1)}


def state_args():
    cfg, ch, state = make_instance(0)
    return {"cfg": cfg, "ch": ch, "state": state}


BASE = {
    SystemConfig: lambda: {"M": 2, "N": 4, "K": 2, "p_max": 1.0, "noise_power": 1.0},
    TrainConfig: dict, ChannelConfig: dict,
    ExperimentSpec: lambda: {"kind": "convergence"},
    pga_oracle: solve_args, run_meta_loop: train_args, run_scheme: train_args,
    grad_check_command: lambda: {"n_instances": 1, "verbose": False},
    sinr: state_args, sinr_augmented: state_args, wsr_finite_diff: state_args,
    finite_diff_gradient: lambda: {"objective": lambda st: 0.0,
                                   "state": make_instance(0)[2]},
    init_mlp: lambda: {"input_dim": 2, "hidden_dim": 3, "output_dim": 2,
                       "rng": np.random.default_rng(0)},
    adam_step: lambda: {"params": np.zeros(2), "grads": np.zeros(2),
                        "state": adam_init(np.zeros(2))},
    normalize_power: lambda: {"W": np.ones((2, 1), complex)},
    dbm_to_watts: dict,
    path_loss_linear: lambda: {"cfg": ChannelConfig()},
    sign_test_p_value: lambda: {"wins": 0},
}
SECTIONS = {SystemConfig: ("system", SYSTEM_KEYS), TrainConfig: ("train", TRAIN_KEYS),
            ChannelConfig: ("channel", CHANNEL_KEYS)}


def ids(cases):
    return [f"{fn.__name__}.{name}" for fn, name, _, _ in cases]


# The scalar arguments of exported functions that have no case, and why.
UNCASED = {
    "rho_at.epoch": "its valid set, [0, n_epochs], depends on train",
    "sign_test_p_value.wins": "its valid set, [0, n], depends on n",
    "timing_probe.repetitions": "its bound, >= 3, is not a kind",
    **{f"{fn}.{arg}": "it goes straight into a config class, whose field has a case"
       for fn, args in (("desk_train", ("mode", "seed", "n_epochs")),
                        ("paper_train", ("mode", "seed")), ("desk_scenario", ("K",)))
       for arg in args},
    "save_channels.path": "a path", "load_channels.path": "a path",
    "channels_from_text.text": "a text",
}


def expected(prefix: str, field: str, kind: Kind) -> str:
    return f"^{re.escape(f'{prefix}{field} must be {kind.what}; got ')}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_settable_field_has_a_case_and_a_kind(cls):
    settable = {f.name for f in dataclasses.fields(cls) if f.init}
    assert {field for c, field, _, _ in CASES if c is cls} == settable
    assert set(cls.FIELD_KINDS) == settable
    if cls in SECTIONS:
        assert set(SECTIONS[cls][1].values()) == settable


def test_every_exported_scalar_argument_has_a_case_or_a_reason():
    scalar = {f"{fn.__name__}.{arg}"
              for fn in vars(starbeam).values() if inspect.isfunction(fn)
              for arg, hint in typing.get_type_hints(fn).items()
              if arg != "return" and hint in (int, float, bool, str)}
    cased = set(ids(ARGUMENT_CASES))
    assert not cased & set(UNCASED)
    assert scalar == cased | set(UNCASED)


# a function's row is checked through a call, as a class's through its constructor
@pytest.mark.parametrize("cls, field, kind, invalid", CASES, ids=ids(CASES))
def test_invalid_value_named_by_constructor(cls, field, kind, invalid):
    for value in invalid:
        with pytest.raises(ConfigurationError, match=expected("", field, kind)):
            cls(**{**BASE[cls](), field: value})


@pytest.mark.parametrize("cls, field, kind, invalid", CONFIG_CASES,
                         ids=ids(CONFIG_CASES))
def test_invalid_value_named_from_file(tmp_path, cls, field, kind, invalid):
    path = tmp_path / "config.json"
    for value in invalid:
        if cls is ExperimentSpec:
            path.write_text(json.dumps({**BASE[cls](), field: value}))
            with pytest.raises(ConfigurationError, match=expected("", field, kind)):
                cli_main(["experiment", str(path), "--out", str(tmp_path / "out")])
            continue
        section, keys = SECTIONS[cls]
        key = next(k for k, f in keys.items() if f == field)
        path.write_text(json.dumps({section: {key: value}}))
        args = build_parser().parse_args(["run", "--config", str(path)])
        with pytest.raises(ConfigurationError,
                           match=expected(f"{section}.{key}: ", field, kind)):
            _build_configs(args)
    assert not (tmp_path / "out").exists()


def test_weights_must_be_real():
    for weights in ([1 + 0j, 1.0], [True, True], ["1", "2"], np.array([1.0, np.nan])):
        with pytest.raises(ConfigurationError, match="^weights must be"):
            SystemConfig(**BASE[SystemConfig](), weights=weights)


def test_empty_out_dir_accepted():
    assert ExperimentSpec(kind="convergence", out_dir="").out_dir == ""


def test_file_and_constructor_build_equal_configs(tmp_path):
    # integers for real-valued keys, lists for positions
    raw = {
        "train": {"rho_min": 1, "rho_max": 3000, "n_epochs": 7},
        "channel": {"rician_k_g": 10, "bs_pos_m": [0, 0], "ris_pos_m": [100, 0],
                    "center_t_m": [100, -15], "pathloss_b_db_per_decade": 22},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    _, ch_cfg, train = _build_configs(
        build_parser().parse_args(["run", "--config", str(path)]))
    from_lists = ChannelConfig(**{CHANNEL_KEYS[k]: v for k, v in raw["channel"].items()})
    from_array = ChannelConfig(bs_pos=np.array([0.0, 0.0]), center_t=(100, -15.0),
                               rician_k_g=np.float64(10.0), pathloss_b=22.0)
    assert ch_cfg == from_lists == from_array
    assert hash(ch_cfg) == hash(from_lists) == hash(from_array)
    assert train == dataclasses.replace(desk_train(), **raw["train"])
    for value in (ch_cfg.bs_pos, from_array.bs_pos, from_lists.center_t):
        assert type(value) is tuple and all(type(c) is float for c in value)
    for value in (train.rho_max, ch_cfg.pathloss_b, from_lists.rician_k_g):
        assert type(value) is float
