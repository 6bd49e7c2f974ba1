"""One boundary test generated from a table of every settable config field:
each invalid value of the field's kind must raise a ConfigurationError
naming the field, through the constructor and through the config file
(the run config's key, or the experiment spec's). This is where the kinds
of config fields are tested: a new invalid value goes into the lists
below, not into a test of its own."""
import dataclasses
import json
import re

import numpy as np
import pytest

from starbeam import ChannelConfig, ExperimentSpec, SystemConfig, TrainConfig
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

# (class, field, the kind it must have, its invalid values); the
# constructor's other arguments are in BASE.
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
    *[(TrainConfig, f, Kind.COUNT, COUNT) for f in ("n_epochs", "n1", "n2")],
    *[(TrainConfig, f, Kind.POSITIVE, POSITIVE)
      for f in ("lr_w", "lr_a", "lr_theta", "rho_min", "rho_max")],
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
]
BASE = {
    SystemConfig: {"M": 2, "N": 4, "K": 2, "p_max": 1.0, "noise_power": 1.0},
    TrainConfig: {}, ChannelConfig: {}, ExperimentSpec: {"kind": "convergence"},
}
SECTIONS = {SystemConfig: ("system", SYSTEM_KEYS), TrainConfig: ("train", TRAIN_KEYS),
            ChannelConfig: ("channel", CHANNEL_KEYS)}
IDS = [f"{cls.__name__}.{field}" for cls, field, _, _ in CASES]


def expected(prefix: str, field: str, kind: Kind) -> str:
    return f"^{re.escape(f'{prefix}{field} must be {kind.what}; got ')}"


@pytest.mark.parametrize("cls", list(BASE), ids=lambda cls: cls.__name__)
def test_every_settable_field_has_a_case_and_a_kind(cls):
    settable = {f.name for f in dataclasses.fields(cls) if f.init}
    assert {field for c, field, _, _ in CASES if c is cls} == settable
    assert set(cls.FIELD_KINDS) == settable
    if cls in SECTIONS:
        assert set(SECTIONS[cls][1].values()) == settable


@pytest.mark.parametrize("cls, field, kind, invalid", CASES, ids=IDS)
def test_invalid_value_named_by_constructor(cls, field, kind, invalid):
    for value in invalid:
        with pytest.raises(ConfigurationError, match=expected("", field, kind)):
            cls(**{**BASE[cls], field: value})


@pytest.mark.parametrize("cls, field, kind, invalid", CASES, ids=IDS)
def test_invalid_value_named_from_file(tmp_path, cls, field, kind, invalid):
    path = tmp_path / "config.json"
    for value in invalid:
        if cls is ExperimentSpec:
            path.write_text(json.dumps({**BASE[cls], field: value}))
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
            SystemConfig(**BASE[SystemConfig], weights=weights)


def test_empty_out_dir_accepted():
    assert ExperimentSpec(kind="convergence", out_dir="").out_dir == ""


def test_file_and_constructor_build_equal_configs(tmp_path):
    # integers for real-valued keys, lists for positions
    raw = {
        "train": {"rho_min": 1, "rho_max": 3000, "lr_w": 1, "n_epochs": 7},
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
