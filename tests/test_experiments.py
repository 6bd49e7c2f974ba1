import csv
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ChannelSet,
    ExperimentSpec,
    SystemConfig,
    desk_scenario,
    generate_channels,
    run_experiment,
    run_scheme,
    sign_test_p_value,
    timing_probe,
)
from starbeam import channels, cli
from starbeam.cli import (
    CHANNEL_KEYS,
    SYSTEM_KEYS,
    TRAIN_KEYS,
    _build_configs,
    build_parser,
    main as cli_main,
)
from starbeam.constraints import COUPLING_TOL, normalize_amplitudes, normalize_power
from starbeam.errors import ConfigurationError
from starbeam.experiments import (
    CONVERGENCE_HEADER,
    GRAD_CHECK_SEED_BASE,
    SCHEME_MODE,
    SCHEMES,
    SWEEP_HEADER,
    ExperimentReport,
    desk_train,
    random_gradient_instance,
)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConvergenceExperiment:
    def test_counting_contract_and_headers(self, tmp_path):
        spec = ExperimentSpec(
            kind="convergence",
            schemes=("gml_independent", "random_phase"),
            sample_count=3,
            out_dir=str(tmp_path),
            master_seed=1,
            n_epochs=8,
        )
        report = run_experiment(spec)
        assert len(report.records) == 2 * 1 * 3
        assert not report.failures
        traces = [p for p in report.csv_paths if "convergence_" in p]
        assert len(traces) == 6
        header, rows = read_csv(traces[0])
        assert header == CONVERGENCE_HEADER
        assert len(rows) == 8
        s_header, s_rows = read_csv(os.path.join(str(tmp_path), "summary.csv"))
        assert s_header == SWEEP_HEADER
        assert len(s_rows) == 6

    def test_master_seed_determinism(self, tmp_path):
        spec = ExperimentSpec(
            kind="convergence", schemes=("gml_independent",), sample_count=2,
            out_dir=str(tmp_path / "a"), master_seed=9, n_epochs=6,
        )
        r1 = run_experiment(spec)
        spec2 = ExperimentSpec(
            kind="convergence", schemes=("gml_independent",), sample_count=2,
            out_dir=str(tmp_path / "b"), master_seed=9, n_epochs=6,
        )
        r2 = run_experiment(spec2)
        v1 = [rec.wsr_final for rec in r1.records]
        v2 = [rec.wsr_final for rec in r2.records]
        assert v1 == v2

    def test_empty_out_dir_is_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = run_experiment(ExperimentSpec(
            kind="convergence", sample_count=1, out_dir="", n_epochs=3))
        assert not report.failures
        assert report.csv_paths == ["convergence_gml_independent_s0.csv", "summary.csv"]
        assert sorted(os.listdir(tmp_path)) == sorted(report.csv_paths)


class TestRunScheme:
    @pytest.mark.parametrize("train_mode", ["independent", "coupled"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_runs_in_its_own_mode(self, scheme, train_mode):
        """Whatever the mode of the config it is handed, run_scheme solves
        in the scheme's mode: bitwise the solve of a config in that mode."""
        sys_cfg, ch_cfg = desk_scenario(K=2)
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(1000))
        sol = run_scheme(scheme, sys_cfg, ch, desk_train(train_mode, 0, 20))
        ref = run_scheme(scheme, sys_cfg, ch, desk_train(SCHEME_MODE[scheme], 0, 20))
        assert sol.mode == SCHEME_MODE[scheme]
        for f in dataclasses.fields(ref):
            a, b = getattr(sol, f.name), getattr(ref, f.name)
            if f.name == "traces":
                assert a.keys() == b.keys()
                for key in a:
                    assert a[key].tobytes() == b[key].tobytes(), key
            else:
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


class TestSweepExperiment:
    def test_sweep_n_and_aggregate_consistency(self, tmp_path):
        spec = ExperimentSpec(
            kind="sweep_n", schemes=("random_phase",), grid=(8, 16),
            sample_count=2, out_dir=str(tmp_path), master_seed=2, n_epochs=5,
        )
        report = run_experiment(spec)
        assert len(report.records) == 1 * 2 * 2
        header, rows = read_csv(os.path.join(str(tmp_path), "sweep_n.csv"))
        assert header == SWEEP_HEADER
        # aggregate means must be recomputable from the raw rows
        agg_header, agg_rows = read_csv(
            os.path.join(str(tmp_path), "sweep_n_aggregate.csv")
        )
        raw = {}
        for scheme, gval, sample, wsr, secs in rows:
            raw.setdefault((scheme, gval), []).append(float(wsr))
        for scheme, gval, n, mean, std in agg_rows:
            vals = raw[(scheme, gval)]
            assert int(n) == len(vals)
            assert float(mean) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_failed_cell_is_recorded_and_listed(self, tmp_path):
        spec = ExperimentSpec(
            kind="sweep_n", schemes=("conventional_ris", "random_phase"),
            grid=(15,), sample_count=1, out_dir=str(tmp_path), n_epochs=2,
        )
        report = run_experiment(spec)
        failed, solved = report.records
        assert "even N" in failed.error and solved.error is None
        assert report.failures == [failed.error]

    def test_grid_must_not_be_empty(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(kind="sweep_n", grid=())


class TestExperimentSpec:
    @pytest.mark.parametrize("kind", ["convergence", "phase_trace"])
    def test_grid_rejected_on_one_point_kinds(self, kind):
        with pytest.raises(ConfigurationError, match="grid"):
            ExperimentSpec(kind=kind, grid=(1, 2))

    @pytest.mark.parametrize("fields, named", [
        ({"kind": "grad_check"}, "kind"),
        ({"kind": "sweep_n"}, "grid"),
        ({"kind": "sweep_n", "grid": (16.7,)}, "grid"),
        ({"kind": "sweep_n", "grid": (8, 0)}, "grid"),
        ({"kind": "sweep_n", "grid": (True,)}, "grid"),
        ({"kind": "sweep_n", "grid": 16}, "grid"),
        ({"kind": "sweep_pmax", "grid": (0.01, float("nan"))}, "grid"),
        ({"kind": "sweep_mn", "grid": ((8, 16, 2),)}, "grid"),
        ({"kind": "sweep_mn", "grid": (8, 16)}, "grid"),
        ({"kind": "sweep_mn", "grid": ((8, 16), None)}, "grid"),
        ({"kind": "phase_trace", "schemes": ("gml_coupled", "pga_oracle")},
         "schemes"),
        ({"kind": "convergence", "master_seed": -1}, "master_seed"),
        ({"kind": "timing"}, "kind"),
    ])
    def test_spec_rejected_when_built(self, tmp_path, fields, named):
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=named):
            ExperimentSpec(out_dir=str(out), **fields)
        assert not out.exists()

    def test_json_lists_become_tuples(self):
        spec = ExperimentSpec(kind="sweep_mn", schemes=["random_phase"],
                              grid=[[8, 16], [4, 8]])
        assert spec.schemes == ("random_phase",)
        assert spec.grid == ((8, 16), (4, 8))


class TestPhaseTraceExperiment:
    def test_header_and_final_row_near_lock(self, tmp_path):
        spec = ExperimentSpec(
            kind="phase_trace", schemes=("gml_coupled",), sample_count=1,
            out_dir=str(tmp_path), master_seed=3, n_epochs=300,
        )
        report = run_experiment(spec)
        assert not report.failures
        path = [p for p in report.csv_paths if "phase_trace_" in p][0]
        header, rows = read_csv(path)
        n = desk_scenario()[0].N
        assert header == ["epoch"] + [f"elem_{i}" for i in range(n)]
        final = np.array([float(v) for v in rows[-1][1:]])
        targets = np.array([np.pi / 2, 3 * np.pi / 2])
        dist = np.min(np.abs(final[:, None] - targets[None, :]), axis=1)
        assert dist.max() < 0.08


class TestTimingExperiment:
    def test_probe_requires_three_reps(self):
        sys_cfg, _ = desk_scenario()
        with pytest.raises(ConfigurationError):
            timing_probe(sys_cfg, desk_train(n_epochs=5), repetitions=2)

    @pytest.mark.parametrize("repetitions", [3.5, True, "5"])
    def test_probe_repetitions_named(self, repetitions):
        sys_cfg, _ = desk_scenario()
        with pytest.raises(ConfigurationError, match="repetitions must be >= 3"):
            timing_probe(sys_cfg, desk_train(n_epochs=5), repetitions=repetitions)


@pytest.mark.parametrize("call, name", [
    (lambda cfg, ch_cfg: channels.dbm_to_watts(4000.0), "dbm"),
    (lambda cfg, ch_cfg: channels.dbm_to_watts(-4000.0), "dbm"),
    (lambda cfg, ch_cfg: channels.generate_channels(cfg, ch_cfg, rng=5), "rng"),
], ids=["dbm_to_watts_overflow", "dbm_to_watts_zero", "generate_channels"])
def test_bad_argument_rejected_naming_it(call, name):
    """A power whose watts overflow or round to 0, and an integer for a
    generator, are rejected at the call, naming the argument."""
    sys_cfg, ch_cfg = desk_scenario()
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        call(sys_cfg, ch_cfg)


def separate_draws(seed):
    """random_gradient_instance drawn block by block, one call per array."""
    r = np.random.default_rng(seed)
    m, n, k = int(r.integers(2, 9)), int(r.integers(2, 17)), int(r.integers(1, 5))
    cfg = SystemConfig(M=m, N=n, K=k, p_max=float(k), noise_power=m * n / 2.0,
                       weights=r.uniform(0.5, 2.0, k))
    G = (r.standard_normal((n, m)) + 1j * r.standard_normal((n, m))) / np.sqrt(2)
    h = (r.standard_normal((k, n)) + 1j * r.standard_normal((k, n))) / np.sqrt(2)
    W = normalize_power(r.standard_normal((m, k)) + 1j * r.standard_normal((m, k)),
                        cfg.p_max)
    bt, br = normalize_amplitudes(r.uniform(0.3, 1.0, n), r.uniform(0.3, 1.0, n))
    state = BeamformingState(W, bt, br, r.uniform(0, 2 * np.pi, n),
                             r.uniform(0, 2 * np.pi, n))
    return cfg, ChannelSet(G, h), state


class TestGradientInstance:
    def test_equals_separate_draws(self):
        for seed in range(GRAD_CHECK_SEED_BASE, GRAD_CHECK_SEED_BASE + 200):
            (cfg, ch, st), (rc, rch, rst) = (random_gradient_instance(seed),
                                              separate_draws(seed))
            assert (cfg.M, cfg.N, cfg.K, cfg.p_max, cfg.noise_power) \
                == (rc.M, rc.N, rc.K, rc.p_max, rc.noise_power)
            pairs = [(cfg.weight_array, rc.weight_array), (ch.G, rch.G), (ch.h, rch.h)] + [
                (getattr(st, f), getattr(rst, f))
                for f in ("W", "beta_t", "beta_r", "theta_t", "theta_r")]
            for a, b in pairs:
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            random_gradient_instance(seed)


class TestSignTest:
    def test_known_tail_values(self):
        assert sign_test_p_value(15, 20) == pytest.approx(0.02069473, rel=1e-5)
        assert sign_test_p_value(14, 20) == pytest.approx(0.05765915, rel=1e-5)
        assert sign_test_p_value(0, 20) == 1.0

    def test_every_count_of_twenty_and_the_empty_test(self):
        for wins in range(21):
            expected = sum(math.comb(20, i) for i in range(wins, 21)) / 2.0**20
            assert sign_test_p_value(wins, 20) == expected
        assert sign_test_p_value(0, 0) == 1.0

    @pytest.mark.parametrize("wins, n, name", [
        (3, 2, "wins"), (True, 3, "wins"), (-1, 3, "wins"), (1.0, 3, "wins")])
    def test_counts_outside_the_test_named(self, wins, n, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must"):
            sign_test_p_value(wins, n)


class TestPgaConvergence:
    def test_convergence_kind_runs_pga_oracle(self, tmp_path):
        spec = ExperimentSpec(kind="convergence", schemes=("pga_oracle",),
                              sample_count=1, out_dir=str(tmp_path), n_epochs=6)
        report = run_experiment(spec)
        assert not report.failures
        header, rows = read_csv(os.path.join(str(tmp_path),
                                             "convergence_pga_oracle_s0.csv"))
        assert header == CONVERGENCE_HEADER
        assert len(rows) == 6
        # PGA has no penalty: both columns are zero, as in independent mode
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)


class TestCli:
    def test_run_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "run_out")
        code = cli_main([
            "run", "--seed", "5", "--out", out,
            "--config", self._write_config(tmp_path),
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out, "solution.json"))
        assert os.path.exists(os.path.join(out, "solution.npz"))
        assert os.path.exists(os.path.join(out, "convergence.csv"))
        assert os.path.exists(os.path.join(out, "channels.txt"))
        with open(os.path.join(out, "solution.json")) as fh:
            summary = json.load(fh)
        assert summary["wsr_opt"] > 0

    def test_coupled_run_reports_residual(self, tmp_path, capsys):
        out = str(tmp_path / "run_out")
        code = cli_main([
            "run", "--scheme", "gml_coupled", "--seed", "5", "--out", out,
            "--config", self._write_config(tmp_path),
        ])
        assert code == 0
        with open(os.path.join(out, "solution.json")) as fh:
            summary = json.load(fh)
        residual = summary["residual_pre_projection"]
        # ten epochs are too few to lock, so the fallback must show
        assert residual >= COUPLING_TOL
        printed = capsys.readouterr().out
        assert f"residual (pre-proj): {residual:.4f} (NOT locked" in printed

    @pytest.mark.parametrize("raw, where", [
        ({"train": {"n_epoch": 3}}, "'train'"),
        ({"system": {"M": 4, "p_max": 1.0}}, "'system'"),
        ({"channel": {"rician_k": 3.0}}, "'channel'"),
        ({"trian": {"n_epochs": 3}}, "the config file"),
        ({"train": {"regulator_gain_rad": 6.0}}, "regulator_gain_rad"),
        ({"channel": {"los_mode": "ula"}}, "los_mode"),
        # the Adam rates and the amplitude cadence are training constants
        ({"train": {"lr_w": 1e-3}}, "lr_w"),
        ({"train": {"lr_a": 5e-3}}, "lr_a"),
        ({"train": {"lr_theta": 5e-3}}, "lr_theta"),
        ({"train": {"n1": 5}}, "n1"),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, raw, where):
        path = self._write_config(tmp_path, raw)
        with pytest.raises(ConfigurationError, match=where):
            cli_main(["run", "--config", path])

    @pytest.mark.parametrize("command, raw, where", [
        ("run", {"train": 5}, "'train' must be a JSON object; got 5"),
        ("run", {"system": None}, "'system' must be a JSON object; got None"),
        ("run", {"train": "n_epochs"},
         "'train' must be a JSON object; got 'n_epochs'"),
        ("experiment", 5, "the experiment spec must be a JSON object; got 5"),
    ], ids=["section_number", "section_null", "section_string", "spec_number"])
    def test_non_object_config_rejected(self, tmp_path, command, raw, where):
        path = self._write_config(tmp_path, raw)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(where)}$"):
            cli_main([command, path, "--out", str(tmp_path / "out")]
                     if command == "experiment" else [command, "--config", path])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "experiment"])
    @pytest.mark.parametrize("text, error", [
        (b'{"train": {"n_epochs": 2,}}', "not valid JSON, .* at line 1 column 26$"),
        (b'{"train": {"mode": "\xc3"}}', "not UTF-8 text, "),
        (b'{"train": {"n_epochs": 2, "n_epochs": 3}}',
         "key 'n_epochs' repeated within one JSON object$"),
    ], ids=["trailing_comma", "byte_0xc3", "repeated_key"])
    def test_malformed_file_rejected_naming_it(self, tmp_path, command, text, error):
        path = str(tmp_path / "cfg.json")
        (tmp_path / "cfg.json").write_bytes(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(path)}: {error}"):
            cli_main([command, path, "--out", str(tmp_path / "out")]
                     if command == "experiment" else [command, "--config", path])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw, named", [
        ({"channel": {"bs_pos_m": [100.0, 0.0]}}, "bs_pos"),
        ({"channel": {"center_t_m": [100.0, 0.0], "user_area_radius_m": 0.0}},
         "center_t"),
    ], ids=["bs_pos_at_ris_pos", "user_disc_contains_ris_pos"])
    def test_config_value_rejected(self, tmp_path, raw, named):
        path = self._write_config(tmp_path, raw)
        args = build_parser().parse_args(["run", "--config", path])
        with pytest.raises(ConfigurationError, match=named):
            _build_configs(args)

    @pytest.mark.parametrize("argv, named", [
        (["grad-check", "--instances", "0"], "n_instances"),
        (["grad-check", "--instances", "-3"], "n_instances"),
        (["run", "--seed", "-1"], "seed"),
        (["grad-check", "--seed", "-5000"], "seed must be >= 0"),
        (["grad-check", "--seed", "-5"], "seed must be >= 0"),
    ], ids=["grad_check_instances_0", "grad_check_instances_-3", "run_seed_-1",
            "grad_check_seed_-5000", "grad_check_seed_-5"])
    def test_flag_value_rejected(self, argv, named):
        with pytest.raises(ConfigurationError, match=named):
            cli_main(argv)

    @pytest.mark.parametrize("file_mode, flags, expected", [
        ("coupled", ["--scheme", "random_phase"], ("random_phase", "independent")),
        ("independent", ["--scheme", "gml_coupled"], ("gml_coupled", "coupled")),
        ("independent", [], ("gml_independent", "independent")),
    ])
    def test_scheme_sets_the_mode(self, tmp_path, monkeypatch, file_mode,
                                  flags, expected):
        seen = []

        def run(scheme, sys_cfg, ch, train):
            sol = run_scheme(scheme, sys_cfg, ch, train)
            seen.append((scheme, sol.mode))
            return sol

        run_scheme = cli.run_scheme
        monkeypatch.setattr(cli, "run_scheme", run)
        path = self._write_config(
            tmp_path, {"train": {"n_epochs": 3, "mode": file_mode}})
        assert cli_main(["run", "--config", path] + flags) == 0
        assert seen == [expected]

    def test_empty_out_is_the_working_directory(self, tmp_path, monkeypatch):
        path = self._write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "--config", path, "--out", ""]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "cfg.json", "channels.txt", "convergence.csv", "solution.json",
            "solution.npz"]

    def test_config_file_mode_reaches_run(self, tmp_path):
        out = str(tmp_path / "run_out")
        path = self._write_config(
            tmp_path, {"train": {"n_epochs": 3, "mode": "coupled"}})
        assert cli_main(["run", "--config", path, "--out", out]) == 0
        with open(os.path.join(out, "solution.json")) as fh:
            summary = json.load(fh)
        assert (summary["scheme"], summary["mode"]) == ("gml_coupled", "coupled")

    @pytest.mark.parametrize("command, flag", [
        ("run", "--desk-scale"),
        ("run", "--mode"),
        ("experiment", "--config"),
        ("experiment", "--mode"),
        ("experiment", "--desk-scale"),
        ("grad-check", "--config"),
        ("grad-check", "--mode"),
        ("grad-check", "--out"),
        ("grad-check", "--paper-scale"),
        ("grad-check", "--desk-scale"),
    ])
    def test_flag_the_subcommand_does_not_read_rejected(self, command, flag):
        argv = [command, "spec.json"] if command == "experiment" else [command]
        argv.append(flag)
        if flag in ("--config", "--mode", "--out"):
            argv.append({"--mode": "coupled"}.get(flag, "cfg.json"))
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    def test_documented_example_config_builds(self, tmp_path):
        doc = cli.__doc__
        start = doc.index("\n    {\n") + 1
        example = json.loads(doc[start:doc.index("\n    }\n", start) + 6])
        assert set(example["system"]) == set(SYSTEM_KEYS)
        assert set(example["train"]) == set(TRAIN_KEYS)
        assert set(example["channel"]) == set(CHANNEL_KEYS)
        path = self._write_config(tmp_path, example)
        args = build_parser().parse_args(["run", "--config", path])
        sys_cfg, ch_cfg, train = _build_configs(args)
        assert (sys_cfg.M, train.n_epochs, ch_cfg.seed) == (8, 300, 0)

    def test_config_file_values_reach_the_configs(self, tmp_path):
        path = self._write_config(tmp_path, {
            "system": {"K": 3, "weights": [1.0, 0.0, 2.0],
                       "user_sides": ["reflection", "transmission", "reflection"]},
            "train": {"rho_min": 0.5, "rho_max": 50.0},
        })
        args = build_parser().parse_args(["run", "--config", path])
        sys_cfg, _, train = _build_configs(args)
        assert sys_cfg.weights == (1.0, 0.0, 2.0)
        assert sys_cfg.side_index.tolist() == [1, 0, 1]
        assert (train.rho_min, train.rho_max) == (0.5, 50.0)

    def _write_config(self, tmp_path, cfg=None):
        cfg = cfg or {"train": {"n_epochs": 10}}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def test_experiment_subcommand(self, tmp_path):
        spec = {
            "kind": "convergence",
            "schemes": ["random_phase"],
            "sample_count": 1,
            "n_epochs": 5,
            "master_seed": 0,
        }
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        out = str(tmp_path / "exp_out")
        assert cli_main(["experiment", spec_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))
        spec["sample"] = 3
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with pytest.raises(ConfigurationError, match="experiment spec"):
            cli_main(["experiment", spec_path, "--out", out])

    def test_experiment_flags_override_the_spec(self, tmp_path, monkeypatch):
        seen = []

        def run(spec):
            seen.append(spec)
            return ExperimentReport(spec)

        monkeypatch.setattr(cli, "run_experiment", run)
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as fh:
            json.dump({"kind": "sweep_mn", "grid": [[8, 16]], "desk_scale": True,
                       "master_seed": 1, "out_dir": "elsewhere"}, fh)
        assert cli_main(["experiment", spec_path]) == 0
        assert cli_main(["experiment", spec_path, "--paper-scale",
                         "--seed", "5", "--out", "here"]) == 0
        kept, overridden = seen
        assert (kept.desk_scale, kept.master_seed, kept.out_dir) == (
            True, 1, "elsewhere")
        assert kept.grid == ((8, 16),)
        assert (overridden.desk_scale, overridden.master_seed,
                overridden.out_dir) == (False, 5, "here")

    def test_pga_run_prints_its_wall_clock(self, tmp_path, monkeypatch, capsys):
        clock = iter([10.0, 12.5])
        monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
        path = self._write_config(tmp_path, {"train": {"n_epochs": 3}})
        assert cli_main(["run", "--scheme", "pga_oracle", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "wall clock:          2.50 s (833.333 ms/epoch)" in out

    def test_experiment_spec_setting_users_rejected(self, tmp_path):
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as fh:
            json.dump({"kind": "convergence", "schemes": ["random_phase"],
                       "sample_count": 1, "n_epochs": 2, "users": 3}, fh)
        with pytest.raises(ConfigurationError, match="users"):
            cli_main(["experiment", spec_path, "--out", str(tmp_path / "out")])

    def test_grad_check_subcommand(self):
        assert cli_main(["grad-check", "--instances", "3"]) == 0

    def test_no_time_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["time"])
        assert exc.value.code == 2
