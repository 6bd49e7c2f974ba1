import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ConfigurationError,
    TrainConfig,
    conventional_ris_baseline,
    desk_scenario,
    evaluate_wsr,
    generate_channels,
    pga_oracle,
    random_phase_baseline,
)
from starbeam.model import SystemConfig

from conftest import edge_cases, make_edge_instance


def setup_instance(seed=0, n_epochs=25, K=2):
    sys_cfg, ch_cfg = desk_scenario(K=K)
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(500 + seed))
    train = TrainConfig(n_epochs=n_epochs, seed=seed, n2=1)
    return sys_cfg, ch, train


class TestRandomPhase:
    def test_amplitudes_and_phases_frozen(self):
        sys_cfg, ch, train = setup_instance()
        sol = random_phase_baseline(sys_cfg, ch, train)
        assert np.allclose(sol.beta_opt, 1 / np.sqrt(2))
        # the phase-difference trace never moves
        diffs = sol.traces["phase_diff"]
        assert np.array_equal(diffs[0], diffs[-1])

    def test_power_constraint_at_output(self):
        sys_cfg, ch, train = setup_instance(seed=1)
        sol = random_phase_baseline(sys_cfg, ch, train)
        power = float(np.vdot(sol.W_opt, sol.W_opt).real)
        assert power == pytest.approx(sys_cfg.p_max, rel=1e-9)

    def test_deterministic(self):
        sys_cfg, ch, train = setup_instance(seed=2)
        a = random_phase_baseline(sys_cfg, ch, train)
        b = random_phase_baseline(sys_cfg, ch, train)
        assert np.array_equal(a.W_opt, b.W_opt)
        assert a.wsr_opt == b.wsr_opt


class TestConventionalRis:
    def test_split_pattern_frozen(self):
        sys_cfg, ch, train = setup_instance(seed=3)
        sol = conventional_ris_baseline(sys_cfg, ch, train)
        n = sys_cfg.N
        half = n // 2
        beta_t, beta_r = sol.beta_opt[:n], sol.beta_opt[n:]
        assert np.array_equal(beta_t[:half], np.zeros(half))
        assert np.array_equal(beta_t[half:], np.ones(half))
        assert np.array_equal(beta_r[:half], np.ones(half))
        assert np.array_equal(beta_r[half:], np.zeros(half))
        assert np.allclose(beta_t**2 + beta_r**2, 1.0)

    def test_odd_element_count_rejected(self):
        sys_cfg, ch, train = setup_instance()
        odd = SystemConfig(M=sys_cfg.M, N=15, K=sys_cfg.K,
                           p_max=sys_cfg.p_max, noise_power=sys_cfg.noise_power)
        with pytest.raises(ConfigurationError):
            conventional_ris_baseline(odd, ch, train)


class TestPgaOracle:
    def test_feasible_output(self):
        sys_cfg, ch, _ = setup_instance(seed=4)
        sol = pga_oracle(sys_cfg, ch, steps=50, seed=4)
        power = float(np.vdot(sol.W_opt, sol.W_opt).real)
        assert power == pytest.approx(sys_cfg.p_max, rel=1e-9)
        n = sys_cfg.N
        assert np.max(np.abs(sol.beta_opt[:n]**2 + sol.beta_opt[n:]**2 - 1)) < 1e-12
        assert (sol.theta_opt >= 0).all() and (sol.theta_opt < 2 * np.pi).all()

    def test_trace_non_decreasing(self):
        sys_cfg, ch, _ = setup_instance(seed=5)
        sol = pga_oracle(sys_cfg, ch, steps=80, seed=5)
        assert (np.diff(sol.traces["wsr_best"]) >= 0).all()

    def test_improves_on_start(self):
        sys_cfg, ch, _ = setup_instance(seed=6)
        sol = pga_oracle(sys_cfg, ch, steps=100, seed=6)
        assert sol.wsr_opt > sol.traces["wsr_best"][0]

    def test_deterministic(self):
        sys_cfg, ch, _ = setup_instance(seed=7)
        a = pga_oracle(sys_cfg, ch, steps=40, seed=7)
        b = pga_oracle(sys_cfg, ch, steps=40, seed=7)
        assert a.wsr_opt == b.wsr_opt
        assert np.array_equal(a.theta_opt, b.theta_opt)

    @staticmethod
    def check_accepted_rates(sys_cfg, ch, steps, seed):
        """A run cut after s steps is the first s steps of a longer one, so
        each accepted rate on the long trace is a reported rate, which must
        equal evaluate_wsr at the reported state bit for bit."""
        full = pga_oracle(sys_cfg, ch, steps=steps, seed=seed)
        # precondition: most steps accept a candidate
        assert (np.diff(full.traces["wsr_best"]) > 0).sum() >= steps // 2
        n = sys_cfg.N
        for s in range(1, steps + 1):
            sol = pga_oracle(sys_cfg, ch, steps=s, seed=seed)
            state = BeamformingState(sol.W_opt, sol.beta_opt[:n], sol.beta_opt[n:],
                                     sol.theta_opt[:n], sol.theta_opt[n:])
            assert sol.wsr_opt == evaluate_wsr(sys_cfg, ch, state)
            assert np.array_equal(sol.traces["wsr_best"],
                                  full.traces["wsr_best"][:s])

    def test_every_accepted_rate_is_the_state_rate(self):
        sys_cfg, ch, _ = setup_instance(seed=9)
        self.check_accepted_rates(sys_cfg, ch, steps=30, seed=9)

    @edge_cases
    def test_every_accepted_rate_is_the_state_rate_on_edge_cases(
            self, seed, dims, sides, weights):
        sys_cfg, ch, _ = make_edge_instance(seed, dims, sides, weights)
        self.check_accepted_rates(sys_cfg, ch, steps=8, seed=seed)
