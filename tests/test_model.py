import json

import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ChannelSet,
    ConfigurationError,
    DegenerateInputError,
    SystemConfig,
    all_sinrs,
    evaluate_wsr,
    sinr,
    sinr_augmented,
    wsr,
)
from starbeam.cli import _build_configs, build_parser
from starbeam.model import (
    REFLECTION,
    TRANSMISSION,
    WEIGHT_SUM_MAX,
    default_user_sides,
    effective_rows,
    received_sinrs,
)

from conftest import make_instance

_MAX = np.finfo(float).max


def scalar_setup(p=4.0, noise=0.5):
    cfg = SystemConfig(M=1, N=1, K=1, p_max=p, noise_power=noise)
    ch = ChannelSet(np.ones((1, 1)), np.ones((1, 1)))
    state = BeamformingState(
        np.full((1, 1), np.sqrt(p), complex), [1.0], [1.0], [0.0], [0.0]
    )
    return cfg, ch, state


class TestSinr:
    def test_scalar_substitution(self):
        cfg, ch, state = scalar_setup(p=4.0, noise=0.5)
        assert sinr(cfg, ch, state, 0) == pytest.approx(4.0 / 0.5)

    def test_zero_precoder(self):
        cfg, ch, state = make_instance(1)
        zero = BeamformingState(
            np.zeros_like(state.W), state.beta_t, state.beta_r,
            state.theta_t, state.theta_r,
        )
        assert sinr(cfg, ch, zero, 0) == 0.0
        assert sinr_augmented(cfg, ch, zero, 0) == 0.0

    def test_orthogonal_channels_kill_interference(self):
        # Effective rows are exactly e_1 and e_2, so cross terms vanish.
        cfg = SystemConfig(M=2, N=2, K=2, p_max=2.0, noise_power=0.3)
        ch = ChannelSet(np.eye(2), np.eye(2))
        W = np.array([[1.5, 0.0], [0.0, 0.7]], complex)
        state = BeamformingState(W, [1, 1], [1, 1], [0, 0], [0, 0])
        for k, amp in enumerate((1.5, 0.7)):
            assert sinr(cfg, ch, state, k) == pytest.approx(amp**2 / 0.3)

    def test_selection_mask_kills_wrong_side(self):
        cfg, ch, state = make_instance(2, K=2)
        dead_t = BeamformingState(
            state.W, np.zeros_like(state.beta_t), state.beta_r,
            state.theta_t, state.theta_r,
        )
        for k, side in enumerate(cfg.user_sides):
            if side == TRANSMISSION:
                assert sinr_augmented(cfg, ch, dead_t, k) == 0.0

    def test_out_of_range_user(self):
        cfg, ch, state = make_instance(3)
        with pytest.raises(IndexError):
            sinr(cfg, ch, state, cfg.K)
        with pytest.raises(IndexError):
            sinr_augmented(cfg, ch, state, cfg.K)

    def test_dimension_mismatch(self):
        cfg, ch, state = make_instance(4)
        other = SystemConfig(M=cfg.M + 1, N=cfg.N, K=cfg.K, p_max=1.0,
                             noise_power=1.0)
        with pytest.raises(ConfigurationError):
            sinr(other, ch, state, 0)


class TestFormulationEquivalence:
    def test_all_sinrs_matches_per_user(self):
        cfg, ch, state = make_instance(11, K=4)
        gammas = all_sinrs(cfg, ch, state)
        for k in range(cfg.K):
            assert gammas[k] == pytest.approx(sinr_augmented(cfg, ch, state, k),
                                              rel=1e-12)


class TestWsr:
    def test_log2_arithmetic(self):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1,
                           weights=[1.0, 1.0])
        assert wsr(cfg, np.array([1.0, 3.0])) == pytest.approx(3.0)

    def test_zero_sinr(self):
        cfg = SystemConfig(M=1, N=1, K=3, p_max=1, noise_power=1)
        assert wsr(cfg, np.zeros(3)) == 0.0

    def test_zero_weight_user_ignored(self):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1,
                           weights=[2.0, 0.0])
        assert wsr(cfg, np.array([1.0, 123.0])) == pytest.approx(2.0)

    def test_negative_sinr_rejected(self):
        cfg = SystemConfig(M=1, N=1, K=1, p_max=1, noise_power=1)
        with pytest.raises(ValueError):
            wsr(cfg, np.array([-0.1]))

    @pytest.mark.parametrize("gammas", [[np.nan, 1.0], [1.0, np.nan],
                                        [[1.0, 2.0], [0.5, np.nan]]])
    def test_nan_sinr_rejected(self, gammas):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1)
        with pytest.raises(ValueError, match="non-negative"):
            wsr(cfg, np.array(gammas))

    @pytest.mark.parametrize("gammas, seen", [
        ([1.0, -0.5], "a negative value"), ([np.nan, -0.5], "NaN"),
        ([[1.0, 2.0], [np.nan, 1.0]], "NaN")])
    def test_failure_is_degenerate_input_naming_what_it_saw(self, gammas, seen):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1)
        with pytest.raises(DegenerateInputError, match=f"non-negative; saw {seen}$"):
            wsr(cfg, np.array(gammas))

    @pytest.mark.parametrize("weights, gammas", [
        (None, [np.inf, 1.0]), ([1.0, 0.0], [1.0, np.inf]),
        (None, [[1.0, 2.0], [np.inf, 1.0]]), ([0.0, 1.0], [[np.inf, 1.0]])])
    def test_infinite_sinr_rejected(self, weights, gammas):
        """An inf SINR is rejected, for one vector and for a batch, before
        its inf log meets a zero weight: no warning comes ahead of the
        error."""
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1, weights=weights)
        with pytest.raises(DegenerateInputError, match="must be finite; saw inf$"):
            wsr(cfg, np.array(gammas))

    @pytest.mark.parametrize("gammas", [[_MAX, _MAX], [[1.0, 1.0], [_MAX, _MAX]]])
    def test_overflowing_weighted_sum_rejected(self, tmp_path, gammas):
        """Weights under which a finite SINR could overflow the weighted sum
        are rejected when the config is built, from the constructor and from
        a config file. At weights summing to the bound, the largest finite
        SINRs give half the float64 maximum without a warning, for one
        vector and for a batch."""
        with pytest.raises(ConfigurationError, match="^weights must sum"):
            SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1, weights=[1e308, 1.0])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"system": {"K": 2, "weights": [1e308, 1.0]}}))
        with pytest.raises(ConfigurationError, match="^weights must sum"):
            _build_configs(build_parser().parse_args(["run", "--config", str(path)]))
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1,
                           weights=[WEIGHT_SUM_MAX / 2, WEIGHT_SUM_MAX / 2])
        rates = wsr(cfg, np.array(gammas))
        assert np.ravel(rates)[-1] == _MAX / 2

    def test_length_mismatch(self):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1)
        with pytest.raises(ConfigurationError):
            wsr(cfg, np.array([1.0]))

    def test_monotone_in_sinr(self):
        cfg = SystemConfig(M=1, N=1, K=2, p_max=1, noise_power=1)
        base = wsr(cfg, np.array([1.0, 2.0]))
        assert wsr(cfg, np.array([1.2, 2.0])) > base


class TestInvariances:
    def test_global_phase(self, instance):
        cfg, ch, state = instance
        phi = 0.8123
        shifted = BeamformingState(
            state.W, state.beta_t, state.beta_r,
            state.theta_t + phi, state.theta_r + phi,
        )
        assert np.allclose(all_sinrs(cfg, ch, shifted),
                           all_sinrs(cfg, ch, state), rtol=1e-12)

    def test_per_column_phase(self, instance):
        cfg, ch, state = instance
        W = state.W.copy()
        W[:, 0] *= np.exp(1j * 1.3)
        rotated = BeamformingState(W, state.beta_t, state.beta_r,
                                   state.theta_t, state.theta_r)
        assert np.allclose(all_sinrs(cfg, ch, rotated),
                           all_sinrs(cfg, ch, state), rtol=1e-12)

    def test_user_permutation(self):
        cfg, ch, state = make_instance(21, K=4)
        perm = np.array([2, 0, 3, 1])
        cfg_p = SystemConfig(
            M=cfg.M, N=cfg.N, K=cfg.K, p_max=cfg.p_max,
            noise_power=cfg.noise_power,
            user_sides=tuple(cfg.user_sides[i] for i in perm),
            weights=cfg.weight_array[perm],
        )
        ch_p = ChannelSet(ch.G, ch.h[perm])
        state_p = BeamformingState(state.W[:, perm], state.beta_t, state.beta_r,
                                   state.theta_t, state.theta_r)
        assert np.allclose(all_sinrs(cfg_p, ch_p, state_p),
                           all_sinrs(cfg, ch, state)[perm], rtol=1e-12)
        assert evaluate_wsr(cfg_p, ch_p, state_p) == pytest.approx(
            evaluate_wsr(cfg, ch, state), rel=1e-12
        )


class TestTypes:
    @pytest.mark.parametrize("G_shape, h_shape, dim", [
        ((0, 3), (2, 0), "N"),
        ((4, 0), (2, 4), "M"),
        ((4, 3), (0, 4), "K"),
    ])
    def test_channel_set_rejects_empty_dimension(self, G_shape, h_shape, dim):
        with pytest.raises(ConfigurationError, match=f"dimension {dim} "):
            ChannelSet(np.zeros(G_shape), np.zeros(h_shape))

    @pytest.mark.parametrize("field", ["G", "h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_set_rejects_non_finite(self, field, bad):
        _, ch, _ = make_instance(34)
        arrays = {"G": ch.G.copy(), "h": ch.h.copy()}
        arrays[field][0, -1] = complex(0.0, bad)
        with pytest.raises(ConfigurationError, match=f"channel {field} "):
            ChannelSet(**arrays)

    def test_channel_arrays_read_only(self):
        _, ch, _ = make_instance(32)
        with pytest.raises(ValueError):
            ch.G[0, 0] = 0

    def test_default_sides_partition(self):
        sides = default_user_sides(5)
        assert sides.count(TRANSMISSION) == 3
        assert sides.count(REFLECTION) == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(M=1, N=1, K=1, p_max=1, noise_power=1,
                         weights=[0.0])

    def test_configs_with_several_users_compare_and_hash(self):
        args = {"M": 2, "N": 4, "K": 2, "p_max": 1.0, "noise_power": 1.0}
        a, b = SystemConfig(**args), SystemConfig(**args, weights=[1, 1])
        c = SystemConfig(**args, weights=np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
        assert c.weights == (1.0, 2.0)
        assert all(type(w) is float for w in c.weights)
        assert c.weight_array.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            c.weight_array[0] = 0.0
        with pytest.raises(TypeError):
            SystemConfig(**args, weight_array=[1.0, 1.0])

    def test_side_index_follows_sides(self):
        cfg = SystemConfig(M=1, N=1, K=3, p_max=1, noise_power=1,
                           user_sides=(REFLECTION, TRANSMISSION, REFLECTION))
        assert cfg.side_index.tolist() == [1, 0, 1]
        with pytest.raises(TypeError):
            SystemConfig(M=1, N=1, K=1, p_max=1, noise_power=1, side_index=[1])
        with pytest.raises(ValueError):
            cfg.side_index[0] = 0

    def test_state_helpers(self):
        _, _, state = make_instance(33)
        n = state.beta_t.size
        assert np.array_equal(state.beta[:n], state.beta_t)
        assert np.array_equal(state.theta[n:], state.theta_r)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestBatchedKernels:
    """A (B, ...) stack through each rate kernel equals B single calls bit
    for bit, as the batched finite differences rely on."""

    @pytest.mark.parametrize("M, N", [(8, 16), (64, 100)], ids=["desk", "paper"])
    @pytest.mark.parametrize("K", [1, 9])
    def test_stack_equals_single_calls(self, M, N, K):
        B = 20
        cfg, ch, _ = make_instance(60 + K, M=M, N=N, K=K)
        r = np.random.default_rng(K)
        coef = r.uniform(0.3, 1.0, (B, 2 * N)) * np.exp(
            1j * r.uniform(0, 2 * np.pi, (B, 2 * N)))
        W = r.standard_normal((B, M, K)) + 1j * r.standard_normal((B, M, K))
        rows = effective_rows(cfg, ch, coef)
        U = rows @ W
        gammas, denom = received_sinrs(cfg, U)
        rates = wsr(cfg, gammas)
        assert rows.shape == (B, K, M) and gammas.shape == (B, K)
        assert rates.shape == (B,)
        for b in range(B):
            one_rows = effective_rows(cfg, ch, coef[b])
            assert _bits(rows[b]) == _bits(one_rows)
            assert _bits(U[b]) == _bits(one_rows @ W[b])
            one_gammas, one_denom = received_sinrs(cfg, U[b])
            assert _bits(gammas[b]) == _bits(one_gammas)
            assert _bits(denom[b]) == _bits(one_denom)
            one_rate = wsr(cfg, gammas[b])
            assert isinstance(one_rate, float)
            assert _bits(rates[b]) == _bits(one_rate)

    def test_batched_wsr_checks_each_vector(self):
        cfg = SystemConfig(M=2, N=2, K=2, p_max=1.0, noise_power=1.0)
        with pytest.raises(ConfigurationError):
            wsr(cfg, np.ones((3, 4)))
        with pytest.raises(ValueError, match="non-negative"):
            wsr(cfg, np.array([[1.0, 2.0], [0.5, -1e-3]]))
