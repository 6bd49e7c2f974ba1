import dataclasses
import warnings

import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ChannelSet,
    ConfigurationError,
    SystemConfig,
    all_sinrs,
    default_scenario,
    desk_scenario,
    evaluate_wsr,
    finite_diff_gradient,
    generate_channels,
    normalize_power,
    sinr,
    sinr_augmented,
    wsr_finite_diff,
    wsr_gradients,
)
from starbeam.experiments import (
    GRAD_CHECK_SEED_BASE,
    GRAD_CHECK_STEP,
    grad_check_command,
    gradient_errors,
    random_gradient_instance,
)
from starbeam.training import initial_state
from starbeam.gradients import state_from_vector, state_to_vector
from starbeam.model import REFLECTION, TRANSMISSION

from conftest import edge_cases, make_edge_instance, make_instance


class TestPrecoderGradient:
    def test_zero_channel_gives_zero_gradient(self):
        cfg, _, state = make_instance(0)
        ch = ChannelSet(np.zeros((cfg.N, cfg.M)), np.zeros((cfg.K, cfg.N)))
        assert np.allclose(wsr_gradients(cfg, ch, state).grad_w, 0.0)

    def test_matches_central_differences_at_1e6(self):
        # One modest instance checked coordinate-wise at the library's
        # default step; the precoder coordinates are large enough that the
        # difference noise floor stays well under the tolerance.
        cfg, ch, state = make_instance(42, M=4, N=8, K=2)
        analytic = wsr_gradients(cfg, ch, state).grad_w
        fd = finite_diff_gradient(
            lambda st: evaluate_wsr(cfg, ch, st), state, step=1e-6
        ).grad_w
        rel = np.abs(analytic - fd) / np.abs(fd)
        assert rel.max() < 1e-6

    def test_linear_in_weights(self):
        cfg, ch, state = make_instance(8, K=1)
        doubled = SystemConfig(M=cfg.M, N=cfg.N, K=1, p_max=cfg.p_max,
                               noise_power=cfg.noise_power,
                               weights=2 * cfg.weight_array)
        assert np.allclose(wsr_gradients(doubled, ch, state).grad_w,
                           2 * wsr_gradients(cfg, ch, state).grad_w, rtol=1e-12)

    def test_directional_derivative_convention(self):
        cfg, ch, state = make_instance(9)
        g = wsr_gradients(cfg, ch, state).grad_w
        rng = np.random.default_rng(1)
        D = rng.standard_normal(state.W.shape) + 1j * rng.standard_normal(state.W.shape)
        eps = 1e-7
        up = evaluate_wsr(cfg, ch, BeamformingState(
            state.W + eps * D, state.beta_t, state.beta_r,
            state.theta_t, state.theta_r))
        dn = evaluate_wsr(cfg, ch, BeamformingState(
            state.W - eps * D, state.beta_t, state.beta_r,
            state.theta_t, state.theta_r))
        fd_dir = (up - dn) / (2 * eps)
        assert fd_dir == pytest.approx(2 * np.vdot(g, D).real, rel=1e-5)

    def test_ascent_improves_rate(self):
        cfg, ch, state = make_instance(10)
        tiny = BeamformingState(
            normalize_power(state.W, 1e-6), state.beta_t, state.beta_r,
            state.theta_t, state.theta_r)
        g = wsr_gradients(cfg, ch, tiny).grad_w
        stepped = BeamformingState(
            tiny.W + 1e-4 * g, tiny.beta_t, tiny.beta_r,
            tiny.theta_t, tiny.theta_r)
        assert evaluate_wsr(cfg, ch, stepped) > evaluate_wsr(cfg, ch, tiny)


class TestAmplitudeGradient:
    def test_reflection_only_users_decouple_t_half(self):
        cfg, ch, state = make_instance(11, K=2)
        cfg_r = SystemConfig(M=cfg.M, N=cfg.N, K=2, p_max=cfg.p_max,
                             noise_power=cfg.noise_power,
                             user_sides=(REFLECTION, REFLECTION))
        g = wsr_gradients(cfg_r, ch, state).grad_beta
        assert np.allclose(g[:cfg.N], 0.0)
        assert not np.allclose(g[cfg.N:], 0.0)

    def test_vanishes_with_huge_noise(self):
        cfg, ch, state = make_instance(12, noise=1e12)
        assert np.linalg.norm(wsr_gradients(cfg, ch, state).grad_beta) < 1e-9


class TestPhaseGradient:
    def test_dead_element_has_zero_phase_gradient(self):
        cfg, ch, state = make_instance(13)
        bt = state.beta_t.copy()
        bt[2] = 0.0
        dead = BeamformingState(state.W, bt, state.beta_r,
                                state.theta_t, state.theta_r)
        assert wsr_gradients(cfg, ch, dead).grad_theta[2] == 0.0

    def test_periodic_in_each_phase(self):
        cfg, ch, state = make_instance(14)
        tt = state.theta_t.copy()
        tt[1] += 2 * np.pi
        shifted = BeamformingState(state.W, state.beta_t, state.beta_r,
                                   tt, state.theta_r)
        assert np.allclose(wsr_gradients(cfg, ch, shifted).grad_theta,
                           wsr_gradients(cfg, ch, state).grad_theta, rtol=1e-9,
                           atol=1e-12)


class TestFiniteDifferenceOracle:
    def test_exact_on_quadratic(self):
        cfg, ch, state = make_instance(15)
        x0 = state_to_vector(state)
        coeffs = np.arange(1.0, x0.size + 1)

        def quadratic(st):
            x = state_to_vector(st)
            return float(coeffs @ (x - 0.5) ** 2)

        # central differences have zero truncation error on quadratics, so
        # a generous step leaves only negligible roundoff
        bundle = finite_diff_gradient(quadratic, state, step=1e-2)
        expected = 2 * coeffs * (x0 - 0.5)
        got = np.concatenate([
            2 * bundle.grad_w.real.ravel(), 2 * bundle.grad_w.imag.ravel(),
            bundle.grad_beta, bundle.grad_theta,
        ])
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_second_order_convergence(self):
        cfg, ch, state = make_instance(16, M=2, N=2, K=1)

        def smooth(st):
            x = state_to_vector(st)
            return float(np.sum(np.sin(x) ** 3))

        exact = 3 * np.sin(state_to_vector(state)) ** 2 \
            * np.cos(state_to_vector(state))

        def err(step):
            b = finite_diff_gradient(smooth, state, step=step)
            got = np.concatenate([
                2 * b.grad_w.real.ravel(), 2 * b.grad_w.imag.ravel(),
                b.grad_beta, b.grad_theta,
            ])
            return np.max(np.abs(got - exact))

        ratio = err(2e-3) / err(1e-3)
        assert 3.0 < ratio < 5.0

    def test_step_must_be_positive(self):
        cfg, ch, state = make_instance(17)
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda st: 0.0, state, step=0.0)

    def test_vector_round_trip(self):
        _, _, state = make_instance(18)
        vec = state_to_vector(state)
        back = state_from_vector(vec, state.W.shape[0], state.beta_t.size,
                                 state.W.shape[1])
        assert np.array_equal(back.W, state.W)
        assert np.array_equal(back.theta_r, state.theta_r)


T, R = TRANSMISSION, REFLECTION


class TestPerSideKernel:
    """Edge cases of the per-side kernel: every user's coefficient row is
    picked by its side, so users on one side only, interleaved sides and
    degenerate sizes must all agree with the per-user SINR expressions and
    with central differences."""

    @edge_cases
    def test_matches_direct_sinr_and_finite_differences(self, seed, dims, sides,
                                                        weights):
        cfg, ch, state = make_edge_instance(seed, dims, sides, weights)
        K, N = cfg.K, cfg.N
        gammas = all_sinrs(cfg, ch, state)
        for k in range(K):
            assert gammas[k] == pytest.approx(sinr(cfg, ch, state, k), rel=1e-12)
            assert gammas[k] == pytest.approx(sinr_augmented(cfg, ch, state, k),
                                              rel=1e-12)
        bundle = wsr_gradients(cfg, ch, state)
        assert bundle.rate == evaluate_wsr(cfg, ch, state)
        fd = finite_diff_gradient(lambda st: evaluate_wsr(cfg, ch, st), state,
                                  step=GRAD_CHECK_STEP)
        # block-wise relative error, absolute where the block vanishes (with
        # N = 1 each user's phase is a global phase, so grad_theta is zero)
        for block in ("grad_w", "grad_beta", "grad_theta"):
            a, f = getattr(bundle, block), getattr(fd, block)
            assert np.linalg.norm(a - f) <= 1e-6 * np.linalg.norm(f) + 1e-9, block
        # a half no user sees has exactly zero amplitude and phase gradients
        for side, half in ((T, slice(0, N)), (R, slice(N, 2 * N))):
            if side not in cfg.user_sides:
                assert not bundle.grad_beta[half].any()
                assert not bundle.grad_theta[half].any()


class TestBundleRate:
    def test_rate_is_evaluate_wsr_bitwise(self):
        for i in range(40):
            cfg, ch, state = random_gradient_instance(2000 + i)
            assert wsr_gradients(cfg, ch, state).rate == evaluate_wsr(cfg, ch, state)
        for seed in range(10):
            cfg, ch, state = make_instance(seed, M=6, N=10, K=3)
            assert wsr_gradients(cfg, ch, state).rate == evaluate_wsr(cfg, ch, state)

    def test_finite_difference_bundle_carries_objective(self):
        cfg, ch, state = make_instance(19, M=2, N=2, K=1)
        bundle = finite_diff_gradient(lambda st: evaluate_wsr(cfg, ch, st), state)
        assert bundle.rate == evaluate_wsr(cfg, ch, state)


class TestOracleSuite:
    def test_ten_instances_full_bundle(self):
        # Shortened version of the 50-instance acceptance battery.
        for i in range(10):
            cfg, ch, state = random_gradient_instance(1000 + i)
            analytic = wsr_gradients(cfg, ch, state)
            fd = finite_diff_gradient(
                lambda st: evaluate_wsr(cfg, ch, st), state,
                step=GRAD_CHECK_STEP,
            )
            rel, ab = gradient_errors(analytic, fd)
            assert rel < 1e-6, f"instance {i}: rel {rel:.2e}"
            assert ab < 1e-9, f"instance {i}: abs {ab:.2e}"

    def test_sign_flip_is_caught(self):
        # Mutation check: a corrupted analytic gradient must fail the
        # comparison that the genuine one passes.
        cfg, ch, state = random_gradient_instance(1000)
        analytic = wsr_gradients(cfg, ch, state)
        fd = finite_diff_gradient(
            lambda st: evaluate_wsr(cfg, ch, st), state, step=GRAD_CHECK_STEP
        )
        corrupted = dataclasses.replace(analytic, grad_w=-analytic.grad_w)
        rel_good, _ = gradient_errors(analytic, fd)
        rel_bad, _ = gradient_errors(corrupted, fd)
        assert rel_good < 1e-6 < rel_bad


class TestBatchedDifferences:
    """wsr_finite_diff is the per-state oracle on evaluate_wsr, bit for bit,
    and a gradient the analytic one agrees with."""

    @staticmethod
    def check(cfg, ch, state, step=GRAD_CHECK_STEP):
        batched = wsr_finite_diff(cfg, ch, state, step)
        oracle = finite_diff_gradient(lambda st: evaluate_wsr(cfg, ch, st), state,
                                      step=step)
        for name in ("grad_w", "grad_beta", "grad_theta", "rate"):
            a, b = getattr(batched, name), getattr(oracle, name)
            assert type(a) is type(b), name
            assert np.shape(a) == np.shape(b), name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        assert batched.rate == evaluate_wsr(cfg, ch, state)
        analytic = wsr_gradients(cfg, ch, state)
        for name in ("grad_w", "grad_beta", "grad_theta"):
            a, f = getattr(analytic, name), getattr(batched, name)
            assert np.linalg.norm(a - f) <= 1e-6 * np.linalg.norm(f) + 1e-9, name

    def test_grad_check_seeds(self):
        for i in range(250):
            self.check(*random_gradient_instance(GRAD_CHECK_SEED_BASE + i))

    @edge_cases
    def test_edge_cases(self, seed, dims, sides, weights):
        self.check(*make_edge_instance(seed, dims, sides, weights))

    @pytest.mark.parametrize("scenario", [desk_scenario, default_scenario],
                             ids=["desk", "paper"])
    def test_initial_state(self, scenario):
        cfg, ch_cfg = scenario()
        ch = generate_channels(cfg, ch_cfg, np.random.default_rng(0))
        W, beta, theta = initial_state(cfg, np.random.default_rng(1))
        n = cfg.N
        self.check(cfg, ch, BeamformingState(W, beta[:n], beta[n:],
                                             theta[:n], theta[n:]))

    @pytest.mark.parametrize("side", [TRANSMISSION, REFLECTION])
    def test_one_antenna_element_and_user(self, side):
        for seed in range(60, 70):
            self.check(*make_instance(seed, M=1, N=1, K=1, user_sides=(side,)))

    @pytest.mark.parametrize(
        "step", [np.inf, -np.inf, np.nan, -1e-4, True, np.True_, "1e-4", None, 1e-4j],
        ids=["inf", "-inf", "nan", "negative", "bool", "numpy_bool", "str", "None",
             "complex"])
    def test_step_must_be_a_finite_positive_real(self, step):
        cfg, ch, state = make_instance(21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step must be positive"):
                wsr_finite_diff(cfg, ch, state, step)
            with pytest.raises(ValueError, match="step must be positive"):
                finite_diff_gradient(lambda st: evaluate_wsr(cfg, ch, st), state, step)

    def test_rejects_bad_step_and_dimensions(self):
        cfg, ch, state = make_instance(20)
        with pytest.raises(ValueError, match="step must be positive"):
            wsr_finite_diff(cfg, ch, state, 0.0)
        other, _, _ = make_instance(20, M=5)
        with pytest.raises(ConfigurationError, match="do not match"):
            wsr_finite_diff(other, ch, state, GRAD_CHECK_STEP)

    def test_grad_check_reports_the_oracle_errors(self):
        for i in range(20):
            seed = GRAD_CHECK_SEED_BASE + i
            cfg, ch, state = random_gradient_instance(seed)
            oracle = finite_diff_gradient(lambda st: evaluate_wsr(cfg, ch, st), state,
                                          step=GRAD_CHECK_STEP)
            rel, small_abs = gradient_errors(wsr_gradients(cfg, ch, state), oracle)
            report = grad_check_command(1, seed, verbose=False)
            assert (report.n_instances, report.max_rel_err,
                    report.max_abs_err_small) == (1, rel, small_abs)

    def test_grad_check_rejects_negative_seed_base(self):
        with pytest.raises(ConfigurationError, match="seed_base"):
            grad_check_command(1, -1, verbose=False)
