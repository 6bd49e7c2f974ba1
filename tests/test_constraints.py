import numpy as np
import pytest

from starbeam import (
    ConfigurationError,
    DegenerateInputError,
    coupling_residual,
    normalize_amplitudes,
    normalize_power,
    project_coupled_phases,
    wrap_phase,
)
from starbeam.constraints import sigmoid
from starbeam.training import REGULATOR_GAIN

TWO_PI = 2 * np.pi


def regulate(raw):
    """The loop's bounded phase increment."""
    return REGULATOR_GAIN * sigmoid(raw)


def advance(theta, delta):
    """The loop's phase update: add the increment, wrap into [0, 2*pi)."""
    return wrap_phase(theta + delta)


def dense_amplitude_normalization(bt, br):
    """Independent oracle: the full 2N x 2N matrix form with the block-swap
    matrix, evaluated through an eigendecomposition inverse square root."""
    n = len(bt)
    A = np.diag(np.concatenate([bt, br]))
    swap = np.block([
        [np.zeros((n, n)), np.eye(n)],
        [np.eye(n), np.zeros((n, n))],
    ])
    A_bar = swap.T @ A @ swap
    S = A.T @ A + A_bar.T @ A_bar
    vals, vecs = np.linalg.eigh(S)
    S_inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    out = S_inv_sqrt @ A
    return np.diag(out)[:n], np.diag(out)[n:]


class TestNormalizePower:
    def test_scale_by_two(self):
        W = np.array([[1.0], [1.0]], complex)  # squared norm 2
        out = normalize_power(W, 8.0)
        assert np.allclose(out, 2 * W)

    def test_identity_when_already_normalized(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        W = normalize_power(W, 5.0)
        assert np.allclose(normalize_power(W, 5.0), W, rtol=1e-14)

    def test_trace_hits_target(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        out = normalize_power(W, 0.01)
        assert np.vdot(out, out).real == pytest.approx(0.01, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_power(np.zeros((2, 2), complex), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        W = np.ones((2, 2), complex)
        W[1, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            normalize_power(W, 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        once = normalize_power(W, 2.5)
        assert np.allclose(normalize_power(once, 2.5), once, rtol=1e-12)

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        out = normalize_power(W, 7.0)
        assert np.allclose(out / np.linalg.norm(out),
                           W / np.linalg.norm(W), rtol=1e-12)


class TestNormalizeAmplitudes:
    def test_three_four_five(self):
        bt, br = normalize_amplitudes(np.full(4, 3.0), np.full(4, 4.0))
        assert np.allclose(bt, 0.6)
        assert np.allclose(br, 0.8)

    def test_matches_dense_matrix_form(self):
        rng = np.random.default_rng(4)
        raw_t = rng.uniform(-2, 2, 6)
        raw_r = rng.uniform(0.5, 2, 6)
        bt, br = normalize_amplitudes(raw_t, raw_r)
        dt, dr = dense_amplitude_normalization(raw_t, raw_r)
        assert np.allclose(bt, dt, atol=1e-12)
        assert np.allclose(br, dr, atol=1e-12)

    def test_symmetric_pair(self):
        bt, br = normalize_amplitudes(np.array([1.0]), np.array([1.0]))
        assert bt[0] == pytest.approx(np.sqrt(2) / 2)
        assert br[0] == pytest.approx(np.sqrt(2) / 2)

    def test_axis_case(self):
        bt, br = normalize_amplitudes(np.array([0.0]), np.array([2.0]))
        assert (bt[0], br[0]) == (0.0, 1.0)

    def test_zero_pair_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_amplitudes(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bt, br", [
        ([np.inf, 1.0], [1.0, 1.0]), ([1.0, 0.5], [1.0, -np.inf]),
        ([1.0, np.nan], [1.0, np.nan]), ([np.nan, 1.0], [0.0, 1.0])])
    def test_non_finite_pair_rejected(self, bt, br):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            normalize_amplitudes(np.array(bt), np.array(br))

    def test_unit_circle_and_idempotence(self):
        rng = np.random.default_rng(5)
        bt, br = normalize_amplitudes(rng.uniform(-3, 3, 50) + 0.1,
                                      rng.uniform(0.2, 3, 50))
        assert np.max(np.abs(bt**2 + br**2 - 1)) < 1e-12
        bt2, br2 = normalize_amplitudes(bt, br)
        assert np.allclose(bt2, bt, atol=1e-12)
        assert np.allclose(br2, br, atol=1e-12)

    def test_ratio_and_signs_preserved(self):
        raw_t = np.array([-3.0, 1.0])
        raw_r = np.array([4.0, 2.0])
        bt, br = normalize_amplitudes(raw_t, raw_r)
        assert np.allclose(bt / br, raw_t / raw_r)
        assert (np.sign(bt) == np.sign(raw_t)).all()


class TestRegulator:
    def test_midpoint(self):
        out = regulate(np.zeros(3))
        assert np.allclose(out, np.pi)

    def test_upper_limit_approached(self):
        out = regulate(np.array([40.0, 1e6, 1e300]))
        assert (out < TWO_PI).all()
        assert out[0] > TWO_PI - 1e-10

    def test_sigmoid_ln3(self):
        out = regulate(np.array([np.log(3.0)]))
        assert out[0] == pytest.approx(1.5 * np.pi)

    def test_strictly_increasing(self):
        x = np.linspace(-30, 30, 301)
        out = regulate(x)
        assert (np.diff(out) > 0).all()

    def test_open_interval_for_extreme_inputs(self):
        out = regulate(np.array([-1e300, 1e300]))
        assert 0 < out[0] and out[1] < TWO_PI

    def test_sigmoid_bitwise_equals_clipped_expression(self):
        """sigmoid equals the textbook stable form clipped with np.clip,
        bit for bit, on signed zeros, infinities, NaN, saturating and
        ordinary inputs."""
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                      36.7, -36.7, 745.2, -745.2, 1e-300, -1e-300, 0.3, -2.5])
        z = np.exp(-np.abs(x))
        expected = np.clip(
            np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)),
            np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        out = sigmoid(x)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestApplyPhaseDelta:
    def test_wraparound(self):
        out = advance(np.array([1.5 * np.pi]), np.array([np.pi]))
        assert out[0] == pytest.approx(np.pi / 2)

    def test_plain_shift(self):
        out = advance(np.array([0.0]), np.array([np.pi]))
        assert out[0] == pytest.approx(np.pi)

    def test_complex_exponential_consistency(self):
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, TWO_PI, 100)
        delta = rng.uniform(1e-6, TWO_PI - 1e-6, 100)
        out = advance(theta, delta)
        assert (out >= 0).all() and (out < TWO_PI).all()
        assert np.max(np.abs(np.exp(1j * out)
                             - np.exp(1j * theta) * np.exp(1j * delta))) < 1e-12

    def test_wrap_phase_handles_negatives(self):
        out = wrap_phase(np.array([-0.5, 7.0, -1e-18]))
        assert (out >= 0).all() and (out < TWO_PI).all()


class TestCoupledProjection:
    def test_already_feasible(self):
        aux = project_coupled_phases(np.array([np.pi / 2]), np.array([0.0]))
        assert aux.theta_t_aux[0] == pytest.approx(np.pi / 2)
        assert aux.theta_r_aux[0] == pytest.approx(0.0)

    def test_origin_tie_break(self):
        aux = project_coupled_phases(np.array([0.0]), np.array([0.0]))
        assert aux.theta_t_aux[0] == pytest.approx(np.pi / 4)
        assert aux.theta_r_aux[0] == pytest.approx(-np.pi / 4)

    def test_pi_pi_tie_break(self):
        aux = project_coupled_phases(np.array([np.pi]), np.array([np.pi]))
        assert aux.theta_t_aux[0] == pytest.approx(5 * np.pi / 4)
        assert aux.theta_r_aux[0] == pytest.approx(3 * np.pi / 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["theta_t", "theta_r"])
    def test_non_finite_phase_rejected_naming_its_side(self, side, bad):
        phases = {"theta_t": np.array([0.5, 1.0]), "theta_r": np.array([0.0, 2.0])}
        phases[side][1] = bad
        with pytest.raises(ConfigurationError, match=f"^{side} must hold only finite"):
            project_coupled_phases(**phases)

class TestCouplingResidual:
    def test_quarter_turn_difference(self):
        assert coupling_residual(np.array([np.pi / 2]), np.array([0.0]))[0] \
            == pytest.approx(0.0, abs=1e-15)

    def test_zero_difference(self):
        assert coupling_residual(np.array([1.0]), np.array([1.0]))[0] == 1.0

    def test_sixty_degrees(self):
        assert coupling_residual(np.array([np.pi / 3]), np.array([0.0]))[0] \
            == pytest.approx(0.5)
