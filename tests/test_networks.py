import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from starbeam import (
    ConfigurationError,
    DegenerateInputError,
    Mlp,
    adam_init,
    adam_step,
    default_scenario,
    init_mlp,
    init_networks,
)
from starbeam.gradients import precoder_pullback, received_field
from starbeam.model import effective_rows
from starbeam.networks import (
    NET_DTYPE,
    AdamState,
    mlp_backward,
)
from starbeam.training import _precoder_block

from conftest import RecordingMlp, float64_copy, make_instance

PARAM_NAMES = ("w1", "b1", "w2", "b2")  # the order of Mlp.split and Mlp.flat


def forward(net, x):
    return net.forward_with_cache(x)[0]


def precoder_step(net, seed, K, perm=None):
    """One step of the precoder block on a unit-scale instance, its users
    reordered by perm. Returns the rows fed to the network, the complex
    gradient they pack, the start precoder, the config and the refined
    precoder."""
    cfg, ch, state = make_instance(seed, M=net.input_dim, K=K)
    rows = effective_rows(cfg, ch, state.beta * np.exp(1j * state.theta))
    W0 = state.W
    if perm is not None:
        rows, W0 = rows[perm], W0[:, perm]
    pn = RecordingMlp(net)
    W, _ = _precoder_block(pn, W0, rows, cfg)
    grad = precoder_pullback(received_field(cfg, rows, W0))
    return pn.inputs[0], grad, W0, cfg, W


def packed(g):
    """The rows the precoder block feeds its network for the gradient g."""
    return np.vstack([g.real.T, g.imag.T])


def one_pass_reference(net, cache, grad_out):
    """The gradient of one pass written term by term: a matmul over a
    batch's rows, a broadcast multiply for a single row."""
    x2, pre, hidden = cache
    g2 = np.asarray(grad_out, net.flat.dtype).reshape(-1, net.output_dim)
    grad_hidden = (g2 @ net.w2) * (pre > 0.0)
    outer = np.multiply if len(g2) == 1 else np.matmul
    grad = np.empty_like(net.flat)
    g_w1, g_b1, g_w2, g_b2 = net.split(grad)
    outer(grad_hidden.T, x2, out=g_w1)
    grad_hidden.sum(axis=0, out=g_b1)
    outer(g2.T, hidden, out=g_w2)
    g2.sum(axis=0, out=g_b2)
    return grad


def zero_mlp(din, hidden, dout):
    return Mlp(np.zeros((hidden, din)), np.zeros(hidden),
               np.zeros((dout, hidden)), np.zeros(dout))


class TestMlp:
    def test_init_shapes_and_ranges(self):
        rng = np.random.default_rng(0)
        net = init_mlp(6, 20, 6, rng)
        assert (net.input_dim, net.hidden_dim, net.output_dim) == (6, 20, 6)
        assert np.all(np.abs(net.w1) <= 1 / np.sqrt(6))
        assert np.all(np.abs(net.w2) <= 1 / np.sqrt(20))
        assert np.all(net.b1 == 0) and np.all(net.b2 == 0)

    @pytest.mark.parametrize("arg", [0, 1, 2])
    @pytest.mark.parametrize("value", [2.5, 0, True, "4", np.float64(4.0)])
    def test_bad_dimension_named(self, arg, value):
        dims = [4, 6, 3]
        dims[arg] = value
        name = ("input_dim", "hidden_dim", "output_dim")[arg]
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=name):
            init_mlp(*dims, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_zero_network_is_zero(self):
        net = zero_mlp(4, 8, 4)
        assert np.allclose(forward(net, np.ones((1, 4))), 0.0)

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(1)
        net = init_mlp(5, 7, 5, rng)
        x = rng.standard_normal((3, 5))
        batch = forward(net, x)
        assert np.allclose(batch[1], forward(net, x[1:2])[0])

    def test_backward_matches_finite_differences(self):
        """Every coordinate of the parameter gradient of a pass of one, two
        and three rows matches central differences of the loss."""
        rng = np.random.default_rng(2)
        net = float64_copy(init_mlp(4, 6, 3, rng))
        eps = 1e-6
        for rows in (1, 2, 3):
            x = rng.standard_normal((rows, 4))
            gy = rng.standard_normal((rows, 3))
            grads = mlp_backward(net, net.forward_with_cache(x)[1], gy)
            for i in range(net.flat.size):
                vals = []
                for sign in (1, -1):
                    pert = net.flat.copy()
                    pert[i] += sign * eps
                    vals.append(float((gy * forward(Mlp(*net.split(pert)), x)).sum()))
                fd = (vals[0] - vals[1]) / (2 * eps)
                assert fd == pytest.approx(grads[i], rel=1e-5, abs=1e-9), (rows, i)

    @pytest.mark.parametrize("din, hidden, batch", [
        (64, 200, 8),     # a paper-scale precoder network's batch
        (200, 300, None),  # a paper-scale AN's single rows
    ])
    def test_backward_is_the_term_by_term_gradient_bitwise(self, din, hidden, batch):
        """A pass gives the term-by-term gradient, bitwise for a batch and
        up to the sign of zero for a single row (an outer product forms
        0 + a*b)."""
        rng = np.random.default_rng(14)
        net = init_mlp(din, hidden, din, rng)
        shape = (1 if batch is None else batch, din)
        cache = net.forward_with_cache(rng.standard_normal(shape))[1]
        gy = rng.standard_normal(shape)
        grad = mlp_backward(net, cache, gy)
        reference = one_pass_reference(net, cache, gy)
        if batch is None:
            grad, reference = grad + 0.0, reference + 0.0  # -0.0 -> 0.0
        assert grad.tobytes() == reference.tobytes()

    def test_single_row_backward_allocates_only_its_gradient(self):
        rng = np.random.default_rng(15)
        net = init_mlp(200, 300, 200, rng)  # a paper-scale AN or TN
        one_pass = (net.forward_with_cache(rng.standard_normal((1, 200)))[1],
                    rng.standard_normal((1, 200)))
        mlp_backward(net, *one_pass)  # warm-up
        tracemalloc.start()
        try:
            grad = mlp_backward(net, *one_pass)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - grad.nbytes < 8 * 1024

    @pytest.mark.parametrize("build", ["init_mlp", "init_networks"])
    def test_init_allocates_at_most_one_draw_block(self, build):
        """The weights are drawn in float64 blocks of at most 8192 values
        straight into flat, so building a paper-scale AN or TN, or all three
        paper-scale networks, peaks at the parameters plus one block."""
        rng, cfg = np.random.default_rng(15), default_scenario()[0]
        tracemalloc.start()
        try:
            if build == "init_mlp":
                nets = [init_mlp(200, 300, 200, rng)]
            else:
                subnets = init_networks(cfg, rng)
                nets = [subnets.pn, subnets.an, subnets.tn]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(net.flat.nbytes for net in nets) < 64 * 1024 + 8 * 1024

    def test_init_networks_are_float32_from_the_float64_stream(self):
        """init_mlp draws its weights in float64, as before, and rounds
        them, so the generator is left where a float64 network leaves it
        and the start state that follows is the same."""
        cfg, _ = default_scenario()
        rng, ref = np.random.default_rng(16), np.random.default_rng(16)
        nets = init_networks(cfg, rng)
        for net in (nets.pn, nets.an, nets.tn):
            s1, s2 = 1 / np.sqrt(net.input_dim), 1 / np.sqrt(net.hidden_dim)
            w1 = ref.uniform(-s1, s1, size=net.w1.shape)
            w2 = ref.uniform(-s2, s2, size=net.w2.shape)
            assert net.flat.dtype == NET_DTYPE == np.float32
            assert np.array_equal(net.w1, w1.astype(np.float32))
            assert np.array_equal(net.w2, w2.astype(np.float32))
            assert not net.b1.any() and not net.b2.any()
            state = adam_init(net.flat)
            for arr in (state.first_moment, state.second_moment):
                assert arr.dtype == np.float32
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dims", [
        (200, 300, 200),  # w1 and w2 split into blocks unevenly
        (9000, 3, 2),     # a row of w1 wider than a block
        (1, 1, 1),
    ])
    def test_init_mlp_blocks_draw_the_whole_matrix_stream(self, dims):
        """Drawing by blocks gives, bit for bit, the weights and the
        generator state of whole-matrix float64 draws rounded to float32."""
        rng, ref = np.random.default_rng(18), np.random.default_rng(18)
        net = init_mlp(*dims, rng)
        din, hidden, dout = dims
        for weights, shape, fan_in in ((net.w1, (hidden, din), din),
                                       (net.w2, (dout, hidden), hidden)):
            s = 1 / np.sqrt(fan_in)
            expected = ref.uniform(-s, s, size=shape).astype(np.float32)
            assert weights.dtype == np.float32
            assert weights.tobytes() == expected.tobytes()
        assert not net.b1.any() and not net.b2.any()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_network_keeps_the_dtype_of_its_arrays(self, dtype):
        rng = np.random.default_rng(17)
        arrays = [rng.standard_normal(shape).astype(dtype)
                  for shape in ((6, 4), 6, (4, 6), 4)]
        net = Mlp(*arrays)
        assert net.flat.dtype == dtype
        y, cache = net.forward_with_cache(rng.standard_normal((1, 4)))
        assert y.dtype == dtype and all(a.dtype == dtype for a in cache[:3])
        grad = mlp_backward(net, cache, rng.standard_normal((1, 4)))
        assert grad.dtype == dtype
        assert precoder_step(net, 17, K=2)[-1].dtype == np.complex128

    def test_parameters_are_views_of_flat(self):
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((6, 4))
        net = Mlp(w1, np.zeros(6), rng.standard_normal((3, 6)), np.ones(3))
        assert net.flat.size == 6 * 4 + 6 + 3 * 6 + 3
        assert not np.shares_memory(net.w1, w1)  # inputs are copied
        for key in PARAM_NAMES:
            assert np.shares_memory(getattr(net, key), net.flat)
        before = forward(net, np.ones((1, 4)))
        net.flat[-3:] += 1.0  # b2
        assert np.allclose(forward(net, np.ones((1, 4))), before + 1.0)


class TestPnForward:
    """The precoder block feeds the complex (M, K) gradient g to the
    network as the 2K real rows [g.real.T; g.imag.T] and recombines the
    output column by column into a complex precoder update."""

    def test_zero_parameters(self):
        x, g, W0, _, W = precoder_step(zero_mlp(4, 10, 4), 3, K=3)
        assert x.tobytes() == packed(g).tobytes()
        assert np.allclose(W, W0, rtol=1e-14)

    def test_recombination_single_user(self):
        rng = np.random.default_rng(3)
        net = init_mlp(5, 9, 5, rng)
        x, g, W0, cfg, W = precoder_step(net, 3, K=1)
        assert x.shape == (2, 5)
        assert x.tobytes() == packed(g).tobytes()
        real, imag = forward(net, x).astype(np.float64)  # one row each
        w_raw = W0[:, 0] + real + 1j * imag
        expected = np.sqrt(cfg.p_max / np.vdot(w_raw, w_raw).real) * w_raw
        assert np.allclose(W[:, 0], expected, rtol=1e-14)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        net = init_mlp(4, 11, 4, rng)
        perm = [2, 0, 1]
        x, g, _, _, W = precoder_step(net, 4, K=3)
        x_perm, g_perm, _, _, W_perm = precoder_step(net, 4, K=3, perm=perm)
        assert x_perm.tobytes() == packed(g_perm).tobytes()
        assert np.allclose(g_perm, g[:, perm], rtol=1e-12)
        assert np.allclose(W_perm, W[:, perm], rtol=1e-12)


class TestVectorForwards:
    """The amplitude and phase networks take their 2N-vector as one row."""

    def test_zero_parameters(self):
        net = zero_mlp(8, 12, 8)
        assert np.allclose(net.forward_with_cache(np.ones((1, 8)))[0], 0.0)

    def test_all_negative_preactivations_give_bias(self):
        hidden, dim = 6, 4
        w1 = -np.ones((hidden, dim))
        b1 = -np.ones(hidden)
        w2 = np.arange(dim * hidden, dtype=float).reshape(dim, hidden)
        b2 = np.array([1.0, -2.0, 3.0, 4.0])
        net = Mlp(w1, b1, w2, b2)
        out = forward(net, np.ones((1, dim)))  # preactivations all -5
        assert np.allclose(out, b2)

    def test_zero_input_gives_bias_only(self):
        rng = np.random.default_rng(5)
        net = init_mlp(6, 9, 6, rng)
        assert np.allclose(forward(net, np.zeros((1, 6))), net.b2)

    def test_length_mismatch(self):
        """A wrong width, or any input that is not a (rows, in) matrix, a
        single vector of the right length included."""
        net = zero_mlp(8, 12, 8)
        for bad in (np.ones(7), np.ones((3, 7)), np.ones((1, 2, 8)), np.ones(8)):
            with pytest.raises(ConfigurationError, match="input dimension 8"):
                net.forward_with_cache(bad)


class TestAdam:
    def setup_method(self):
        self.start = np.array([1.0, -2.0, 3.0])
        self.params = self.start.copy()
        self.state = adam_init(self.params)

    def test_zero_gradient_leaves_params(self):
        adam_step(self.params, np.zeros(3), self.state, lr=0.1)
        assert np.array_equal(self.params, self.start)
        assert self.state.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        grads = np.array([0.37, -12.0, 1e-3])
        adam_step(self.params, grads.copy(), self.state, lr=0.05)
        step = np.abs(self.params - self.start)
        assert np.allclose(step, 0.05, rtol=1e-4)
        assert (np.sign(self.start - self.params) == np.sign(grads)).all()

    def test_deterministic(self):
        grads = np.array([0.5, 0.5, 2.0])
        runs = []
        for _ in range(2):
            params = self.start.copy()
            state = adam_init(params)
            for _ in range(3):
                adam_step(params, grads.copy(), state, lr=0.01)
            runs.append((params, state))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1].second_moment, runs[1][1].second_moment)

    def test_nonfinite_gradient_rejected(self):
        adam_step(self.params, np.array([0.1, -0.2, 0.3]), self.state, lr=0.1)
        params = self.params.copy()
        m = self.state.first_moment.copy()
        v = self.state.second_moment.copy()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateInputError, match="non-finite gradient"):
                adam_step(self.params, np.array([0.0, bad, 1.0]), self.state, lr=0.1)
            assert self.state.step_count == 1
            assert np.array_equal(self.params, params)
            assert np.array_equal(self.state.first_moment, m)
            assert np.array_equal(self.state.second_moment, v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_whose_square_overflows_rejected(self, dtype):
        """An entry above sqrt(finfo(dtype).max) would make the second
        moment inf and freeze its parameter; it is rejected, in either
        sign and at any index, before anything changes. Two entries of the
        largest magnitude not above that bound are accepted, though the
        sum of their squares overflows, and leave the moments finite."""
        size = 69
        limit = np.sqrt(np.finfo(dtype).max, dtype=np.float64)
        top = dtype(limit)
        if top > limit:
            top = np.nextafter(top, dtype(0))
        above = np.nextafter(top, dtype(np.inf))
        params = np.linspace(-1, 1, size).astype(dtype)
        state = adam_init(params)
        adam_step(params, np.full(size, 0.5, dtype), state, lr=0.1)
        kept = (params.copy(), state.first_moment.copy(),
                state.second_moment.copy())
        huge = dtype(2e19 if dtype == np.float32 else 1e155)
        for index, bad in ((3, above), (size - 2, -above), (size // 2, huge)):
            grads = np.full(size, 0.25, dtype)
            grads[index] = bad
            with pytest.raises(ValueError, match="overflows"):
                adam_step(params, grads, state, lr=0.1)
            assert state.step_count == 1
            for now, before in zip((params, state.first_moment,
                                    state.second_moment), kept):
                assert now.tobytes() == before.tobytes()
        grads = np.full(size, 0.25, dtype)
        grads[[3, size - 2]] = top, -top
        adam_step(params, grads, state, lr=0.1)
        assert state.step_count == 2
        assert np.isfinite(state.second_moment).all()
        assert np.isfinite(params).all()

    def test_bounded_step_over_many_updates(self):
        rng = np.random.default_rng(6)
        params = rng.standard_normal(20)
        state = adam_init(params)
        lr = 0.01
        for _ in range(50):
            grads = rng.standard_normal(20) * 10.0 ** float(rng.integers(-3, 4))
            old = params.copy()
            adam_step(params, grads, state, lr)
            assert np.max(np.abs(params - old)) <= lr * (1 + 1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            adam_step(self.params, np.zeros(2), self.state, lr=0.1)

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 4099])
    def test_step_matches_reordered_adam_bitwise(self, size):
        """An empty vector, one entry, sizes around a multiple of the SIMD
        width and a long vector with a ragged tail, in the networks'
        float32: params and both moments equal the reordered expression
        form bit for bit, with gradients holding signed zeros and
        magnitudes from 1e-4 to 1e2."""
        rng = np.random.default_rng(size)
        params = rng.standard_normal(size).astype(NET_DTYPE)
        ref = {"x": params.copy()}
        ref_state = _reference_adam_init(ref)
        state = adam_init(params)
        for grads in _adam_test_gradients(rng, size):
            ref, ref_state = _reordered_adam_step(ref, {"x": grads}, ref_state, 5e-3)
            adam_step(params, grads, state, 5e-3)
            assert ref["x"].dtype == NET_DTYPE
            assert params.tobytes() == ref["x"].tobytes()
        assert state.first_moment.tobytes() == ref_state[0]["x"].tobytes()
        assert state.second_moment.tobytes() == ref_state[1]["x"].tobytes()
        assert state.step_count == ref_state[2] == 5

    def test_gradient_is_consumed_so_it_must_be_its_own_writeable_array(self):
        """AdamState holds only the two moments and the step count: the
        step overwrites the gradient as its scratch. So a read-only
        gradient, and one that shares memory with params or a moment, are
        rejected naming grads, and params and state stay bitwise as they
        were."""
        assert [f.name for f in dataclasses.fields(AdamState)] == [
            "first_moment", "second_moment", "step_count"]
        rng = np.random.default_rng(12)
        params = rng.standard_normal(40).astype(NET_DTYPE)
        state = adam_init(params)
        grads = rng.standard_normal(40).astype(NET_DTYPE)
        kept_grads = grads.copy()
        adam_step(params, grads, state, 1e-3)
        assert grads.tobytes() != kept_grads.tobytes()
        read_only = rng.standard_normal(40).astype(NET_DTYPE)
        read_only.flags.writeable = False
        kept = [a.tobytes() for a in (params, state.first_moment,
                                      state.second_moment, read_only)]
        for bad in (read_only, params, state.first_moment[::-1],
                    state.second_moment):
            with pytest.raises(ConfigurationError, match="grads"):
                adam_step(params, bad, state, 1e-3)
            assert state.step_count == 1
            assert [a.tobytes() for a in (params, state.first_moment,
                                          state.second_moment, read_only)] == kept

    def test_step_allocates_no_full_size_scratch(self):
        """The step, its checks included, allocates nothing that grows with
        the parameter count: a few scalars, under 4 KB, in either dtype."""
        size = 120_500  # a paper-scale amplitude or phase network
        rng = np.random.default_rng(13)
        for dtype in (np.float32, np.float64):
            params = rng.standard_normal(size).astype(dtype)
            grads = rng.standard_normal(size).astype(dtype)
            state = adam_init(params)
            tracemalloc.start()
            try:
                adam_step(params, grads, state, 1e-3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4096, dtype

    @pytest.mark.parametrize("lr", [np.inf, np.nan, True, 0.0, -1e-3])
    def test_bad_learning_rate_rejected_before_any_change(self, lr):
        adam_step(self.params, np.array([0.1, -0.2, 0.3]), self.state, lr=0.1)
        params = self.params.copy()
        m = self.state.first_moment.copy()
        with pytest.raises(ConfigurationError,
                           match="^lr must be a finite real > 0; got "):
            adam_step(self.params, np.array([0.1, 0.2, 0.3]), self.state, lr=lr)
        assert self.state.step_count == 1
        assert np.array_equal(self.params, params)
        assert np.array_equal(self.state.first_moment, m)

    @pytest.mark.parametrize("params", [
        np.zeros((2, 3)), np.zeros(6, dtype=np.float32), np.zeros(6, dtype=int),
        np.zeros(()), [0.0] * 6,
    ])
    def test_non_flat_float_params_rejected(self, params):
        state = adam_init(np.zeros(6))
        with pytest.raises(ConfigurationError, match="params"):
            adam_step(params, np.zeros(np.shape(params)), state, lr=0.1)
        assert state.step_count == 0

    def test_operands_of_another_dtype_rejected(self):
        """params, grads and the state share one float dtype: float64
        params against a float32 state, or float64 gradients for float32
        params, are rejected before anything changes."""
        params = np.ones(6, dtype=np.float32)
        state = adam_init(params)
        with pytest.raises(ConfigurationError, match="params"):
            adam_step(np.ones(6), np.zeros(6), state, lr=0.1)
        with pytest.raises(ConfigurationError, match="gradient dtype"):
            adam_step(params, np.ones(6), state, lr=0.1)
        assert state.step_count == 0
        assert np.array_equal(params, np.ones(6))

    def test_matches_reference_dict_adam_bitwise(self):
        cfg, _ = default_scenario()
        nets = init_networks(cfg, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        for net in (nets.pn, nets.an, nets.tn):
            ref = {k: getattr(net, k).copy() for k in PARAM_NAMES}
            ref_state = _reference_adam_init(ref)
            state = adam_init(net.flat)
            for _ in range(50):
                grads = {k: (rng.standard_normal(v.shape)
                             * 10.0 ** rng.uniform(-4, 2)).astype(NET_DTYPE)
                         for k, v in ref.items()}
                flat_grads = np.concatenate([grads[k].ravel() for k in PARAM_NAMES])
                ref, ref_state = _reordered_adam_step(ref, grads, ref_state, 5e-3)
                adam_step(net.flat, flat_grads, state, 5e-3)
                for key in PARAM_NAMES:
                    assert np.array_equal(getattr(net, key), ref[key])
            for flat, dicts in ((state.first_moment, ref_state[0]),
                                (state.second_moment, ref_state[1])):
                assert np.array_equal(
                    flat, np.concatenate([dicts[k].ravel() for k in PARAM_NAMES]))
            assert state.step_count == ref_state[2] == 50

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 4099])
    def test_departs_from_textbook_adam_by_a_few_ulps(self, size):
        """On the gradients of the bitwise test, the reordered step stays
        within 16 float32 ULPs of the textbook form (at most 5 for the
        params and 7 for the first moment measured). Each ULP is that of
        the scale that sets the value's rounding: for a parameter, the
        largest magnitude it has held, or the rate if larger; for the first
        moment, compared as m' * (1 - beta1) against m, the decayed sum of
        |g|. v is the same expression in both, bit for bit."""
        rng = np.random.default_rng(size)
        params = rng.standard_normal(size).astype(NET_DTYPE)
        ref = {"x": params.copy()}
        ref_state = _reference_adam_init(ref)
        state = adam_init(params)
        p_scale = np.maximum(np.abs(params), NET_DTYPE(5e-3))
        m_scale = np.zeros(size, NET_DTYPE)
        for grads in _adam_test_gradients(rng, size):
            ref, ref_state = _reference_adam_step(ref, {"x": grads}, ref_state, 5e-3)
            adam_step(params, grads.copy(), state, 5e-3)
            p_scale = np.maximum(p_scale, np.abs(ref["x"]))
            m_scale = 0.9 * m_scale + 0.1 * np.abs(grads)
            m = state.first_moment * (1.0 - 0.9)
            for got, want, scale in ((params, ref["x"], p_scale),
                                     (m, ref_state[0]["x"], m_scale)):
                gap = np.abs(got.astype(np.float64) - want)
                ulp = np.spacing(np.maximum(scale, np.finfo(NET_DTYPE).tiny))
                assert (gap <= 16 * ulp).all()
            assert state.second_moment.tobytes() == ref_state[1]["x"].tobytes()


def _adam_test_gradients(rng, size, steps=5):
    """float32 gradients with signed zeros and magnitudes from 1e-4 to 1e2."""
    for _ in range(steps):
        grads = rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 2, size)
        grads = grads.astype(NET_DTYPE)
        grads[rng.random(size) < 0.1] = 0.0
        grads[rng.random(size) < 0.1] = -0.0
        yield grads


# Two dict-of-arrays Adams: the textbook expression form, and the reordered
# one (Kingma & Ba, arXiv 1412.6980, section 2) whose first moment is
# m' = m / (1 - beta1). adam_step must reproduce the reordered form bit for
# bit and stay within a few ULPs of the textbook one.
def _reference_adam_init(params):
    return ({k: np.zeros_like(v) for k, v in params.items()},
            {k: np.zeros_like(v) for k, v in params.items()}, 0)


def _reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999,
                         epsilon=1e-8):
    first, second, t = state
    t += 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_params, m_new, v_new = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        m = beta1 * first[key] + (1.0 - beta1) * g
        v = beta2 * second[key] + (1.0 - beta2) * g**2
        m_new[key] = m
        v_new[key] = v
        new_params[key] = p - lr * (m / c1) / (np.sqrt(v / c2) + epsilon)
    return new_params, (m_new, v_new, t)


def _reordered_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999,
                         epsilon=1e-8):
    first, second, t = state
    t += 1
    c1 = 1.0 - beta1**t
    root_c2 = math.sqrt(1.0 - beta2**t)
    rate = lr * (1.0 - beta1) * root_c2 / c1
    eps = epsilon * root_c2
    new_params, m_new, v_new = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        m = beta1 * first[key] + g
        v = beta2 * second[key] + (1.0 - beta2) * g**2
        m_new[key] = m
        v_new[key] = v
        new_params[key] = p - rate * (m / (np.sqrt(v) + eps))
    return new_params, (m_new, v_new, t)
