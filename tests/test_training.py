import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ConfigurationError,
    DegenerateInputError,
    SubNetworks,
    TrainConfig,
    default_scenario,
    evaluate_wsr,
    generate_channels,
    desk_scenario,
    finite_diff_gradient,
    init_networks,
    paper_train,
    rho_at,
    run_gml,
    wsr_gradients,
)
from starbeam import training
from starbeam.constraints import (
    COUPLING_TOL,
    coupling_residual,
    project_coupled_phases,
    wrap_phase,
)
from starbeam.gradients import received_field, surface_bracket
from starbeam.model import effective_rows, wsr
from starbeam.networks import Mlp
from starbeam.training import (
    AN_HIDDEN,
    PN_HIDDEN,
    TN_HIDDEN,
    _amplitude_block,
    _amplitude_block_backward,
    _phase_block,
    _phase_block_backward,
    _precoder_block,
    _precoder_block_backward,
    initial_state,
    run_meta_loop,
)
from starbeam.networks import mlp_backward

from conftest import (
    RecordingMlp,
    edge_cases,
    float64_copy,
    make_edge_instance,
    make_instance,
)


def make_state(W, beta, theta):
    """The state of a precoder and (t half, r half) surface vectors."""
    n = beta.size // 2
    return BeamformingState(W, beta[:n], beta[n:], theta[:n], theta[n:])


def zero_nets(cfg):
    def z(din, hidden):
        return Mlp(np.zeros((hidden, din)), np.zeros(hidden),
                   np.zeros((din, hidden)), np.zeros(din))

    return SubNetworks(z(cfg.M, 8), z(2 * cfg.N, 8), z(2 * cfg.N, 8))


def schedule(rho_min, rho_max, n_epochs):
    return TrainConfig(n_epochs=n_epochs, rho_min=rho_min, rho_max=rho_max)


class TestPenaltySchedule:
    def test_endpoints(self):
        train = schedule(1e-2, 1e2, 100)
        assert rho_at(train, 0) == pytest.approx(1e-2)
        assert rho_at(train, 100) == pytest.approx(1e2)

    def test_geometric_midpoint(self):
        assert rho_at(schedule(1e-2, 1e2, 100), 50) == pytest.approx(1.0)

    def test_monotone(self):
        train = schedule(0.3, 3000.0, 300)
        vals = [rho_at(train, e) for e in range(0, 301, 10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            rho_at(TrainConfig(n_epochs=10), -1)
        with pytest.raises(ValueError):
            rho_at(TrainConfig(n_epochs=10), 11)
        with pytest.raises(ConfigurationError):
            TrainConfig(rho_min=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(rho_min=2.0, rho_max=1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(rho_max=np.inf)

    @pytest.mark.parametrize("epoch", [True, False, 2.5, 3.0, np.float64(2.0),
                                       "3", None])
    def test_epoch_must_be_an_integer(self, epoch):
        message = f"epoch must be an integer in [0, n_epochs]; got {epoch!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rho_at(TrainConfig(n_epochs=10), epoch)

    def test_numpy_integer_epoch_accepted(self):
        train = TrainConfig(n_epochs=10)
        assert rho_at(train, np.int64(4)) == rho_at(train, 4)

    @pytest.mark.parametrize("field, value", [
        ("rho_max", np.nan),
    ])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_epochs", 2.5), ("seed", -1), ("seed", 1.0),
    ])
    def test_non_integer_count_or_negative_seed_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})


def coupled_tn_objective(cfg, ch, state, rho):
    """Reference phase-network loss of coupled mode: the negative rate plus
    rho times the squared distance to the exact coupled projection. The
    loop never evaluates it; it feeds the phase network its gradient,
    -grad_theta + 2 * rho * (theta - theta_proj), which TestMetaGradients
    checks against finite differences of this objective."""
    aux = project_coupled_phases(state.theta_t, state.theta_r)
    dev = state.theta - np.concatenate([aux.theta_t_aux, aux.theta_r_aux])
    return -evaluate_wsr(cfg, ch, state) + rho * float(dev @ dev)


def assert_close(analytic, reference):
    err = np.linalg.norm(analytic - reference)
    assert err < 1e-6 * np.linalg.norm(reference)


def record_refined_state(monkeypatch):
    """Patch the loop's three forward blocks to record their outputs.
    Returns a function giving the state they last refined, the refined
    point of the current epoch when every block runs."""
    out = {}

    def spy(name, block):
        def wrapped(*args):
            result = block(*args)
            out[name] = result[0]
            return result
        return wrapped

    for name in ("precoder", "amplitude", "phase"):
        attr = f"_{name}_block"
        monkeypatch.setattr(training, attr, spy(name, getattr(training, attr)))
    return lambda: make_state(out["precoder"], out["amplitude"], out["phase"])


def record_fed_gradients(monkeypatch, cfg, ch, train):
    """Run the loop with every network updated every epoch. Returns, per
    epoch, the refined state, rho, the loss
    gradient the loop passed to each network's backward pass, and the
    rates the loop took (the raw rate, then in coupled mode the hardened
    copy's)."""
    refined = record_refined_state(monkeypatch)
    fed = []

    def rate_spy(cfg_, gammas):
        rate = wsr(cfg_, gammas)
        if not fed or len(fed[-1][3]) == (2 if train.mode == "coupled" else 1):
            rho = rho_at(train, len(fed) + 1) if train.mode == "coupled" else 0.0
            fed.append((refined(), rho, {}, []))
        fed[-1][3].append(rate)
        return rate

    def spy(name, backward):
        def wrapped(tape, grad_out):
            fed[-1][2][name] = grad_out.copy()
            return backward(tape, grad_out)
        return wrapped

    monkeypatch.setattr(training, "wsr", rate_spy)
    for name, block in (("pn", "precoder"), ("an", "amplitude"), ("tn", "phase")):
        attr = f"_{block}_block_backward"
        monkeypatch.setattr(training, attr, spy(name, getattr(training, attr)))
    run_gml(cfg, ch, train)
    assert len(fed) == train.n_epochs
    assert all(len(grads) == 3 for _, _, grads, _ in fed)
    return fed


def fed_loss_gradients(monkeypatch, mode, n_epochs=3):
    """Run the loop on a unit-scale instance with every network updated
    every epoch. Returns the config, the channels and, per epoch, the
    refined state, rho, and the loss gradient the loop passed to each
    network's backward pass."""
    cfg, ch, _ = make_instance(3, M=4, N=6, K=2)
    monkeypatch.setattr(training, "N1", 1)
    train = TrainConfig(n_epochs=n_epochs, mode=mode, n2=1, seed=2)
    fed = record_fed_gradients(monkeypatch, cfg, ch, train)
    return cfg, ch, [(state, rho, grads) for state, rho, grads, _ in fed]


class TestLosses:
    def test_independent_is_negated_rate(self, monkeypatch):
        """In independent mode all three networks are fed the gradient of
        the negative rate at the refined state."""
        cfg, ch, fed = fed_loss_gradients(monkeypatch, "independent")
        for state, _, grads in fed:
            fd = finite_diff_gradient(lambda st: -evaluate_wsr(cfg, ch, st), state)
            assert_close(grads["pn"], fd.grad_w)
            assert_close(grads["an"], fd.grad_beta)
            assert_close(grads["tn"], fd.grad_theta)

    def test_feasible_phases_incur_no_penalty(self):
        cfg, ch, state = make_instance(1)
        coupled = BeamformingState(
            state.W, state.beta_t, state.beta_r,
            state.theta_r + np.pi / 2, state.theta_r,
        )
        assert coupled_tn_objective(cfg, ch, coupled, 57.0) == pytest.approx(
            -evaluate_wsr(cfg, ch, coupled), abs=1e-9
        )

    def test_known_penalty_at_origin(self):
        cfg, ch, _ = make_instance(2, N=1, M=2, K=1)
        state = BeamformingState(np.ones((2, 1), complex), [0.7], [0.7],
                                 [0.0], [0.0])
        gap = coupled_tn_objective(cfg, ch, state, 1.0) + evaluate_wsr(cfg, ch, state)
        assert gap == pytest.approx(np.pi**2 / 8)

    def test_rho_must_be_nonnegative(self):
        # the loop's rho comes from the schedule, positive at every epoch
        train = TrainConfig(n_epochs=7)
        assert all(rho_at(train, e) > 0 for e in range(8))
        for bad in (-1.0, 0.0, np.nan):
            with pytest.raises(ConfigurationError, match="rho_min"):
                TrainConfig(rho_min=bad)


def shared_terms(ch, state):
    """G @ W and the phasors exp(j * theta) the loop passes its blocks."""
    return ch.G @ state.W, np.exp(1j * state.theta)


def state_rows(cfg, ch, state):
    """The effective rows the loop passes its precoder block."""
    return effective_rows(cfg, ch, state.beta * np.exp(1j * state.theta))


class TestBlockRefinesOneGroup:
    """Each block of the loop refines its one group and hands it back on
    its constraint set."""

    def test_zero_pn_leaves_state(self, instance):
        cfg, ch, state = instance
        W, _ = _precoder_block(zero_nets(cfg).pn, state.W,
                               state_rows(cfg, ch, state), cfg)
        assert np.allclose(W, state.W, rtol=1e-14)

    def test_precoder_power_restored(self, instance):
        cfg, ch, state = instance
        nets = init_networks(cfg, np.random.default_rng(0))
        W, _ = _precoder_block(nets.pn, state.W, state_rows(cfg, ch, state), cfg)
        assert np.vdot(W, W).real == pytest.approx(cfg.p_max, rel=1e-9)

    def test_zero_an_leaves_amplitudes(self, instance):
        cfg, ch, state = instance
        beta, _ = _amplitude_block(zero_nets(cfg).an, state.beta, state.W,
                                   *shared_terms(ch, state), cfg, ch)
        assert np.allclose(beta, state.beta, atol=1e-14)

    def test_amplitude_energy_conservation(self, instance):
        cfg, ch, state = instance
        nets = init_networks(cfg, np.random.default_rng(1))
        beta, _ = _amplitude_block(nets.an, state.beta, state.W,
                                   *shared_terms(ch, state), cfg, ch)
        n = cfg.N
        assert np.max(np.abs(beta[:n]**2 + beta[n:]**2 - 1)) < 1e-12

    def test_zero_tn_shifts_by_pi(self, instance):
        cfg, ch, state = instance
        precoded, phasor = shared_terms(ch, state)
        theta, _, _ = _phase_block(zero_nets(cfg).tn, state.theta, phasor,
                                   state.W, precoded, state.beta, cfg, ch)
        expected = np.mod(state.theta + np.pi, 2 * np.pi)
        assert np.allclose(theta, expected, atol=1e-12)

    def test_non_finite_precoder_update_rejected(self, instance):
        cfg, ch, state = instance
        pn = zero_nets(cfg).pn
        pn.b2[0] = np.nan
        with pytest.raises(DegenerateInputError, match="non-finite precoder"):
            _precoder_block(pn, state.W, state_rows(cfg, ch, state), cfg)

    def test_phases_stay_wrapped(self, instance):
        cfg, ch, state = instance
        nets = init_networks(cfg, np.random.default_rng(2))
        precoded, phasor = shared_terms(ch, state)
        theta, _, _ = _phase_block(nets.tn, state.theta, phasor, state.W,
                                   precoded, state.beta, cfg, ch)
        assert (theta >= 0).all() and (theta < 2 * np.pi).all()


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestLeanBlocks:
    """Each block computes only the gradient it feeds its network, from the
    shared G @ W and phasors; that gradient is bitwise the one of the full
    bundle at the same state, for a step from the start and for a step from
    the state that first step produced."""

    @edge_cases
    def test_block_inputs_equal_full_bundle(self, seed, dims, sides, weights):
        cfg, ch, state = make_edge_instance(seed, dims, sides, weights)
        nets = init_networks(cfg, np.random.default_rng(seed))
        pn, an, tn = (RecordingMlp(n) for n in (nets.pn, nets.an, nets.tn))
        W0, beta0, theta0 = state.W, state.beta, state.theta
        precoded, phasor = shared_terms(ch, state)

        def bundle(W, beta, theta):
            return wsr_gradients(cfg, ch, make_state(W, beta, theta))

        rows = state_rows(cfg, ch, state)
        W1, _ = _precoder_block(pn, W0, rows, cfg)
        _precoder_block(pn, W1, rows, cfg)
        for x, W in zip(pn.inputs, (W0, W1)):
            g = bundle(W, beta0, theta0).grad_w
            assert_bitwise(x, np.vstack([g.real.T, g.imag.T]))

        beta1, _ = _amplitude_block(an, beta0, W0, precoded, phasor, cfg, ch)
        _amplitude_block(an, beta1, W0, precoded, phasor, cfg, ch)
        for x, beta in zip(an.inputs, (beta0, beta1)):
            assert_bitwise(x, bundle(W0, beta, theta0).grad_beta[None, :])

        theta1, phasor1, _ = _phase_block(tn, theta0, phasor, W0, precoded,
                                          beta0, cfg, ch)
        assert_bitwise(phasor1, np.exp(1j * theta1))
        _phase_block(tn, theta1, phasor1, W0, precoded, beta0, cfg, ch)
        for x, theta in zip(tn.inputs, (theta0, theta1)):
            assert_bitwise(x, bundle(W0, beta0, theta).grad_theta[None, :])


class TestRefinedPoint:
    """The loop evaluates each refined state once, from the pieces of the
    gradient kernel, and its rows serve the next precoder block; what it
    feeds the networks is bitwise what the full bundle gives."""

    @edge_cases
    @pytest.mark.parametrize("mode", ["independent", "coupled"])
    def test_loss_gradients_and_rate_equal_full_bundle(
            self, monkeypatch, mode, seed, dims, sides, weights):
        cfg, ch, _ = make_edge_instance(seed, dims, sides, weights)
        monkeypatch.setattr(training, "N1", 1)
        train = TrainConfig(n_epochs=3, mode=mode, n2=1, seed=seed)
        for state, rho, grads, rates in record_fed_gradients(
                monkeypatch, cfg, ch, train):
            bundle = wsr_gradients(cfg, ch, state)
            g_t = -bundle.grad_theta
            expected_rates = [bundle.rate]
            if mode == "coupled":
                aux = project_coupled_phases(state.theta_t, state.theta_r)
                proj = np.concatenate([aux.theta_t_aux, aux.theta_r_aux])
                g_t = g_t + 2.0 * rho * (state.theta - proj)
                hard = make_state(state.W, state.beta, wrap_phase(proj))
                expected_rates.append(evaluate_wsr(cfg, ch, hard))
            assert_bitwise(grads["pn"], -bundle.grad_w)
            assert_bitwise(grads["an"], -bundle.grad_beta)
            assert_bitwise(grads["tn"], g_t)
            assert rates == expected_rates

    @pytest.mark.parametrize("enable_an, enable_tn", [
        (True, True), (False, True), (True, False), (False, False)])
    def test_surface_bracket_only_on_update_epochs(
            self, monkeypatch, enable_an, enable_tn):
        """Besides the bracket of each running surface block, an epoch forms
        one at the refined point exactly when it updates the amplitude or
        phase network."""
        cfg, ch, _ = make_instance(3, M=4, N=6, K=2)
        monkeypatch.setattr(training, "N1", 2)
        train = TrainConfig(n_epochs=7, n2=3, seed=1)
        per_epoch = []
        precoder = training._precoder_block

        def precoder_spy(*args):
            per_epoch.append(0)  # one precoder block per epoch
            return precoder(*args)

        def bracket_spy(*args):
            per_epoch[-1] += 1
            return surface_bracket(*args)

        monkeypatch.setattr(training, "_precoder_block", precoder_spy)
        monkeypatch.setattr(training, "surface_bracket", bracket_spy)
        run_meta_loop(cfg, ch, train, enable_an=enable_an, enable_tn=enable_tn)
        assert len(per_epoch) == train.n_epochs
        blocks = enable_an + enable_tn
        for epoch, count in enumerate(per_epoch, 1):
            update = ((enable_an and epoch % training.N1 == 0)
                      or (enable_tn and epoch % train.n2 == 0))
            assert count == blocks + update

    @pytest.mark.parametrize("enable_an, enable_tn", [
        (True, True), (False, True), (False, False)])
    def test_precoder_block_reuses_refined_rows(
            self, monkeypatch, enable_an, enable_tn):
        """Each precoder block gives what it gives at rows recomputed from
        the amplitudes and phasors it runs at."""
        cfg, ch, _ = make_instance(7, M=4, N=6, K=2)
        monkeypatch.setattr(training, "N1", 1)
        train = TrainConfig(n_epochs=3, n2=1, seed=1)
        rng = np.random.default_rng(train.seed)
        init_networks(cfg, rng)  # consumed as the loop consumes it
        _, beta0, theta0 = initial_state(cfg, rng)
        surface = {"beta": beta0, "phasor": np.exp(1j * theta0)}
        blocks = {name: getattr(training, f"_{name}_block")
                  for name in ("precoder", "amplitude", "phase")}
        outputs = []

        def precoder_spy(pn, W0, rows, cfg_):
            result = blocks["precoder"](pn, W0, rows, cfg_)
            fresh = effective_rows(cfg, ch, surface["beta"] * surface["phasor"])
            W_fresh, _ = blocks["precoder"](pn, W0, fresh, cfg_)
            assert_bitwise(rows, fresh)
            assert_bitwise(result[0], W_fresh)
            outputs.append(result[0])
            return result

        def amplitude_spy(*args):
            result = blocks["amplitude"](*args)
            surface["beta"] = result[0]
            return result

        def phase_spy(*args):
            result = blocks["phase"](*args)
            surface["phasor"] = result[1]
            return result

        monkeypatch.setattr(training, "_precoder_block", precoder_spy)
        monkeypatch.setattr(training, "_amplitude_block", amplitude_spy)
        monkeypatch.setattr(training, "_phase_block", phase_spy)
        run_meta_loop(cfg, ch, train, enable_an=enable_an, enable_tn=enable_tn)
        assert len(outputs) == train.n_epochs


class TestMetaGradients:
    """Each network's parameter gradient (through its own update chain,
    inputs and other groups held fixed) must match finite differences,
    taken on float64 copies of the networks."""

    def setup_method(self):
        self.cfg, self.ch, _ = make_instance(3, M=4, N=6, K=2)
        rng = np.random.default_rng(4)
        nets = init_networks(self.cfg, rng)
        self.nets = SubNetworks(*map(float64_copy, (nets.pn, nets.an, nets.tn)))
        self.start = make_state(*initial_state(self.cfg, rng))
        self.phasor0 = np.exp(1j * self.start.theta)
        self.rows0 = state_rows(self.cfg, self.ch, self.start)

    def _forward(self):
        s, phasor0 = self.start, self.phasor0
        W, tw = _precoder_block(self.nets.pn, s.W, self.rows0, self.cfg)
        precoded = self.ch.G @ W
        beta, ta = _amplitude_block(self.nets.an, s.beta, W, precoded, phasor0,
                                    self.cfg, self.ch)
        theta, _, tt = _phase_block(self.nets.tn, s.theta, phasor0, W, precoded,
                                    beta, self.cfg, self.ch)
        return W, beta, theta, tw, ta, tt

    def _check(self, grads, net_attr, loss_fn, rng):
        net = getattr(self.nets, net_attr)
        eps = 1e-6
        # one random coordinate of each of w1, b1, w2, b2
        for block in net.split(np.arange(net.flat.size)):
            i = int(rng.choice(block.ravel()))
            up = net.flat.copy()
            up[i] += eps
            dn = net.flat.copy()
            dn[i] -= eps
            fd = (loss_fn(Mlp(*net.split(up)))
                  - loss_fn(Mlp(*net.split(dn)))) / (2 * eps)
            assert fd == pytest.approx(grads[i], rel=1e-4, abs=1e-10)

    def test_all_three_chains(self):
        cfg, ch = self.cfg, self.ch
        W, beta, theta, tw, ta, tt = self._forward()
        final = make_state(W, beta, theta)
        bundle = wsr_gradients(cfg, ch, final)
        g_pn = mlp_backward(self.nets.pn, *_precoder_block_backward(tw, -bundle.grad_w))
        g_an = mlp_backward(self.nets.an, *_amplitude_block_backward(ta, -bundle.grad_beta))
        g_tn = mlp_backward(self.nets.tn, *_phase_block_backward(tt, -bundle.grad_theta))
        s, phasor0, precoded = self.start, self.phasor0, ch.G @ W

        def loss_pn(pn):
            w2, _ = _precoder_block(pn, s.W, self.rows0, cfg)
            return -evaluate_wsr(cfg, ch, make_state(w2, beta, theta))

        def loss_an(an):
            b2, _ = _amplitude_block(an, s.beta, W, precoded, phasor0, cfg, ch)
            return -evaluate_wsr(cfg, ch, make_state(W, b2, theta))

        def loss_tn(tn):
            t2, _, _ = _phase_block(tn, s.theta, phasor0, W, precoded, beta,
                                    cfg, ch)
            return -evaluate_wsr(cfg, ch, make_state(W, beta, t2))

        rng = np.random.default_rng(5)
        self._check(g_pn, "pn", loss_pn, rng)
        self._check(g_an, "an", loss_an, rng)
        self._check(g_tn, "tn", loss_tn, rng)

    @pytest.mark.parametrize("rho", [0.7, 40.0])
    def test_coupled_phase_chain_with_penalty(self, rho):
        cfg, ch = self.cfg, self.ch
        W, beta, theta, _, _, tt = self._forward()
        final = make_state(W, beta, theta)
        aux = project_coupled_phases(final.theta_t, final.theta_r)
        proj = np.concatenate([aux.theta_t_aux, aux.theta_r_aux])
        # the phase-network loss gradient as run_meta_loop forms it
        g_t = -wsr_gradients(cfg, ch, final).grad_theta + 2.0 * rho * (theta - proj)
        g_tn = mlp_backward(self.nets.tn, *_phase_block_backward(tt, g_t))
        s, precoded = self.start, ch.G @ W

        def loss_tn(tn):
            t2, _, _ = _phase_block(tn, s.theta, self.phasor0, W, precoded, beta,
                                    cfg, ch)
            return coupled_tn_objective(cfg, ch, make_state(W, beta, t2), rho)

        self._check(g_tn, "tn", loss_tn, np.random.default_rng(6))

    def test_loop_feeds_phase_network_the_penalized_gradient(self, monkeypatch):
        """In coupled mode the loop feeds the phase network the gradient of
        coupled_tn_objective, and the other two networks that of the plain
        negative rate."""
        cfg, ch, fed = fed_loss_gradients(monkeypatch, "coupled")
        for state, rho, grads in fed:
            assert rho > 0
            fd_rate = finite_diff_gradient(lambda st: -evaluate_wsr(cfg, ch, st), state)
            fd_tn = finite_diff_gradient(
                lambda st: coupled_tn_objective(cfg, ch, st, rho), state)
            assert_close(grads["pn"], fd_rate.grad_w)
            assert_close(grads["an"], fd_rate.grad_beta)
            assert_close(grads["tn"], fd_tn.grad_theta)


def max_residual(state):
    return float(np.max(coupling_residual(state.theta_t, state.theta_r)))


class TestRunGml:
    def small_setup(self, mode="independent", seed=0, n_epochs=20):
        sys_cfg, ch_cfg = desk_scenario(K=2)
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(123))
        train = TrainConfig(n_epochs=n_epochs, mode=mode, seed=seed,
                            rho_min=0.3, rho_max=3000.0, n2=1)
        return sys_cfg, ch, train

    def spied_coupled_run(self, monkeypatch, script=None, **kwargs):
        """Coupled run with the loop's rates recorded. Returns the solution
        and, per refined state in loop order (one per epoch), (raw rate, raw residual, post-projection rate, the bytes of
        the hardened phases). The loop takes two rates per refined state:
        the raw one at the refined point, then the one of its hardened copy,
        whose phases are the wrapped projection the loop computes.

        script, when given, is one (raw rate, raw residual, post-projection
        rate) per refined state. The true rates and residuals are checked
        against the states as without it, but the spies hand the loop the
        scripted values, so the selection rule runs on data whose shape the
        test sets, whatever trajectory the networks take; the returned
        rates and residuals are then the scripted ones. The residual of the
        reported state, checked after the loop, stays the true one."""
        sys_cfg, ch, train = self.small_setup(mode="coupled", **kwargs)
        n_states = train.n_epochs
        assert script is None or len(script) == n_states
        refined = record_refined_state(monkeypatch)
        calls, projections, residuals = [], [], []

        def rate_spy(cfg, gammas):
            rate = wsr(cfg, gammas)
            calls.append((refined(), rate))
            if script is None:
                return rate
            raw_rate, _, proj_rate = script[(len(calls) - 1) // 2]
            return proj_rate if len(calls) % 2 == 0 else raw_rate

        def residual_spy(theta_t, theta_r):
            true = coupling_residual(theta_t, theta_r)
            if script is None or len(residuals) == n_states:
                return true  # unscripted, or the reported state's check
            residuals.append(script[len(residuals)][1])
            return np.full_like(true, residuals[-1])

        def projection_spy(theta_t, theta_r):
            aux = project_coupled_phases(theta_t, theta_r)
            projections.append(
                wrap_phase(np.concatenate([aux.theta_t_aux, aux.theta_r_aux])))
            return aux

        monkeypatch.setattr(training, "wsr", rate_spy)
        monkeypatch.setattr(training, "coupling_residual", residual_spy)
        monkeypatch.setattr(training, "project_coupled_phases", projection_spy)
        sol = run_gml(sys_cfg, ch, train)
        assert len(calls) == 2 * n_states
        assert len(projections) == n_states
        states = []
        for (raw, r_cur), (same, r_proj), theta_hard in zip(
                calls[::2], calls[1::2], projections):
            # each refined state is followed by its hardened copy
            hard = make_state(same.W, same.beta, theta_hard)
            assert r_cur == evaluate_wsr(sys_cfg, ch, raw)
            assert r_proj == evaluate_wsr(sys_cfg, ch, hard)
            assert np.array_equal(hard.W, raw.W)
            assert max_residual(hard) < 1e-9 <= max_residual(raw)
            states.append((r_cur, max_residual(raw), r_proj,
                           hard.theta.tobytes()))
        if script is not None:
            assert len(residuals) == n_states
            states = [(*row, theta) for row, (_, _, _, theta) in zip(script, states)]
        return sol, states

    @staticmethod
    def expected_pick(states):
        """Highest post-projection rate among locked states, else overall;
        the first of equal rates wins."""
        locked = [s for s in states if s[1] < COUPLING_TOL]
        return max(locked or states, key=lambda s: s[2])

    def check_reported(self, sol, states):
        """The solution and the post-projection trace follow the rule, and
        the reported rates and residual describe the one picked state."""
        r_cur, residual, r_proj, theta_hard = self.expected_pick(states)
        assert sol.theta_opt.tobytes() == theta_hard
        assert sol.wsr_opt == r_proj
        assert sol.wsr_pre_projection == r_cur
        assert sol.residual_pre_projection == residual
        assert sol.feasible_coupled
        trace = sol.traces["wsr_best_post_projection"]
        assert len(trace) == len(states)
        for idx, rate in enumerate(trace):
            assert rate == self.expected_pick(states[:idx + 1])[2]
        assert trace[-1] == sol.wsr_opt

    def test_coupled_reports_best_locked_state(self, monkeypatch):
        """Scripted (raw rate, residual, post-projection rate) per epoch:
        the run locks at the third epoch, after which the reported rate
        drops; the best post-projection state overall is unlocked, and two
        locked states tie, the first winning."""
        script = [(1.1, 0.30, 1.0), (1.6, 0.20, 1.5), (1.3, 0.04, 1.2),
                  (2.1, 0.10, 2.0), (1.5, 0.03, 1.4), (1.7, 0.02, 1.4),
                  (2.0, 0.08, 1.9), (1.2, 0.01, 1.1)]
        sol, states = self.spied_coupled_run(monkeypatch, script, n_epochs=8)
        # precondition: the run locks, and its best post-projection state
        # overall does not, so the rule has a choice to make
        assert (sol.traces["residual_max"] < COUPLING_TOL).any()
        assert max(states, key=lambda s: s[2])[1] >= COUPLING_TOL
        # and two locked states share the highest locked rate
        assert states.index(self.expected_pick(states)) == 4
        assert states[5][1] < COUPLING_TOL and states[5][2] == states[4][2]
        self.check_reported(sol, states)
        assert sol.residual_pre_projection < COUPLING_TOL

    def test_coupled_falls_back_when_never_locked(self, monkeypatch):
        sol, states = self.spied_coupled_run(monkeypatch, n_epochs=10)
        # precondition: too short to lock
        assert min(s[1] for s in states) >= COUPLING_TOL
        self.check_reported(sol, states)
        assert sol.wsr_opt == max(s[2] for s in states)
        assert sol.residual_pre_projection >= COUPLING_TOL

    @pytest.mark.parametrize("arg", ["enable_an", "enable_tn"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(True)])
    def test_enable_flags_must_be_bool(self, monkeypatch, arg, value):
        """A flag that is not a bool is rejected, naming it, before any
        network is built."""
        sys_cfg, ch, train = self.small_setup(n_epochs=2)

        def no_init(*args):
            raise AssertionError("networks built")

        monkeypatch.setattr(training, "init_networks", no_init)
        with pytest.raises(ConfigurationError, match=arg):
            run_meta_loop(sys_cfg, ch, train, **{arg: value})

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_beta_init_rejected(self, bad):
        """A non-finite amplitude profile is rejected, naming beta_init."""
        sys_cfg, ch, train = self.small_setup(n_epochs=2)
        beta_init = np.full(2 * sys_cfg.N, 0.5)
        beta_init[3] = bad
        with pytest.raises(ConfigurationError, match="beta_init"):
            run_meta_loop(sys_cfg, ch, train, beta_init=beta_init)

    @pytest.mark.parametrize("profile", ["negative", "zero_pair"])
    def test_negative_or_dead_beta_init_rejected(self, profile):
        """A negative amplitude, or a (t, r) pair of zeros, is rejected
        naming beta_init. The 0/1 profile of the conventional surface,
        whose pairs are (1, 0) and (0, 1), is accepted and takes the draws
        that a start without a profile takes."""
        sys_cfg, ch, train = self.small_setup(n_epochs=2)
        n = sys_cfg.N
        conventional = np.concatenate([np.zeros(n // 2), np.ones(n), np.zeros(n // 2)])
        beta_init = -np.ones(2 * n) if profile == "negative" else conventional.copy()
        if profile == "zero_pair":
            beta_init[n - 1] = 0.0  # the pair (t, r) = (1, 0) becomes (0, 0)
        with pytest.raises(ConfigurationError, match="^beta_init must be"):
            run_meta_loop(sys_cfg, ch, train, beta_init=beta_init)
        rng, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
        W0, beta0, theta0 = initial_state(sys_cfg, rng, conventional)
        W_ref, _, theta_ref = initial_state(sys_cfg, rng_ref)
        assert_bitwise(W0, W_ref)
        assert_bitwise(theta0, theta_ref)
        assert beta0.tolist() == conventional.tolist()

    def test_nan_phase_names_its_epoch(self, monkeypatch):
        """A NaN from the phase network's sigmoid reaches the rate first:
        the loop reports it with its epoch, and the rate says it saw a
        NaN."""
        sys_cfg, ch, train = self.small_setup("coupled", n_epochs=5)
        monkeypatch.setattr(training, "sigmoid", lambda x: np.full_like(x, np.nan))
        with pytest.raises(DegenerateInputError, match=re.escape(
                "epoch 1: SINR values must be non-negative; saw NaN")):
            run_meta_loop(sys_cfg, ch, train)

    def test_nan_parameter_gradient_names_its_epoch_and_network(
            self, monkeypatch):
        """A NaN parameter gradient is rejected by the Adam step of the
        first network to step, with the epoch and the network's name."""
        sys_cfg, ch, train = self.small_setup(n_epochs=5)
        backward = training.mlp_backward
        monkeypatch.setattr(training, "mlp_backward",
                            lambda *args: backward(*args) * np.nan)
        with pytest.raises(DegenerateInputError, match=re.escape(
                "epoch 1, pn network: non-finite gradient")):
            run_meta_loop(sys_cfg, ch, train)

    @pytest.mark.parametrize("mode", ["independent", "coupled"])
    def test_one_field_per_block_and_one_at_the_refined_state(self, monkeypatch, mode):
        """The blocks compute only the gradients they feed their networks;
        the refined point of each epoch takes one received field, after the
        one field of each block, at the refined state."""
        sys_cfg, ch, train = self.small_setup(mode=mode, n_epochs=6)
        refined = record_refined_state(monkeypatch)
        per_epoch = 4
        calls, states = [], []

        def field_spy(cfg, rows, W):
            calls.append(None)
            if len(calls) % per_epoch == 0:  # the refined point's field
                state = refined()
                assert_bitwise(rows, state_rows(cfg, ch, state))
                assert_bitwise(W, state.W)
                states.append(state)
            return received_field(cfg, rows, W)

        monkeypatch.setattr(training, "received_field", field_spy)
        sol = run_gml(sys_cfg, ch, train)
        assert len(calls) == train.n_epochs * per_epoch
        assert len(states) == train.n_epochs
        # the last field is at the last refined state, which the trace shows
        last = states[-1]
        assert np.array_equal(sol.traces["phase_diff"][-1],
                              wrap_phase(last.theta_t - last.theta_r))

    def test_each_network_steps_once_right_after_its_last_backward(
            self, monkeypatch):
        """Each network takes one Adam step per epoch, after every backward
        chain of the epoch, on the very array that its mlp_backward call
        forms from the pass its chain returned."""
        sys_cfg, ch, _ = self.small_setup()
        monkeypatch.setattr(training, "N1", 1)
        train = TrainConfig(n_epochs=3, n2=1)
        names = ("pn", "an", "tn")
        nets, events = [], []
        init, backward = training.init_networks, training.mlp_backward
        adam_step = training.adam_step

        def name_of(net):
            return next(n for n in names if getattr(nets[0], n).flat is net)

        def init_spy(*args):
            nets.append(init(*args))
            return nets[-1]

        def chain_spy(name, chain):
            def wrapped(*args):
                net_pass = chain(*args)
                events.append(("chain", name, net_pass))
                return net_pass
            return wrapped

        def backward_spy(net, cache, grad_out):
            grad = backward(net, cache, grad_out)
            events.append(("backward", name_of(net.flat),
                           ((cache, grad_out), grad, grad.copy())))
            return grad

        def adam_spy(params, grads, state, lr):  # the step overwrites grads
            events.append(("step", name_of(params), (grads, grads.copy())))
            adam_step(params, grads, state, lr)

        for name, block in zip(names, ("precoder", "amplitude", "phase")):
            attr = f"_{block}_block_backward"
            monkeypatch.setattr(training, attr,
                                chain_spy(name, getattr(training, attr)))
        monkeypatch.setattr(training, "init_networks", init_spy)
        monkeypatch.setattr(training, "mlp_backward", backward_spy)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        run_gml(sys_cfg, ch, train)
        per_epoch = 9
        assert len(events) == train.n_epochs * per_epoch
        for start in range(0, len(events), per_epoch):
            epoch = events[start:start + per_epoch]
            kinds = [event[0] for event in epoch]
            assert kinds == ["chain"] * 3 + ["backward", "step"] * 3
            for name in names:
                chained, formed, (step, stepped) = [
                    e[2] for e in epoch if e[1] == name]
                net_pass, grad, formed_grad = formed
                assert len(chained) == 2
                assert all(a is b for a, b in zip(net_pass, chained))
                assert step is grad
                assert_bitwise(stepped, formed_grad)

    @pytest.mark.parametrize("mode", ["independent", "coupled"])
    def test_phase_rate_decays_in_coupled_mode_only(self, monkeypatch, mode):
        """Coupled mode steps the phase network at LR_THETA *
        PHASE_RATE_FLOOR ** (epoch / n_epochs); independent mode at
        LR_THETA. The other two networks keep their rates in both modes."""
        sys_cfg, ch, _ = self.small_setup()
        for name, value in (("N1", 1), ("LR_W", 1e-3), ("LR_A", 2e-3),
                            ("LR_THETA", 3e-3)):
            monkeypatch.setattr(training, name, value)
        train = TrainConfig(n_epochs=6, mode=mode, n2=2)
        nets, rates = [], {"pn": [], "an": [], "tn": []}
        init, adam_step = training.init_networks, training.adam_step

        def init_spy(*args):
            nets.append(init(*args))
            return nets[-1]

        def adam_spy(params, grads, state, lr):
            name = next(n for n in rates if params is getattr(nets[0], n).flat)
            rates[name].append(lr)
            adam_step(params, grads, state, lr)

        monkeypatch.setattr(training, "init_networks", init_spy)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        run_gml(sys_cfg, ch, train)
        n = train.n_epochs
        tn_epochs = range(train.n2, n + 1, train.n2)
        floor = training.PHASE_RATE_FLOOR if mode == "coupled" else 1.0
        assert 0 < training.PHASE_RATE_FLOOR < 1
        assert rates["pn"] == [1e-3] * n
        assert rates["an"] == [2e-3] * n
        assert rates["tn"] == [3e-3 * floor ** (e / n) for e in tn_epochs]

    @staticmethod
    def paper_peak_words(mode):
        """Traced peak of a 5-epoch paper-scale solve, in words of the
        networks' dtype per network parameter."""
        cfg, ch_cfg = default_scenario()
        ch = generate_channels(cfg, ch_cfg, np.random.default_rng(100))
        nets = init_networks(cfg, np.random.default_rng(0))
        n_params = nets.pn.flat.size + nets.an.flat.size + nets.tn.flat.size
        train = replace(paper_train(mode), n_epochs=5)
        tracemalloc.start()
        try:
            run_gml(cfg, ch, train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (nets.pn.flat.itemsize * n_params)

    @pytest.mark.parametrize("mode", ["independent", "coupled"])
    def test_paper_solve_array_memory(self, mode):
        """A paper-scale solve holds the parameters, their two moments and
        one gradient at a time, which the Adam step consumes as its
        scratch: its traced peak stays under 3.75 words of the networks'
        dtype per network parameter (about 3.54 measured; a separate block
        scratch per network took it to about 4.23)."""
        assert self.paper_peak_words(mode) <= 3.75

    def test_deterministic_bitwise(self):
        sys_cfg, ch, train = self.small_setup()
        a = run_gml(sys_cfg, ch, train)
        b = run_gml(sys_cfg, ch, train)
        assert np.array_equal(a.W_opt, b.W_opt)
        assert np.array_equal(a.theta_opt, b.theta_opt)
        assert a.wsr_opt == b.wsr_opt
        for key in a.traces:
            assert np.array_equal(a.traces[key], b.traces[key])

    def test_solution_invariants(self):
        sys_cfg, ch, train = self.small_setup(n_epochs=25)
        sol = run_gml(sys_cfg, ch, train)
        power = float(np.vdot(sol.W_opt, sol.W_opt).real)
        assert power == pytest.approx(sys_cfg.p_max, rel=1e-9)
        beta = sol.beta_opt
        n = sys_cfg.N
        assert np.max(np.abs(beta[:n]**2 + beta[n:]**2 - 1)) < 1e-12

    def test_coupled_solution_hard_feasible(self):
        sys_cfg, ch, train = self.small_setup(mode="coupled", n_epochs=25)
        sol = run_gml(sys_cfg, ch, train)
        n = sys_cfg.N
        resid = np.abs(np.cos(sol.theta_opt[:n] - sol.theta_opt[n:]))
        assert sol.feasible_coupled
        assert resid.max() < 1e-9
        assert sol.wsr_opt > 0
        assert sol.traces["rho"][0] > 0

    def test_learning_improves_over_start(self):
        sys_cfg, ch, train = self.small_setup(n_epochs=60, seed=3)
        sol = run_gml(sys_cfg, ch, train)
        assert sol.wsr_opt > sol.traces["wsr_current"][0]

    def test_network_sizes_follow_dims(self):
        cfg, _, _ = make_instance(6, M=5, N=7)
        nets = init_networks(cfg, np.random.default_rng(0))
        assert nets.pn.input_dim == 5 and nets.pn.hidden_dim == PN_HIDDEN
        assert nets.an.input_dim == 14 and nets.an.hidden_dim == AN_HIDDEN
        assert nets.tn.output_dim == 14 and nets.tn.hidden_dim == TN_HIDDEN

