"""The meta-optimization loop.

Each epoch runs one refine pass: the precoder, then the amplitudes, then
the phases, each refined from the run's initial matrices by one step of its
sub-network; then each network's loss at the refined point is pulled back
to its parameters, and Adam steps them (the precoder network every epoch,
the amplitude and phase networks on their own intervals). What improves
across epochs is the networks, not a persistent iterate. The paper's outer
and inner loop counts run at their published value of 1; re-adding either
count means re-adding a tape list per block, walked in reverse by its
backward pass, and a pass list per network, stacked into one backward call
and averaged over the outer iterations.

:func:`run_meta_loop` drives one function per phase. A point (W, beta,
theta, phasor), with phasor = exp(j * theta), is one tuple: the start
point every block restarts from, and the refined point, carried across
epochs. Each epoch runs three phases:

- :func:`_forward_blocks`, the blocks, each recording the tape of its
  backward pass. Each step feeds its network one gradient, from
  :func:`received_field` and the one pullback it needs, and computes no
  rate. The amplitude and phase blocks share G @ W of the refined
  precoder, and each phase profile's phasors are computed once.
- :func:`_refined_point`, the refined point evaluated once from its rows,
  which serve the next precoder block: its field, rate and coupling
  residual, and in coupled mode the rate of its hardened copy, a
  different state, from that state's rows and SINRs.
- :func:`_update_networks`, each updating network's chain, from the
  refined point's field to a (forward cache, loss gradient on the output)
  pass, then, network by network, its gradient from :func:`mlp_backward`
  and its Adam step; the surface pullback runs only on epochs that update
  the amplitude or phase network. No network steps before every chain has
  run, but no chain reads a network's parameters, so the order is free.

The driver ranks the refined state for selection between the second and
third phases, and :func:`_record_traces` writes the epoch's traces.
:func:`report_solution` builds the reported :class:`Solution`, for the
loop and for :func:`baselines.pga_oracle`.

Precision: the networks, their parameter gradients and their Adam state
are float32 (networks.NET_DTYPE); the states, the rates, the loss
gradients and the constraint checks stay float64. The boundary is the
network call, and every conversion across it sits in the block that owns
the variable group. A network takes real rows and casts them to its
dtype: the precoder block feeds the complex (M, K) gradient g as the 2K
rows [g.real.T; g.imag.T], the amplitude and phase blocks their (2N,)
gradient as one row. Each block takes the output back to float64 before
it touches the state (a complex128 precoder update recombined column by
column, beta + delta, the phase network's raw output before the sigmoid),
and its backward pass returns the float64 loss gradient on the output in
the same rows, which mlp_backward casts.

Loss plumbing: each network's parameters receive the gradient of its own
loss through its own update chain only; the other variable groups and the
gradient fed to the network input are treated as constants. In coupled
mode the phase-network loss adds rho * ||theta - theta_proj||^2, where
theta_proj is the exact per-element projection onto the coupled set. The
losses are never evaluated: the loop forms their gradients from the
refined point's field, the phase network's as -grad_theta + 2 * rho *
(theta - theta_proj) (theta_proj moves with theta, but as the nearest
coupled point its own derivative drops out). The reported solution
hardens the best state by projecting its phases and re-evaluating the
rate there.

Rates and cadence: the three Adam rates and the amplitude network's
update interval N1 are constants, because one value of each serves both
the desk and the published profile; TrainConfig holds what profiles vary.

Phase-rate decay: in coupled mode the phase network's Adam rate falls
geometrically over the run, LR_THETA * PHASE_RATE_FLOOR ** (epoch /
n_epochs). Each epoch the phase network remakes the whole phase profile
from theta0, and at a constant rate its steps keep the coupling residual
jittering around 0.02-0.05 through the second half of a run; the decay
makes the lock hold to the last epoch. Independent mode and the other two
networks keep constant rates.

Selection of the reported state: the refined state, over all epochs, that
ranks highest on (phase-locked, post-projection rate), the first of equals
winning. Only coupled mode locks, when max |cos(theta_t - theta_r)| is
below COUPLING_TOL, so independent mode reports the highest raw rate. A
coupled run that never locked reports its highest post-projection rate,
and residual_pre_projection shows the miss.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    COUPLING_TOL,
    coupling_residual,
    normalize_amplitudes,
    normalize_power,
    project_coupled_phases,
    sigmoid,
    wrap_phase,
)
from .errors import ConfigurationError, DegenerateInputError, Kind, check_fields, is_int
from .gradients import (amplitude_ascent, phase_ascent, precoder_pullback,
                        received_field, surface_bracket)
from .model import (
    TWO_PI,
    ChannelSet,
    SystemConfig,
    check_dimensions,
    effective_rows,
    received_sinrs,
    wsr,
)
from .networks import (
    Mlp,
    adam_init,
    adam_step,
    init_mlp,
    mlp_backward,
)

MODE_INDEPENDENT = "independent"
MODE_COUPLED = "coupled"

PN_HIDDEN = 200
AN_HIDDEN = 300
TN_HIDDEN = 300

# Each phase-network step adds REGULATOR_GAIN * sigmoid(raw) to the phases:
# an increment in (0, 2*pi), so one step can reach any phase.
REGULATOR_GAIN = TWO_PI

LR_W = 1e-3       # precoder-network Adam rate
LR_A = 5e-3       # amplitude-network Adam rate
LR_THETA = 5e-3   # phase-network Adam rate
N1 = 5            # amplitude network updates every N1 epochs

# In coupled mode the phase network's Adam rate decays geometrically, from
# LR_THETA at epoch 0 to PHASE_RATE_FLOOR * LR_THETA at the final epoch.
PHASE_RATE_FLOOR = 0.1


@dataclass(frozen=True)
class TrainConfig:
    """Epoch count, phase cadence, mode, penalty schedule and seed of a run.

    In coupled mode the penalty weight rho follows a geometric curriculum
    from rho_min at epoch 0 to rho_max at the final epoch (see rho_at)."""

    n_epochs: int = 500
    n2: int = 5               # phase network updates every n2 epochs
    mode: str = MODE_INDEPENDENT
    rho_min: float = 1e-2     # coupled-mode penalty weight at epoch 0
    rho_max: float = 1e2      # and at the final epoch
    seed: int = 0

    FIELD_KINDS = {
        "n_epochs": Kind.COUNT, "n2": Kind.COUNT,
        "mode": Kind.choice(MODE_INDEPENDENT, MODE_COUPLED),
        "rho_min": Kind.POSITIVE, "rho_max": Kind.POSITIVE, "seed": Kind.SEED,
    }

    def __post_init__(self) -> None:
        check_fields(self, self.FIELD_KINDS)
        if self.rho_min > self.rho_max:
            raise ConfigurationError(
                f"rho_min must be <= rho_max; got {self.rho_min!r} > {self.rho_max!r}")


@dataclass(frozen=True)
class SubNetworks:
    """The three sub-networks of one run."""

    pn: Mlp
    an: Mlp
    tn: Mlp


@dataclass
class Solution:
    """Result of one run: the selected state (see the module docstring),
    hardened onto the coupled set when applicable, the rate achieved there,
    and per-epoch traces. A solve carries no wall clock; its caller times
    it (run_experiment, timing_probe and `starbeam run` do).

    W_opt, beta_opt, wsr_pre_projection and residual_pre_projection all
    describe that one state before hardening; theta_opt holds its phases
    after hardening (unchanged in independent mode). Every solver builds
    it through :func:`report_solution`, which holds the feasibility rule."""

    W_opt: np.ndarray
    beta_opt: np.ndarray        # (2N,) concatenated (beta_t, beta_r)
    theta_opt: np.ndarray       # (2N,)
    wsr_opt: float
    wsr_pre_projection: float   # rate of the selected state before hardening
    residual_pre_projection: float  # its max |cos(dtheta)| before hardening
    feasible_coupled: bool
    mode: str
    traces: dict[str, np.ndarray] = field(default_factory=dict)


def init_networks(cfg: SystemConfig, rng: np.random.Generator) -> SubNetworks:
    """Fresh sub-networks sized for the scenario: precoder net maps
    M -> 200 -> M, amplitude and phase nets map 2N -> 300 -> 2N."""
    return SubNetworks(
        pn=init_mlp(cfg.M, PN_HIDDEN, cfg.M, rng),
        an=init_mlp(2 * cfg.N, AN_HIDDEN, 2 * cfg.N, rng),
        tn=init_mlp(2 * cfg.N, TN_HIDDEN, 2 * cfg.N, rng),
    )


def rho_at(train: TrainConfig, epoch: int) -> float:
    """Penalty weight at an epoch: rho_min * (rho_max/rho_min)^(epoch/n)
    with n = train.n_epochs."""
    if not (is_int(epoch, 0) and epoch <= train.n_epochs):
        raise ConfigurationError(
            f"epoch must be an integer in [0, n_epochs]; got {epoch!r}")
    ratio = train.rho_max / train.rho_min
    return float(train.rho_min * ratio ** (epoch / train.n_epochs))


# --- forward blocks (with tapes) and their backward passes ----------------


def _precoder_block(pn: Mlp, W0: np.ndarray, rows: np.ndarray, cfg: SystemConfig):
    """Refine the precoder from W0 by one network step at fixed surface
    coefficients, given by their effective rows; returns it and the tape of
    its backward pass. The other blocks take the shared G @ W and phasors
    exp(j * theta) and return the same way."""
    grad = precoder_pullback(received_field(cfg, rows, W0))
    # 2K real rows, the K real parts then the K imaginary parts, as the
    # backward packs the loss gradient
    out, cache = pn.forward_with_cache(np.concatenate([grad.real.T, grad.imag.T]))
    out = out.astype(np.float64)
    w_raw = W0 + (out[:cfg.K] + 1j * out[cfg.K:]).T
    sq = np.vdot(w_raw, w_raw).real
    if not 0 < sq < np.inf:
        raise DegenerateInputError(
            "precoder collapsed to zero mid-update" if sq == 0 else
            "non-finite precoder mid-update, or one whose power overflows")
    scale = np.sqrt(cfg.p_max / sq)
    return scale * w_raw, (cache, w_raw, scale, sq)


def _precoder_block_backward(tape, g: np.ndarray):
    """Pull a conjugate-convention loss gradient g on the refined precoder
    back through the normalize/add/network chain; returns the network's
    pass, (cache, loss gradient on its output), for :func:`mlp_backward`.
    Network inputs are constants. The other block backward passes return
    their pass the same way."""
    cache, w_raw, scale, sq = tape
    # d loss = 2 Re<g, dW_out>, W_out = scale(w_raw) * w_raw
    q = np.vdot(g, w_raw).real
    g_raw = scale * g - (scale * q / sq) * w_raw
    return cache, 2.0 * np.concatenate([g_raw.real.T, g_raw.imag.T])


def _amplitude_block(an: Mlp, beta0: np.ndarray, W: np.ndarray, precoded: np.ndarray,
                     phasor: np.ndarray, cfg: SystemConfig, ch: ChannelSet):
    """precoded is G @ W."""
    n = beta0.size // 2
    field = received_field(cfg, effective_rows(cfg, ch, beta0 * phasor), W)
    grad = amplitude_ascent(surface_bracket(cfg, ch, field, precoded, phasor))
    delta, cache = an.forward_with_cache(grad[None, :])  # one row
    raw = beta0 + delta[0]  # float64, as beta0 is
    bt, br = normalize_amplitudes(raw[:n], raw[n:])
    return np.concatenate([bt, br]), (cache, raw)


def _amplitude_block_backward(tape, g: np.ndarray):
    # the transpose-Jacobian of the pairwise unit-circle normalization
    cache, raw = tape
    n = raw.size // 2
    bt, br = raw[:n], raw[n:]
    sq = bt**2 + br**2
    common = (br * g[:n] - bt * g[n:]) / (sq * np.sqrt(sq))
    return cache, np.concatenate([br * common, -bt * common])[None, :]


def _phase_block(tn: Mlp, theta0: np.ndarray, phasor0: np.ndarray, W: np.ndarray,
                 precoded: np.ndarray, beta: np.ndarray, cfg: SystemConfig,
                 ch: ChannelSet):
    """phasor0 is exp(j * theta0). Returns the refined phases, their
    phasors and the tape."""
    field = received_field(cfg, effective_rows(cfg, ch, beta * phasor0), W)
    grad = phase_ascent(surface_bracket(cfg, ch, field, precoded, phasor0), beta)
    raw, cache = tn.forward_with_cache(grad[None, :])  # one row
    sig = sigmoid(raw[0].astype(np.float64))
    theta = wrap_phase(theta0 + REGULATOR_GAIN * sig)
    return theta, np.exp(1j * theta), (cache, sig)


def _phase_block_backward(tape, g: np.ndarray):
    # wrap is an a.e. identity; d(gain * sigmoid)/d(raw) = gain*sig*(1-sig)
    cache, sig = tape
    return cache, (g * REGULATOR_GAIN * sig * (1.0 - sig))[None, :]


# --- the full run ----------------------------------------------------------


def initial_state(
    cfg: SystemConfig,
    rng: np.random.Generator,
    beta_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feasible starting point (W0, beta0, theta0): power-normalized
    complex-Gaussian precoder, balanced amplitudes (or the given profile)
    and uniform phases, each surface vector (t half, r half). The generator
    is consumed identically whether or not beta_init is given."""
    W0 = (
        rng.standard_normal((cfg.M, cfg.K)) + 1j * rng.standard_normal((cfg.M, cfg.K))
    ) / np.sqrt(2.0)
    W0 = normalize_power(W0, cfg.p_max)
    theta0 = rng.uniform(0.0, TWO_PI, size=2 * cfg.N)
    beta0 = np.full(2 * cfg.N, 1.0 / np.sqrt(2.0))
    n = cfg.N
    if beta_init is not None:
        beta0 = np.asarray(beta_init, dtype=float)
        # the squares normalize_amplitudes takes; one that overflows is rejected
        with np.errstate(over="ignore"):
            sq = beta0[:n] ** 2 + beta0[n:] ** 2 if beta0.shape == (2 * n,) else None
        if sq is None or (beta0 < 0).any() or not ((sq > 0) & (sq < np.inf)).all():
            raise ConfigurationError("beta_init must be 2N values >= 0, each (t, r) "
                                     "pair's squared norm finite and > 0")
    bt, br = normalize_amplitudes(beta0[:n], beta0[n:])
    return W0, np.concatenate([bt, br]), wrap_phase(theta0)


def run_gml(sys_cfg: SystemConfig, ch: ChannelSet, train: TrainConfig) -> Solution:
    """Full meta-optimization run with all three sub-networks active."""
    return run_meta_loop(sys_cfg, ch, train)


def run_meta_loop(
    sys_cfg: SystemConfig,
    ch: ChannelSet,
    train: TrainConfig,
    enable_an: bool = True,
    enable_tn: bool = True,
    beta_init: np.ndarray | None = None,
) -> Solution:
    """Run the loop with optional frozen variable groups (used by the
    comparison schemes). A disabled network leaves its variable group at
    the initial profile for the entire run."""
    Kind.FLAG.check("enable_an", enable_an)
    Kind.FLAG.check("enable_tn", enable_tn)
    check_dimensions(sys_cfg, ch)
    coupled = train.mode == MODE_COUPLED

    rng = np.random.default_rng(train.seed)
    nets = init_networks(sys_cfg, rng)
    adams = {name: adam_init(getattr(nets, name).flat) for name in ("pn", "an", "tn")}

    W0, beta0, theta0 = initial_state(sys_cfg, rng, beta_init)
    start = (W0, beta0, theta0, np.exp(1j * theta0))
    # The most recent refined point, carried across epochs, and its
    # effective rows.
    point = start
    rows = effective_rows(sys_cfg, ch, beta0 * start[3])

    # The state to report so far, ((locked, r_proj), r_cur, residual, W,
    # beta, theta_hard), ranked on its first entry; in independent mode
    # r_proj == r_cur, theta_hard is theta itself and nothing is locked.
    # Coupled mode prefers any phase-locked state: the global
    # post-projection argmax sits mid-curriculum, within a few epochs of
    # the raw argmax, where phases are only half-locked.
    chosen: tuple | None = None
    wsr_best = -np.inf  # the highest raw rate so far, for its trace
    traces = {name: np.zeros(train.n_epochs) for name in (
        "wsr_current", "wsr_best", "wsr_best_post_projection", "penalty", "rho",
        "power_rel_err", "amp_max_err", "residual_max")}
    traces["phase_diff"] = np.zeros((train.n_epochs, sys_cfg.N))

    for epoch in range(1, train.n_epochs + 1):
        rho = rho_at(train, epoch) if coupled else 0.0
        lr_tn = (LR_THETA * PHASE_RATE_FLOOR ** (epoch / train.n_epochs) if coupled
                 else LR_THETA)
        updates = (enable_an and epoch % N1 == 0,
                   enable_tn and epoch % train.n2 == 0)
        try:
            point, precoded, rows, tapes = _forward_blocks(
                nets, start, point, rows, sys_cfg, ch, enable_an, enable_tn)
            field, r_cur, residual, r_proj, theta_hard, dev = _refined_point(
                sys_cfg, ch, point, rows, coupled)
        except (DegenerateInputError, ConfigurationError) as err:
            raise type(err)(f"epoch {epoch}: {err}") from err
        wsr_best = max(wsr_best, r_cur)
        rank = (coupled and residual < COUPLING_TOL, r_proj)
        if chosen is None or rank > chosen[0]:
            chosen = (rank, r_cur, residual, point[0], point[1], theta_hard)
        _update_networks(nets, adams, lr_tn, epoch, sys_cfg, ch, point, field,
                         precoded, tapes, updates, rho, dev)
        _record_traces(traces, epoch - 1, sys_cfg, point, dev, rho=rho,
                       wsr_current=r_cur, wsr_best=wsr_best,
                       wsr_best_post_projection=chosen[0][1], residual_max=residual)

    (_, wsr_opt), wsr_pre, residual_pre, W_best, beta_best, theta_opt = chosen
    return report_solution(W_best, beta_best, theta_opt, wsr_opt, train.mode,
                           traces, pre=(wsr_pre, residual_pre))


# --- the phases of one epoch -----------------------------------------------


def _forward_blocks(nets, start, point, rows, cfg, ch, enable_an, enable_tn):
    """The refined point, G @ W (None when the surface is frozen), its
    rows and the three tapes (None for a frozen group, which keeps its
    value in point). Each block restarts from start, with the groups
    before it refined and those after it at their values in point."""
    W0, beta0, theta0, phasor0 = start
    _, beta, theta, phasor = point
    W, tape_w = _precoder_block(nets.pn, W0, rows, cfg)
    precoded = tape_a = tape_t = None
    if enable_an or enable_tn:
        precoded = ch.G @ W
        if enable_an:
            beta, tape_a = _amplitude_block(
                nets.an, beta0, W, precoded, phasor, cfg, ch)
        if enable_tn:
            theta, phasor, tape_t = _phase_block(
                nets.tn, theta0, phasor0, W, precoded, beta, cfg, ch)
        rows = effective_rows(cfg, ch, beta * phasor)
    return (W, beta, theta, phasor), precoded, rows, (tape_w, tape_a, tape_t)


def _refined_point(cfg, ch, point, rows, coupled):
    """(field, rate, residual, rate_hard, theta_hard, dev) of the refined
    point and its hardened copy, with dev = theta - theta_proj. In
    independent mode the copy is the point itself and dev is None."""
    W, beta, theta, _ = point
    n = cfg.N
    field = received_field(cfg, rows, W)
    rate = wsr(cfg, field.gammas)
    residual = float(coupling_residual(theta[:n], theta[n:]).max())
    if not coupled:
        return field, rate, residual, rate, theta, None
    aux = project_coupled_phases(theta[:n], theta[n:])
    proj = np.concatenate([aux.theta_t_aux, aux.theta_r_aux])
    theta_hard = wrap_phase(proj)
    hard_rows = effective_rows(cfg, ch, beta * np.exp(1j * theta_hard))
    rate_hard = wsr(cfg, received_sinrs(cfg, hard_rows @ W)[0])
    return field, rate, residual, rate_hard, theta_hard, theta - proj


def _update_networks(nets, adams, lr_tn, epoch, cfg, ch, point, field, precoded,
                     tapes, updates, rho, dev):
    """Pull the loss of the precoder network, and of each surface network
    whose flag in updates is set, back to that network's output; then, in
    pn/an/tn order, form each one's gradient with mlp_backward and Adam
    step it, the phase network at rate lr_tn. Each loss gradient is the
    negated ascent direction at the refined point; in coupled mode (dev
    not None) the phase network's adds 2 * rho * dev."""
    _, beta, _, phasor = point
    tape_w, tape_a, tape_t = tapes
    update_an, update_tn = updates
    steps = [("pn", LR_W, _precoder_block_backward(tape_w, -precoder_pullback(field)))]
    if update_an or update_tn:
        bracket = surface_bracket(cfg, ch, field, precoded, phasor)
    if update_an:
        steps.append(("an", LR_A, _amplitude_block_backward(
            tape_a, -amplitude_ascent(bracket))))
    if update_tn:
        g_t = -phase_ascent(bracket, beta)
        steps.append(("tn", lr_tn, _phase_block_backward(
            tape_t, g_t if dev is None else g_t + 2.0 * rho * dev)))
    for name, lr, net_pass in steps:
        net = getattr(nets, name)
        grad = mlp_backward(net, *net_pass)
        try:
            adam_step(net.flat, grad, adams[name], lr)
        except DegenerateInputError as err:
            raise DegenerateInputError(f"epoch {epoch}, {name} network: {err}") from err
        del grad  # consumed by adam_step; one gradient alive at a time


def _record_traces(traces, idx, cfg, point, dev, **scalars):
    """Write row idx of the traces: the named scalars (the post-projection
    rate is the state's the run would report if it ended here, and may drop
    once a coupled state locks), the penalty rho * ||dev||^2 and the point's
    power and amplitude errors and phase differences."""
    W, beta, theta, _ = point
    n = cfg.N
    for name, value in scalars.items():
        traces[name][idx] = value
    traces["penalty"][idx] = 0.0 if dev is None else scalars["rho"] * float(dev @ dev)
    traces["power_rel_err"][idx] = abs(np.vdot(W, W).real - cfg.p_max) / cfg.p_max
    traces["amp_max_err"][idx] = float(np.abs(beta[:n]**2 + beta[n:]**2 - 1.0).max())
    traces["phase_diff"][idx] = wrap_phase(theta[:n] - theta[n:])


def report_solution(W, beta, theta, wsr_opt, mode, traces, pre=None) -> Solution:
    """The Solution reporting the state (W, beta, theta) at rate wsr_opt.
    pre is the (rate, coupling residual) of the state before hardening;
    None for a state that was not hardened, whose own they are. The state
    is coupled-feasible when max |cos(theta_t - theta_r)| < 1e-9."""
    n = theta.size // 2
    residual = float(coupling_residual(theta[:n], theta[n:]).max())
    wsr_pre, residual_pre = (wsr_opt, residual) if pre is None else pre
    return Solution(W, beta, theta, wsr_opt, wsr_pre, residual_pre,
                    residual < 1e-9, mode, traces)
