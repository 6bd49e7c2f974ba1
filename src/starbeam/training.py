"""The nested meta-optimization loop.

Three levels: inner iterations refine one variable group at a time
(precoder, then amplitudes, then phases) through its sub-network; outer
iterations restart every variable group from the run's initial matrices
and accumulate per-network losses at the refined point; epoch iterations
average those losses and apply Adam to the network parameters (the
precoder network every epoch, the amplitude and phase networks on their
own intervals). What improves across epochs is the networks, not a
persistent iterate.

Gradients by need: each inner step feeds its network one gradient, so it
calls :func:`received_field` and the one pullback it needs
(:func:`precoder_pullback` in the precoder block, :func:`surface_pullback`
in the amplitude and phase blocks) and computes no rate. Within an outer
iteration the amplitude and phase blocks share G @ W of the refined
precoder, and each phase profile's phasors exp(j * theta) are computed
once: the start profile's once per run, each refined profile's once when
the phase block produces it, for the next precoder and amplitude blocks.
Each outer iteration evaluates the refined point once, from the pieces
and not through :func:`wsr_gradients`: its effective rows, its field, the
precoder loss gradient and the rate, and the amplitude and phase loss
gradients only on epochs that update those networks, reusing the
precoder's G @ W. Its rows are the next precoder block's, whose amplitudes
and phases stay fixed. Only the hardened copy of a coupled-mode state, a
different state, is evaluated separately, from its rows and SINRs.
Each backward chain returns its network's passes, (forward cache, loss
gradient on the output) pairs, and the loop keeps them over the epoch's
outer iterations; after the last one, each network that updates forms its
gradient from all its passes in one :func:`mlp_backward` call, steps on
its mean and drops it. No network steps before every pass is recorded, and
no chain reads a network's parameters, so the order is free.

Precision: the networks, their parameter gradients and their Adam state
are float32 (networks.NET_DTYPE); the states, the rates, the loss
gradients and the constraint checks stay float64. The boundary is the
network call: a network casts the float64 gradient it is fed, and each
block takes the output back to float64 before it touches the state (a
complex128 precoder update, beta + delta, the phase network's raw output
before the sigmoid); a backward pass casts its float64 loss gradient as it
enters the network.

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

Phase-rate decay: in coupled mode the phase network's Adam rate falls
geometrically over the run, lr_theta * PHASE_RATE_FLOOR ** (epoch /
n_epochs). Each epoch the phase network remakes the whole phase profile
from theta0, and at a constant rate its steps keep the coupling residual
jittering around 0.02-0.05 through the second half of a run; the decay
makes the lock hold to the last epoch. Independent mode and the other two
networks keep constant rates.

Selection of the reported state: the refined state, over all outer
iterations, that ranks highest on (phase-locked, post-projection rate),
the first of equals winning. Only coupled mode locks, when max
|cos(theta_t - theta_r)| is below COUPLING_TOL, so independent mode
reports the highest raw rate. A coupled run that never locked reports its
highest post-projection rate, and residual_pre_projection shows the miss.
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
from .gradients import precoder_pullback, received_field, surface_pullback
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
    pn_forward_with_cache,
)

MODE_INDEPENDENT = "independent"
MODE_COUPLED = "coupled"

PN_HIDDEN = 200
AN_HIDDEN = 300
TN_HIDDEN = 300

# Each phase-network step adds REGULATOR_GAIN * sigmoid(raw) to the phases:
# an increment in (0, 2*pi), so one step can reach any phase.
REGULATOR_GAIN = TWO_PI

# In coupled mode the phase network's Adam rate decays geometrically, from
# lr_theta at epoch 0 to PHASE_RATE_FLOOR * lr_theta at the final epoch.
PHASE_RATE_FLOOR = 0.1


@dataclass(frozen=True)
class TrainConfig:
    """Iteration counts, learning rates, and schedule of one run.

    In coupled mode the penalty weight rho follows a geometric curriculum
    from rho_min at epoch 0 to rho_max at the final epoch (see rho_at)."""

    n_epochs: int = 500
    n_outer: int = 1
    n_inner: int = 1
    lr_w: float = 1e-3        # precoder-network Adam rate
    lr_a: float = 5e-3        # amplitude-network Adam rate
    lr_theta: float = 5e-3    # phase-network Adam rate
    n1: int = 5               # amplitude network updates every n1 epochs
    n2: int = 5               # phase network updates every n2 epochs
    mode: str = MODE_INDEPENDENT
    rho_min: float = 1e-2     # coupled-mode penalty weight at epoch 0
    rho_max: float = 1e2      # and at the final epoch
    seed: int = 0

    FIELD_KINDS = {
        "n_epochs": Kind.COUNT, "n_outer": Kind.COUNT, "n_inner": Kind.COUNT,
        "lr_w": Kind.POSITIVE, "lr_a": Kind.POSITIVE, "lr_theta": Kind.POSITIVE,
        "n1": Kind.COUNT, "n2": Kind.COUNT,
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
    after hardening (unchanged in independent mode)."""

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
        raise ValueError(
            f"epoch must be an integer in [0, n_epochs]; got {epoch!r}")
    ratio = train.rho_max / train.rho_min
    return float(train.rho_min * ratio ** (epoch / train.n_epochs))


# --- forward blocks (with tapes) and their backward passes ----------------


def _precoder_block(
    pn: Mlp,
    W0: np.ndarray,
    rows: np.ndarray,
    cfg: SystemConfig,
    n_inner: int,
):
    """Refine the precoder from W0 at fixed surface coefficients, given by
    their effective rows; returns it and the tape of its backward pass.
    The other blocks take the shared G @ W and phasors exp(j * theta) and
    return the same way."""
    W = W0
    tape = []
    for _ in range(n_inner):
        grad = precoder_pullback(received_field(cfg, rows, W))
        delta, cache = pn_forward_with_cache(pn, grad)
        w_raw = W + delta
        sq = np.vdot(w_raw, w_raw).real
        if not sq > 0:
            raise DegenerateInputError("precoder collapsed to zero mid-update")
        scale = np.sqrt(cfg.p_max / sq)
        tape.append((cache, w_raw, scale, sq))
        W = scale * w_raw
    return W, tape


def _precoder_block_backward(tape, grad_w_out: np.ndarray) -> list:
    """Pull a conjugate-convention loss gradient on the final precoder back
    through the normalize/add/network chain; returns the network's passes,
    (cache, loss gradient on its output) per inner step, for
    :func:`mlp_backward`. Network inputs are constants. The other block
    backward passes return their passes the same way."""
    passes = []
    g = grad_w_out
    for cache, w_raw, scale, sq in reversed(tape):
        # d loss = 2 Re<g, dW_out>, W_out = scale(w_raw) * w_raw
        q = np.vdot(g, w_raw).real
        g_raw = scale * g - (scale * q / sq) * w_raw
        passes.append((cache, np.concatenate([2.0 * g_raw.real.T,
                                              2.0 * g_raw.imag.T])))
        g = g_raw
    return passes


def _amplitude_block(
    an: Mlp,
    beta0: np.ndarray,
    W: np.ndarray,
    precoded: np.ndarray,
    phasor: np.ndarray,
    cfg: SystemConfig,
    ch: ChannelSet,
    n_inner: int,
):
    """precoded is G @ W."""
    beta = beta0
    n = beta0.size // 2
    tape = []
    for _ in range(n_inner):
        field = received_field(cfg, effective_rows(cfg, ch, beta * phasor), W)
        grad = 2.0 * surface_pullback(cfg, ch, field, precoded, phasor).real
        delta, cache = an.forward_with_cache(grad)
        raw = beta + delta  # float64, as beta is
        bt, br = normalize_amplitudes(raw[:n], raw[n:])
        tape.append((cache, raw))
        beta = np.concatenate([bt, br])
    return beta, tape


def _amp_norm_backward(g_out: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Transpose-Jacobian of the pairwise unit-circle normalization."""
    n = raw.size // 2
    bt, br = raw[:n], raw[n:]
    g_bt, g_br = g_out[:n], g_out[n:]
    sq = bt**2 + br**2
    common = (br * g_bt - bt * g_br) / (sq * np.sqrt(sq))
    return np.concatenate([br * common, -bt * common])


def _amplitude_block_backward(tape, grad_beta_out: np.ndarray) -> list:
    passes = []
    g = grad_beta_out
    for cache, raw in reversed(tape):
        g = _amp_norm_backward(g, raw)
        passes.append((cache, g))
    return passes


def _phase_block(
    tn: Mlp,
    theta0: np.ndarray,
    phasor0: np.ndarray,
    W: np.ndarray,
    precoded: np.ndarray,
    beta: np.ndarray,
    cfg: SystemConfig,
    ch: ChannelSet,
    n_inner: int,
):
    """phasor0 is exp(j * theta0). Returns the refined phases, their
    phasors and the tape."""
    theta, phasor = theta0, phasor0
    tape = []
    for _ in range(n_inner):
        field = received_field(cfg, effective_rows(cfg, ch, beta * phasor), W)
        bracket = surface_pullback(cfg, ch, field, precoded, phasor)
        raw, cache = tn.forward_with_cache(-2.0 * beta * bracket.imag)
        sig = sigmoid(raw.astype(np.float64))
        tape.append((cache, sig))
        theta = wrap_phase(theta + REGULATOR_GAIN * sig)
        phasor = np.exp(1j * theta)
    return theta, phasor, tape


def _phase_block_backward(tape, grad_theta_out: np.ndarray) -> list:
    # wrap is an a.e. identity; d(gain * sigmoid)/d(raw) = gain*sig*(1-sig),
    # and d(theta_next)/d(theta_prev) = 1, so g passes through unchanged
    g = grad_theta_out
    return [(cache, g * REGULATOR_GAIN * sig * (1.0 - sig))
            for cache, sig in reversed(tape)]


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
    if beta_init is not None:
        beta0 = np.asarray(beta_init, dtype=float).copy()
        if beta0.shape != (2 * cfg.N,):
            raise ConfigurationError("beta_init must have length 2N")
    n = cfg.N
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
    n = sys_cfg.N

    rng = np.random.default_rng(train.seed)
    nets = init_networks(sys_cfg, rng)
    pn, an, tn = nets.pn, nets.an, nets.tn
    adams = (adam_init(pn.flat), adam_init(an.flat), adam_init(tn.flat))

    W0, beta0, theta0 = initial_state(sys_cfg, rng, beta_init)
    phasor0 = np.exp(1j * theta0)

    # Most recent refined values, carried across outer iterations/epochs,
    # and the effective rows of (beta_star, phasor_star).
    W_star, beta_star, theta_star, phasor_star = W0, beta0, theta0, phasor0
    rows = effective_rows(sys_cfg, ch, beta0 * phasor0)

    # The state to report so far, ((locked, r_proj), r_cur, residual, W,
    # beta, theta_hard), ranked on its first entry; in independent mode
    # r_proj == r_cur, theta_hard is theta itself and nothing is locked.
    # Coupled mode prefers any phase-locked state: the global
    # post-projection argmax sits mid-curriculum, within a few epochs of
    # the raw argmax, where phases are only half-locked.
    chosen: tuple | None = None
    wsr_best = -np.inf  # the highest raw rate so far, for its trace

    n_epochs = train.n_epochs
    traces = {
        "wsr_current": np.zeros(n_epochs),
        "wsr_best": np.zeros(n_epochs),
        "wsr_best_post_projection": np.zeros(n_epochs),
        "penalty": np.zeros(n_epochs),
        "rho": np.zeros(n_epochs),
        "power_rel_err": np.zeros(n_epochs),
        "amp_max_err": np.zeros(n_epochs),
        "residual_max": np.zeros(n_epochs),
        "phase_diff": np.zeros((n_epochs, n)),
    }

    for epoch in range(1, n_epochs + 1):
        rho = rho_at(train, epoch) if coupled else 0.0
        lr_tn = (train.lr_theta * PHASE_RATE_FLOOR ** (epoch / n_epochs)
                 if coupled else train.lr_theta)
        update_an = enable_an and epoch % train.n1 == 0
        update_tn = enable_tn and epoch % train.n2 == 0
        # Each network's backward passes over the epoch's outer iterations.
        passes_pn, passes_an, passes_tn = [], [], []

        for outer in range(1, train.n_outer + 1):
            try:
                W_star, tape_w = _precoder_block(
                    pn, W0, rows, sys_cfg, train.n_inner
                )
                if enable_an or enable_tn:
                    precoded = ch.G @ W_star
                    if enable_an:
                        beta_star, tape_a = _amplitude_block(
                            an, beta0, W_star, precoded, phasor_star, sys_cfg,
                            ch, train.n_inner,
                        )
                    if enable_tn:
                        theta_star, phasor_star, tape_t = _phase_block(
                            tn, theta0, phasor0, W_star, precoded, beta_star,
                            sys_cfg, ch, train.n_inner,
                        )
                    rows = effective_rows(sys_cfg, ch, beta_star * phasor_star)

                # The refined point, evaluated once; its rows serve the next
                # precoder block.
                field = received_field(sys_cfg, rows, W_star)
                r_cur = wsr(sys_cfg, field.gammas)
                theta_t, theta_r = theta_star[:n], theta_star[n:]
                residual = float(coupling_residual(theta_t, theta_r).max())

                r_proj = r_cur
                theta_hard = theta_star
                dev_sq = 0.0
                if coupled:
                    aux = project_coupled_phases(theta_t, theta_r)
                    proj = np.concatenate([aux.theta_t_aux, aux.theta_r_aux])
                    dev = theta_star - proj
                    dev_sq = float(dev @ dev)
                    theta_hard = wrap_phase(proj)
                    hard_rows = effective_rows(
                        sys_cfg, ch, beta_star * np.exp(1j * theta_hard)
                    )
                    r_proj = wsr(
                        sys_cfg, received_sinrs(sys_cfg, hard_rows @ W_star)[0]
                    )

                # Per-network losses all sit at the refined point; each
                # parameter set sees only its own update chain. The loss
                # gradients are the negated ascent directions.
                passes_pn += _precoder_block_backward(
                    tape_w, -precoder_pullback(field)
                )
                if update_an or update_tn:
                    bracket = surface_pullback(
                        sys_cfg, ch, field, precoded, phasor_star
                    )
                if update_an:
                    passes_an += _amplitude_block_backward(
                        tape_a, -2.0 * bracket.real
                    )
                if update_tn:
                    g_t = 2.0 * beta_star * bracket.imag
                    if coupled:
                        g_t = g_t + 2.0 * rho * (theta_star - proj)
                    passes_tn += _phase_block_backward(tape_t, g_t)
            except (DegenerateInputError, ConfigurationError) as err:
                raise type(err)(
                    f"epoch {epoch}, outer iteration {outer}: {err}"
                ) from err

            wsr_best = max(wsr_best, r_cur)
            rank = (coupled and residual < COUPLING_TOL, r_proj)
            if chosen is None or rank > chosen[0]:
                chosen = (rank, r_cur, residual, W_star, beta_star, theta_hard)

        # Each updating network steps on the mean of its outer iterations'
        # gradients, formed in one backward call.
        for net, adam, lr, passes in ((pn, adams[0], train.lr_w, passes_pn),
                                      (an, adams[1], train.lr_a, passes_an),
                                      (tn, adams[2], lr_tn, passes_tn)):
            if passes:
                grad = mlp_backward(net, passes)
                if train.n_outer > 1:  # x * 1.0 == x
                    grad *= 1.0 / train.n_outer
                adam_step(net.flat, grad, adam, lr)
                del grad  # one gradient alive at a time

        idx = epoch - 1
        traces["wsr_current"][idx] = r_cur
        traces["wsr_best"][idx] = wsr_best
        # Post-projection rate of the state that would be reported if the
        # run ended here; in coupled mode it may drop once a state locks.
        traces["wsr_best_post_projection"][idx] = chosen[0][1]
        traces["rho"][idx] = rho
        traces["penalty"][idx] = rho * dev_sq
        traces["power_rel_err"][idx] = (
            abs(np.vdot(W_star, W_star).real - sys_cfg.p_max) / sys_cfg.p_max
        )
        traces["amp_max_err"][idx] = float(
            np.abs(beta_star[:n]**2 + beta_star[n:]**2 - 1.0).max()
        )
        traces["residual_max"][idx] = residual
        traces["phase_diff"][idx] = wrap_phase(theta_t - theta_r)

    (_, wsr_opt), wsr_pre, residual_pre, W_best, beta_best, theta_opt = chosen
    feasible = bool(
        np.max(coupling_residual(theta_opt[:n], theta_opt[n:])) < 1e-9
    )
    return Solution(
        W_opt=W_best,
        beta_opt=beta_best,
        theta_opt=theta_opt,
        wsr_opt=wsr_opt,
        wsr_pre_projection=wsr_pre,
        residual_pre_projection=residual_pre,
        feasible_coupled=feasible,
        mode=train.mode,
        traces=traces,
    )
