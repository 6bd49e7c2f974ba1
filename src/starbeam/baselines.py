"""Comparison schemes: frozen random phases, a split reflect-only /
transmit-only surface, and a projected-gradient-ascent oracle used as a
desk-scale quality reference."""
from __future__ import annotations

import numpy as np

from .constraints import (
    coupling_residual,
    normalize_amplitudes,
    normalize_power,
    wrap_phase,
)
from .errors import ConfigurationError
from .gradients import wsr_gradients
from .model import BeamformingState, ChannelSet, SystemConfig, evaluate_wsr
from .training import (
    MODE_INDEPENDENT,
    Solution,
    TrainConfig,
    initial_state,
    run_meta_loop,
)


def random_phase_baseline(
    sys_cfg: SystemConfig, ch: ChannelSet, train: TrainConfig
) -> Solution:
    """Freeze uniformly random phases and balanced amplitudes; only the
    precoder network runs."""
    return run_meta_loop(sys_cfg, ch, train, enable_an=False, enable_tn=False)


def conventional_ris_baseline(
    sys_cfg: SystemConfig, ch: ChannelSet, train: TrainConfig
) -> Solution:
    """Adjacent reflect-only and transmit-only half-surfaces: the first N/2
    elements reflect (beta_r = 1), the last N/2 transmit (beta_t = 1).
    Amplitudes stay frozen; precoder and phases are optimized."""
    n = sys_cfg.N
    if n % 2 != 0:
        raise ConfigurationError("conventional-surface baseline needs even N")
    half = n // 2
    beta_t = np.concatenate([np.zeros(half), np.ones(half)])
    beta_r = np.concatenate([np.ones(half), np.zeros(half)])
    beta_init = np.concatenate([beta_t, beta_r])
    return run_meta_loop(
        sys_cfg, ch, train, enable_an=False, enable_tn=True, beta_init=beta_init
    )


def pga_oracle(
    sys_cfg: SystemConfig,
    ch: ChannelSet,
    steps: int = 300,
    seed: int = 0,
) -> Solution:
    """Monotone projected gradient ascent over (W, beta, theta) with
    backtracking step control; independent-phase model only.

    The (precoder, amplitude, phase) base steps are scaled from the
    variable and gradient norms at the start.
    Each accepted iterate is renormalized, so every point on the trace is
    feasible, and the rate trace is non-decreasing by construction. There
    is no penalty, so the penalty and rho traces are zero, as in
    independent mode.
    """
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    state = initial_state(sys_cfg, rng)
    n = sys_cfg.N

    bundle = wsr_gradients(sys_cfg, ch, state)
    tiny = np.finfo(float).tiny
    s_w = float(np.sqrt(sys_cfg.p_max) / max(np.linalg.norm(bundle.grad_w), tiny))
    s_b = float(np.sqrt(n) / max(np.linalg.norm(bundle.grad_beta), tiny))
    s_t = float(np.pi * np.sqrt(2 * n) / max(np.linalg.norm(bundle.grad_theta), tiny))

    def project(W, beta, theta) -> BeamformingState:
        W = normalize_power(W, sys_cfg.p_max)
        bt, br = normalize_amplitudes(beta[:n], beta[n:])
        return BeamformingState(W, bt, br, *np.split(wrap_phase(theta), 2))

    rate = bundle.rate
    trace = np.zeros(steps)
    shrink = 1.0
    for it in range(steps):
        if it > 0:  # step 0 uses the start bundle
            bundle = wsr_gradients(sys_cfg, ch, state)
        accepted = False
        t = min(1.0, 2.0 * shrink)
        for _ in range(40):
            candidate = project(
                state.W + t * s_w * bundle.grad_w,
                state.beta + t * s_b * bundle.grad_beta,
                state.theta + t * s_t * bundle.grad_theta,
            )
            cand_rate = evaluate_wsr(sys_cfg, ch, candidate)
            if cand_rate > rate:
                state, rate, shrink, accepted = candidate, cand_rate, t, True
                break
            t *= 0.5
        trace[it] = rate
        if not accepted:
            trace[it:] = rate
            break

    residual = coupling_residual(state.theta_t, state.theta_r)
    return Solution(
        W_opt=state.W,
        beta_opt=state.beta,
        theta_opt=state.theta,
        wsr_opt=rate,
        wsr_pre_projection=rate,
        residual_pre_projection=float(np.max(residual)),
        feasible_coupled=bool(np.max(residual) < 1e-9),
        mode=MODE_INDEPENDENT,
        traces={"wsr_best": trace, "wsr_current": trace.copy(),
                "penalty": np.zeros(steps), "rho": np.zeros(steps)},
    )
