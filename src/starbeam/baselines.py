"""Comparison schemes: frozen random phases, a split reflect-only /
transmit-only surface, and a projected-gradient-ascent oracle used as a
desk-scale quality reference."""
from __future__ import annotations

import numpy as np

from .constraints import normalize_amplitudes, normalize_power, wrap_phase
from .errors import ConfigurationError, Kind
from .gradients import (amplitude_ascent, phase_ascent, precoder_pullback,
                        received_field, surface_bracket)
from .model import ChannelSet, SystemConfig, check_dimensions, effective_rows, wsr
from .training import (
    MODE_INDEPENDENT,
    Solution,
    TrainConfig,
    initial_state,
    report_solution,
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

    The iterate is kept as arrays (W, beta, theta) with its phasors
    exp(j * theta) and its received field; no state object is built. Each
    candidate is evaluated once, through its effective rows and field, and
    its rate is bitwise :func:`model.evaluate_wsr` of the state. The
    accepted candidate's field and phasors give the next step's gradients
    without re-evaluating it.
    """
    Kind.COUNT.check("steps", steps)
    Kind.SEED.check("seed", seed)
    check_dimensions(sys_cfg, ch)
    start = initial_state(sys_cfg, np.random.default_rng(seed))
    n = sys_cfg.N

    def evaluate(W, beta, theta):
        """The state, its phasors, its field and its rate."""
        phasor = np.exp(1j * theta)
        field = received_field(
            sys_cfg, effective_rows(sys_cfg, ch, beta * phasor), W
        )
        return (W, beta, theta, phasor, field), wsr(sys_cfg, field.gammas)

    def project(W, beta, theta):
        W = normalize_power(W, sys_cfg.p_max)
        bt, br = normalize_amplitudes(beta[:n], beta[n:])
        return evaluate(W, np.concatenate([bt, br]), wrap_phase(theta))

    current, rate = evaluate(*start)
    tiny = np.finfo(float).tiny
    trace = np.zeros(steps)
    shrink = 1.0
    for it in range(steps):
        W, beta, theta, phasor, field = current
        bracket = surface_bracket(sys_cfg, ch, field, ch.G @ W, phasor)
        grad_beta, grad_theta = amplitude_ascent(bracket), phase_ascent(bracket, beta)
        grad_w = precoder_pullback(field)
        if it == 0:  # the base steps, from the norms at the start
            s_w = float(np.sqrt(sys_cfg.p_max) / max(np.linalg.norm(grad_w), tiny))
            s_b = float(np.sqrt(n) / max(np.linalg.norm(grad_beta), tiny))
            s_t = float(np.pi * np.sqrt(2 * n) / max(np.linalg.norm(grad_theta), tiny))
        accepted = False
        t = min(1.0, 2.0 * shrink)
        for _ in range(40):
            candidate, cand_rate = project(
                W + t * s_w * grad_w,
                beta + t * s_b * grad_beta,
                theta + t * s_t * grad_theta,
            )
            if cand_rate > rate:
                current, rate, shrink, accepted = candidate, cand_rate, t, True
                break
            t *= 0.5
        trace[it] = rate
        if not accepted:
            trace[it:] = rate
            break

    W, beta, theta = current[:3]
    return report_solution(W, beta, theta, rate, MODE_INDEPENDENT, {
        "wsr_best": trace, "wsr_current": trace.copy(),
        "penalty": np.zeros(steps), "rho": np.zeros(steps)})
