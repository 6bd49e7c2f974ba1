"""Closed-form ascent gradients of the weighted sum-rate, plus
central-difference references to check them against.

The gradients come in three pieces. :func:`received_field` is the shared
stage: from the effective rows of :func:`model.effective_rows` and the
precoder it forms the received amplitudes U, the SINRs and the chain-rule
coefficient matrix C. :func:`precoder_pullback` turns it into the precoder
gradient, and :func:`surface_bracket` into the bracket from which
:func:`amplitude_ascent` and :func:`phase_ascent` form the amplitude and
phase gradients, the one place that forms each. The weighted sum-rate at
the state is :func:`model.wsr` of the field's SINRs, bitwise
:func:`model.evaluate_wsr` there.

Callers take the pieces they need, each once per state:

- the meta-loop's precoder block: the field and the precoder pullback, at
  rows it is handed (the refined point's, as beta and theta are fixed);
- its amplitude and phase blocks: rows, the field and the surface
  bracket, from which each forms only the gradient it feeds its network;
- its refined point: rows, the field, the precoder pullback and the rate,
  and the bracket and both surface gradients on the epochs that update the
  amplitude or phase network; its rows serve the next precoder block;
- :func:`baselines.pga_oracle`: rows, the field and the rate of every
  candidate, and all three gradients of each accepted one.

:func:`wsr_gradients` composes all of them into a :class:`GradientBundle`
at a :class:`model.BeamformingState`, for the finite-difference
cross-check and the tests; its values are bitwise those of the pieces.

``starbeam grad-check`` takes the central differences of
:func:`wsr_finite_diff`, which rates the 2P+1 probes of a state by kind in
one pass through the model kernels: the precoder probes reuse the state's
effective rows, the surface probes and the state itself its precoder.
:func:`finite_diff_gradient` is the per-state oracle, one state and one
objective call per probe; on :func:`model.evaluate_wsr` it gives bitwise
the same bundle.

Convention for the complex precoder gradient: grad_w is the conjugate
(Wirtinger) ascent direction, i.e. for every perturbation matrix D

    d/dt R(W + t * D) |_{t=0}  =  2 * Re trace(grad_w^H D),

equivalently grad_w = 0.5 * (dR/dRe(W) + j * dR/dIm(W)). Amplitude and
phase gradients are ordinary partial derivatives over the concatenated
(t-half, r-half) vectors of length 2N.

The pieces differentiate the per-side form of :mod:`model`: each user's
row of N coefficients is picked from (c_t, c_r) by its side, and each
user's N-dimensional contribution is summed into the half of its side.
They share the effective rows and the SINR arithmetic with
:func:`model.all_sinrs`; the stacked 2N-dimensional form survives only as
the :func:`model.sinr_augmented` cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import is_real
from .model import (
    BeamformingState,
    ChannelSet,
    SystemConfig,
    check_dimensions,
    effective_rows,
    received_sinrs,
    wsr,
)

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class GradientBundle:
    """Ascent directions for the three variable groups, and the weighted
    sum-rate at the state they were taken at."""

    grad_w: np.ndarray      # (M, K) complex, conjugate-gradient convention
    grad_beta: np.ndarray   # (2N,) d(WSR)/d(beta_t, beta_r)
    grad_theta: np.ndarray  # (2N,) d(WSR)/d(theta_t, theta_r)
    rate: float


class ReceivedField(NamedTuple):
    """What the users receive at one state, and how the rate weighs it."""

    rows: np.ndarray    # (K, M) effective downlink rows
    U: np.ndarray       # (K, K) U[k, j]: amplitude user k gets from column j
    gammas: np.ndarray  # (K,) SINRs
    C: np.ndarray       # (K, K) chain-rule coefficients of |U[k, j]|^2


def received_field(
    cfg: SystemConfig, rows: np.ndarray, W: np.ndarray
) -> ReceivedField:
    """The stage shared by both pullbacks, at precoder W and the (K, M)
    effective rows of the surface coefficients (:func:`model.effective_rows`).

    Derivation: the rate of user k depends on the signal power |U[k, k]|^2
    and the interference sum_{j != k} |U[k, j]|^2. Chain-ruling log2(1 +
    gamma) gives a per-(k, j) coefficient matrix C (positive on the
    diagonal, -gamma_k-scaled off it) that weights the elementary
    derivatives of |U[k, j]|^2 with respect to each variable group.
    Dimensions are the caller's to check.
    """
    U = rows @ W
    gammas, denom = received_sinrs(cfg, U)
    sig_coef = cfg.weight_array / (_LN2 * (1.0 + gammas) * denom)    # (K,)
    k = cfg.K
    C = np.repeat(-(sig_coef * gammas), k).reshape(k, k)
    C.reshape(-1)[:: k + 1] = sig_coef
    return ReceivedField(rows, U, gammas, C)


def precoder_pullback(field: ReceivedField) -> np.ndarray:
    """The (M, K) precoder ascent direction, rows^H (C * U)."""
    return field.rows.conj().T @ (field.C * field.U)


def surface_bracket(cfg: SystemConfig, ch: ChannelSet, field: ReceivedField,
                    precoded: np.ndarray, phasor: np.ndarray) -> np.ndarray:
    """The (2N,) complex bracket b of both surface ascent directions at the
    field's state, whose phasors are exp(j * theta); precoded is G @ W."""
    # per user k and element n: sum_j C[k,j] * conj(U[k,j]) * conj(h[k,n])
    # * precoded[n,j]; the per-side bracket b sums it over the users of each
    # side, into the t half or the r half, and applies the element's phase.
    prod = ch.h_conj * ((field.C * np.conj(field.U)) @ precoded.T)  # (K, N)
    return phasor * (cfg.side_mask * prod[:, None, :]).sum(axis=0).ravel()


def amplitude_ascent(bracket: np.ndarray) -> np.ndarray:
    """grad_beta: d/dbeta of beta * exp(j * theta) is exp(j * theta)."""
    return 2.0 * bracket.real


def phase_ascent(bracket: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """grad_theta: d/dtheta of beta * exp(j * theta) is j times it."""
    return -2.0 * beta * bracket.imag


def wsr_gradients(
    cfg: SystemConfig, ch: ChannelSet, state: BeamformingState
) -> GradientBundle:
    """All three analytic gradients and the rate at one state."""
    check_dimensions(cfg, ch, state)
    beta = state.beta
    phasor = np.exp(1j * state.theta)
    field = received_field(cfg, effective_rows(cfg, ch, beta * phasor), state.W)
    bracket = surface_bracket(cfg, ch, field, ch.G @ state.W, phasor)
    return GradientBundle(precoder_pullback(field), amplitude_ascent(bracket),
                          phase_ascent(bracket, beta), wsr(cfg, field.gammas))


def state_to_vector(state: BeamformingState) -> np.ndarray:
    """Flatten a state into the real coordinate vector
    [Re W, Im W, beta_t, beta_r, theta_t, theta_r]."""
    return np.concatenate(
        [
            state.W.real.ravel(),
            state.W.imag.ravel(),
            state.beta_t,
            state.beta_r,
            state.theta_t,
            state.theta_r,
        ]
    )


def _unpack(x: np.ndarray, M: int, N: int, K: int):
    """(W, beta, theta) of real coordinate vectors x, (..., P) with the
    layout of :func:`state_to_vector`; leading axes carry through."""
    mk = M * K
    W = (x[..., :mk] + 1j * x[..., mk : 2 * mk]).reshape(*x.shape[:-1], M, K)
    return W, x[..., 2 * mk : 2 * mk + 2 * N], x[..., 2 * mk + 2 * N :]


def state_from_vector(vec: np.ndarray, M: int, N: int, K: int) -> BeamformingState:
    """Inverse of :func:`state_to_vector`."""
    W, beta, theta = _unpack(vec, M, N, K)
    return BeamformingState(W, beta[:N], beta[N:], theta[:N], theta[N:])


def _probes(x0: np.ndarray, step: float) -> np.ndarray:
    """The (2p+1, p) probes of p real coordinates x0: row i is x0 + step *
    e_i, row p + i is x0 - step * e_i and the last row x0. Only the
    perturbed entries are written, so a -0.0 elsewhere keeps its sign."""
    if not (is_real(step) and step > 0):
        raise ValueError(
            f"step must be positive and finite (a real, not a bool); got {step!r}")
    p = x0.size
    X = np.repeat(x0[None], 2 * p + 1, axis=0)
    X[:p].reshape(-1)[:: p + 1] += step  # a block's diagonal, as X is contiguous
    X[p : 2 * p].reshape(-1)[:: p + 1] -= step
    return X


def _difference_bundle(
    rates: np.ndarray, step: float, M: int, N: int, K: int
) -> GradientBundle:
    """The central differences of the rates of :func:`_probes`, with the
    precoder block as 0.5 * (d/dRe + j * d/dIm), comparable with the analytic
    conjugate gradient, and the rate at the state itself."""
    p = rates.size // 2
    grad = (rates[:p] - rates[p : 2 * p]) / (2.0 * step)
    grad_w, grad_beta, grad_theta = _unpack(grad, M, N, K)
    return GradientBundle(0.5 * grad_w, grad_beta, grad_theta, float(rates[-1]))


def finite_diff_gradient(
    objective: Callable[[BeamformingState], float],
    state: BeamformingState,
    step: float = 1e-6,
) -> GradientBundle:
    """Central differences of any objective over every real coordinate of
    the state, one state and one objective call per probe: the per-state
    oracle that :func:`wsr_finite_diff` is checked against."""
    X = _probes(state_to_vector(state), step)
    M, K = state.W.shape
    N = state.beta_t.shape[0]
    rates = np.array([objective(state_from_vector(x, M, N, K)) for x in X])
    return _difference_bundle(rates, step, M, N, K)


def wsr_finite_diff(
    cfg: SystemConfig, ch: ChannelSet, state: BeamformingState, step: float
) -> GradientBundle:
    """:func:`finite_diff_gradient` of :func:`model.evaluate_wsr`, bitwise,
    with the probes rated by kind in one pass through the model kernels.

    The 2q precoder probes (q = 2MK) share the state's surface, so they take
    its effective rows times their perturbed precoders. The 2s surface
    probes (s = 4N) and x0 share state.W; their phasors are the state's,
    but for exp(j * (theta ± step)) at each perturbed phase. The received
    amplitudes are put back in the order of :func:`_probes` and rated by
    one :func:`model.received_sinrs` and one :func:`model.wsr` call."""
    check_dimensions(cfg, ch, state)
    x0 = state_to_vector(state)
    q, s, n = 2 * cfg.M * cfg.K, 4 * cfg.N, 2 * cfg.N
    Wp = _unpack(_probes(x0[:q], step)[:-1], cfg.M, cfg.N, cfg.K)[0]
    S = _probes(x0[q:], step)  # beta+, theta+, beta-, theta-, x0
    theta0 = x0[q + n :]
    phasor = np.repeat(np.exp(1j * theta0)[None], 2 * s + 1, axis=0)
    # the diagonals of the theta+ and theta- blocks
    phasor[n : 2 * n].reshape(-1)[:: n + 1] = np.exp(1j * (theta0 + step))
    phasor[s + n : s + 2 * n].reshape(-1)[:: n + 1] = np.exp(1j * (theta0 - step))
    rows = effective_rows(cfg, ch, S[:, :n] * phasor)
    U_w, U_s = rows[-1] @ Wp, rows @ state.W
    U = np.concatenate([U_w[:q], U_s[:s], U_w[q:], U_s[s:]])
    rates = wsr(cfg, received_sinrs(cfg, U)[0])
    return _difference_bundle(rates, step, cfg.M, cfg.N, cfg.K)
