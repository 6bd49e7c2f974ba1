"""Closed-form ascent gradients of the weighted sum-rate, plus an
independent central-difference oracle.

One call of :func:`wsr_gradients` yields a :class:`GradientBundle` with all
three gradients and the weighted sum-rate at the state, the rate computed
from the same SINRs by :func:`model.wsr` and so bitwise equal to
:func:`model.evaluate_wsr` there. A caller that needs several of these at
one state computes the bundle once.

Convention for the complex precoder gradient: grad_w is the conjugate
(Wirtinger) ascent direction, i.e. for every perturbation matrix D

    d/dt R(W + t * D) |_{t=0}  =  2 * Re trace(grad_w^H D),

equivalently grad_w = 0.5 * (dR/dRe(W) + j * dR/dIm(W)). Amplitude and
phase gradients are ordinary partial derivatives over the concatenated
(t-half, r-half) vectors of length 2N.

The bundle differentiates the per-side form of :mod:`model`: each user's
row of N coefficients is picked from (c_t, c_r) by its side, and each
user's N-dimensional contribution is summed into the half of its side.
It shares the effective rows and the SINR arithmetic with
:func:`model.all_sinrs`; the stacked 2N-dimensional form survives only as
the :func:`model.sinr_augmented` cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    sum-rate at the state they were taken at (nan if not computed)."""

    grad_w: np.ndarray      # (M, K) complex, conjugate-gradient convention
    grad_beta: np.ndarray   # (2N,) d(WSR)/d(beta_t, beta_r)
    grad_theta: np.ndarray  # (2N,) d(WSR)/d(theta_t, theta_r)
    rate: float = float("nan")


def wsr_gradients(
    cfg: SystemConfig, ch: ChannelSet, state: BeamformingState
) -> GradientBundle:
    """All three analytic gradients and the rate at one state.

    Derivation: with u[k, j] the amplitude user k receives from precoder
    column j, the rate of user k depends on the signal power |u[k, k]|^2
    and the interference sum_{j != k} |u[k, j]|^2. Chain-ruling log2(1 +
    gamma) gives a per-(k, j) coefficient matrix C (positive on the
    diagonal, -gamma_k-scaled off it) that weights the elementary
    derivatives of |u[k, j]|^2 with respect to each variable group.
    """
    check_dimensions(cfg, ch, state)
    amp = state.beta
    phase = np.exp(1j * state.theta)
    rows = effective_rows(cfg, ch, amp * phase)                 # (K, M)
    precoded = ch.G @ state.W                                   # (N, K)
    U = rows @ state.W                                          # (K, K)

    gammas, denom = received_sinrs(cfg, U)
    sig_coef = cfg.weights / (_LN2 * (1.0 + gammas) * denom)    # (K,)
    C = np.tile((-(sig_coef * gammas))[:, None], (1, cfg.K))
    np.fill_diagonal(C, sig_coef)

    grad_w = rows.conj().T @ (C * U)

    # per user k and element n: sum_j C[k,j] * conj(U[k,j]) * conj(h[k,n])
    # * precoded[n,j]; bracket sums it over the users of each side, into
    # the t half or the r half, and applies the element's phase.
    prod = np.conj(ch.h) * ((C * np.conj(U)) @ precoded.T)     # (K, N)
    on_side = cfg.side_index[:, None, None] == np.arange(2)[:, None]  # (K, 2, 1)
    bracket = phase * (on_side * prod[:, None, :]).sum(axis=0).ravel()  # (2N,)
    grad_beta = 2.0 * bracket.real
    grad_theta = -2.0 * amp * bracket.imag
    return GradientBundle(grad_w, grad_beta, grad_theta, wsr(cfg, gammas))


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


def state_from_vector(vec: np.ndarray, M: int, N: int, K: int) -> BeamformingState:
    """Inverse of :func:`state_to_vector`."""
    mk = M * K
    w_re = vec[:mk].reshape(M, K)
    w_im = vec[mk : 2 * mk].reshape(M, K)
    parts = np.split(vec[2 * mk :], 4)
    return BeamformingState(w_re + 1j * w_im, *parts)


def finite_diff_gradient(
    objective: Callable[[BeamformingState], float],
    state: BeamformingState,
    step: float = 1e-6,
) -> GradientBundle:
    """Central differences over every real coordinate of the state.

    The precoder block is reassembled as 0.5 * (d/dRe + j * d/dIm) so it is
    directly comparable with the analytic conjugate gradient; the bundle's
    rate is the objective at the state itself.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    M, K = state.W.shape
    N = state.beta_t.shape[0]
    x0 = state_to_vector(state)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        grad[i] = (
            objective(state_from_vector(xp, M, N, K))
            - objective(state_from_vector(xm, M, N, K))
        ) / (2.0 * step)
    mk = M * K
    grad_w = 0.5 * (grad[:mk] + 1j * grad[mk : 2 * mk]).reshape(M, K)
    grad_beta = grad[2 * mk : 2 * mk + 2 * N]
    grad_theta = grad[2 * mk + 2 * N :]
    return GradientBundle(grad_w, grad_beta, grad_theta, objective(state))
