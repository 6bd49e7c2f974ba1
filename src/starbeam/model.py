"""Core system model: scenario configuration, beamforming state, and exact
SINR / weighted sum-rate evaluation for a STAR-RIS assisted MU-MISO downlink.

Each user sees the surface coefficients of its own half-space,
``c_tau = beta_tau * exp(j * theta_tau)`` with tau its side. The optimizer
and :func:`all_sinrs` use this per-side form through one kernel,
:func:`effective_rows`, which picks each user's coefficient row from
(c_t, c_r) by side. Two independent per-user expressions cross-check it:
:func:`sinr`, the direct per-side formula, and :func:`sinr_augmented`, a
stacked 2N-dimensional form in which both coefficient halves share one
vector and a 0/1 mask selects the user's half. The N x N diagonal
coefficient matrices are never materialized; all products use elementwise
vector forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, Kind, check_fields

TRANSMISSION = "transmission"
REFLECTION = "reflection"

TWO_PI = 2.0 * np.pi

# log2(1 + gamma) <= 1024 for every finite SINR gamma, so weights summing
# to at most this keep every weighted sum-rate within half the float64 maximum.
WEIGHT_SUM_MAX = np.finfo(float).max / 2048


def default_user_sides(n_users: int) -> tuple[str, ...]:
    """First ceil(K/2) users on the transmission side, the rest reflection."""
    n_t = (n_users + 1) // 2
    return tuple(TRANSMISSION if k < n_t else REFLECTION for k in range(n_users))


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and link budget of one downlink scenario.

    M: BS antennas, N: surface elements, K: single-antenna users.
    p_max and noise_power are linear watts. weights are the per-user rate
    weights (finite, non-negative, at least one positive, summing to at
    most WEIGHT_SUM_MAX; all ones when not given), stored as a tuple of
    floats, so that configs compare and hash; weight_array, derived from it
    and not settable, is the same values as a read-only (K,) array, which
    the rate and its gradients read.
    user_sides labels each user "transmission" or "reflection" and
    partitions the user set; side_index, derived from it and not settable,
    is 0 for each transmission user and 1 for each reflection user, and
    side_mask, also derived, is the (K, 2, 1) boolean one-hot of side_index.
    """

    M: int
    N: int
    K: int
    p_max: float
    noise_power: float
    user_sides: tuple[str, ...] | None = None
    weights: tuple[float, ...] | None = None
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    side_index: np.ndarray = field(init=False, repr=False, compare=False)
    side_mask: np.ndarray = field(init=False, repr=False, compare=False)

    FIELD_KINDS = {
        "M": Kind.COUNT, "N": Kind.COUNT, "K": Kind.COUNT,
        "p_max": Kind.POSITIVE, "noise_power": Kind.POSITIVE,
        "user_sides": Kind.choice(TRANSMISSION, REFLECTION).listed().or_none(),
        "weights": Kind.FINITE.listed().or_none(),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.FIELD_KINDS)
        if self.user_sides is None:
            object.__setattr__(self, "user_sides", default_user_sides(self.K))
        if len(self.user_sides) != self.K:
            raise ConfigurationError("user_sides must have one label per user")
        side_index = np.array([s == REFLECTION for s in self.user_sides], dtype=np.intp)
        object.__setattr__(self, "side_index", _locked(side_index))
        object.__setattr__(self, "side_mask", _locked(
            side_index[:, None, None] == np.arange(2)[:, None]))

        w = np.ones(self.K) if self.weights is None else np.array(self.weights)
        if w.shape != (self.K,):
            raise ConfigurationError("weights must have shape (K,)")
        if (w < 0).any() or not (w > 0).any():
            raise ConfigurationError("weights must be >= 0 with at least one > 0")
        # a Python sum: an overflow to inf raises no numpy warning
        if sum(w.tolist()) > WEIGHT_SUM_MAX:
            raise ConfigurationError(
                f"weights must sum to at most {WEIGHT_SUM_MAX:.6g}; got {self.weights!r}")
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "weight_array", _locked(w))


@dataclass(frozen=True)
class ChannelSet:
    """Channels of one scenario draw.

    G is the (N, M) BS-to-surface channel; h is (K, N) with row k the
    surface-to-user-k vector (the SINR uses its conjugate transpose).
    h_conj, derived from h and not settable, is its elementwise
    conjugate, which every gradient and rate evaluation takes. These are
    the only copies: the optimizer works on the per-side form, and only
    the :func:`sinr_augmented` cross-check stacks them.
    """

    G: np.ndarray
    h: np.ndarray
    h_conj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        G = np.array(self.G, dtype=np.complex128)
        h = np.array(self.h, dtype=np.complex128)
        if G.ndim != 2 or h.ndim != 2:
            raise ConfigurationError("G must be (N, M) and h must be (K, N)")
        if h.shape[1] != G.shape[0]:
            raise ConfigurationError(
                f"h has {h.shape[1]} columns but G has {G.shape[0]} rows"
            )
        for dim, size in (("N", G.shape[0]), ("M", G.shape[1]), ("K", h.shape[0])):
            if size < 1:
                raise ConfigurationError(f"channel dimension {dim} must be >= 1")
        for name, arr in (("G", G), ("h", h)):
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"channel {name} has non-finite entries")
        object.__setattr__(self, "G", _locked(G))
        object.__setattr__(self, "h", _locked(h))
        object.__setattr__(self, "h_conj", _locked(np.conj(h)))

    @property
    def N(self) -> int:
        return self.G.shape[0]

    @property
    def M(self) -> int:
        return self.G.shape[1]

    @property
    def K(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class BeamformingState:
    """The optimization variables: precoder columns serve the users,
    (beta_t, beta_r) are per-element amplitudes and (theta_t, theta_r)
    per-element phase shifts in radians."""

    W: np.ndarray        # (M, K) complex
    beta_t: np.ndarray   # (N,)
    beta_r: np.ndarray   # (N,)
    theta_t: np.ndarray  # (N,) in [0, 2*pi)
    theta_r: np.ndarray  # (N,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.complex128))
        for name in ("beta_t", "beta_r", "theta_t", "theta_r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.beta_t.shape[0]
        if not (self.beta_r.shape == self.theta_t.shape == self.theta_r.shape == (n,)):
            raise ConfigurationError("amplitude/phase vectors must share length N")
        if self.W.ndim != 2:
            raise ConfigurationError("W must be a 2-D (M, K) matrix")

    @property
    def beta(self) -> np.ndarray:
        """Concatenated (beta_t, beta_r), length 2N."""
        return np.concatenate([self.beta_t, self.beta_r])

    @property
    def theta(self) -> np.ndarray:
        """Concatenated (theta_t, theta_r), length 2N."""
        return np.concatenate([self.theta_t, self.theta_r])

    @property
    def transmit_power(self) -> float:
        return float(np.vdot(self.W, self.W).real)


@dataclass(frozen=True)
class CoupledAuxiliary:
    """Auxiliary phase profile whose per-element difference is locked to an
    odd multiple of pi/2 (cos(theta_t - theta_r) = 0)."""

    theta_t_aux: np.ndarray
    theta_r_aux: np.ndarray


def check_dimensions(
    cfg: SystemConfig, ch: ChannelSet, state: BeamformingState | None = None
) -> None:
    """Raise ConfigurationError when cfg / ch / state dimensions disagree."""
    if not isinstance(ch, ChannelSet):
        raise ConfigurationError(f"ch must be a ChannelSet; got {ch!r}")
    if (ch.N, ch.M, ch.K) != (cfg.N, cfg.M, cfg.K):
        raise ConfigurationError(
            f"channel dims (N={ch.N}, M={ch.M}, K={ch.K}) do not match "
            f"config (N={cfg.N}, M={cfg.M}, K={cfg.K})"
        )
    if state is not None:
        if state.W.shape != (cfg.M, cfg.K):
            raise ConfigurationError(
                f"W has shape {state.W.shape}, expected ({cfg.M}, {cfg.K})"
            )
        if state.beta_t.shape != (cfg.N,):
            raise ConfigurationError(
                f"amplitude/phase vectors have length {state.beta_t.shape[0]}, "
                f"expected {cfg.N}"
            )


def star_coefficient_vectors(state: BeamformingState) -> tuple[np.ndarray, np.ndarray]:
    """Per-element complex surface coefficients (c_t, c_r), each length N,
    with |c| = beta and arg(c) = theta."""
    c_t = state.beta_t * np.exp(1j * state.theta_t)
    c_r = state.beta_r * np.exp(1j * state.theta_r)
    return c_t, c_r


def effective_rows(cfg: SystemConfig, ch: ChannelSet, coef: np.ndarray) -> np.ndarray:
    """(..., K, M) effective downlink rows from the per-side form: row k is
    (conj(h_k) * c) @ G, where c is the row of user k's side picked from
    coef = (c_t, c_r), the (..., 2N) complex surface coefficients, leading
    axes a batch. Row k maps precoder column w_j to what user k receives."""
    sides = coef.reshape(*coef.shape[:-1], 2, -1)[..., cfg.side_index, :]
    return (ch.h_conj * sides) @ ch.G


def received_sinrs(cfg: SystemConfig, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(SINRs, their denominators), each (..., K), from the (..., K, K)
    received amplitudes, U[..., k, j] being what user k receives from
    precoder column j. Leading axes are a batch of states."""
    power = np.abs(U) ** 2
    signal = power.diagonal(axis1=-2, axis2=-1)
    denom = power.sum(axis=-1) - signal + cfg.noise_power
    return signal / denom, denom


def sinr(cfg: SystemConfig, ch: ChannelSet, state: BeamformingState, k: int) -> float:
    """SINR of user k from the direct per-side expression."""
    check_dimensions(cfg, ch, state)
    Kind.SEED.check("k", k)
    if k >= cfg.K:
        raise IndexError(f"user index {k} out of range for K={cfg.K}")
    c_t, c_r = star_coefficient_vectors(state)
    c = c_t if cfg.user_sides[k] == TRANSMISSION else c_r
    row = (np.conj(ch.h[k]) * c) @ ch.G
    received = np.abs(row @ state.W) ** 2
    signal = received[k]
    interference = received.sum() - signal
    return float(signal / (interference + cfg.noise_power))


def sinr_augmented(
    cfg: SystemConfig, ch: ChannelSet, state: BeamformingState, k: int
) -> float:
    """SINR of user k from the stacked 2N-dimensional form; agrees with
    :func:`sinr` to floating-point accuracy."""
    check_dimensions(cfg, ch, state)
    Kind.SEED.check("k", k)
    if k >= cfg.K:
        raise IndexError(f"user index {k} out of range for K={cfg.K}")
    # The stacked form, built here only: both coefficient halves in one 2N
    # vector, the channels duplicated to match, and a 0/1 mask selecting
    # the half of user k's side.
    n = cfg.N
    g_aug = np.vstack([ch.G, ch.G])
    h_aug = np.concatenate([ch.h[k], ch.h[k]])
    on_t = cfg.user_sides[k] == TRANSMISSION
    mask = np.repeat([1.0, 0.0] if on_t else [0.0, 1.0], n)
    coeff = state.beta * np.exp(1j * state.theta)
    row = (np.conj(h_aug) * mask * coeff) @ g_aug
    received = np.abs(row @ state.W) ** 2
    signal = received[k]
    interference = received.sum() - signal
    return float(signal / (interference + cfg.noise_power))


def all_sinrs(cfg: SystemConfig, ch: ChannelSet, state: BeamformingState) -> np.ndarray:
    """All K SINRs at once (per-side form, shared with the gradients)."""
    check_dimensions(cfg, ch, state)
    rows = effective_rows(cfg, ch, state.beta * np.exp(1j * state.theta))
    return received_sinrs(cfg, rows @ state.W)[0]


def wsr(cfg: SystemConfig, gammas: np.ndarray) -> float | np.ndarray:
    """Weighted sum-rate sum_k weights[k] * log2(1 + gammas[..., k]): a
    float for one (K,) vector, a (...,) array for a batch of them. It is
    finite for finite SINRs, as SystemConfig bounds the weights' sum."""
    g = np.asarray(gammas, dtype=float)
    if g.shape[-1:] != (cfg.K,):
        raise ConfigurationError(f"gammas must have shape (..., {cfg.K})")
    # Two reductions, no temporary: the minimum catches a negative value or
    # NaN, the maximum an inf before a zero weight multiplies its log to NaN.
    lo = g.min(initial=0.0)
    if not lo >= 0:
        seen = "NaN" if math.isnan(lo) else "a negative value"
        raise DegenerateInputError(f"SINR values must be non-negative; saw {seen}")
    if not g.max(initial=0.0) < math.inf:
        raise DegenerateInputError("SINR values must be finite; saw inf")
    rates = (cfg.weight_array * np.log2(1.0 + g)).sum(axis=-1)
    return float(rates) if g.ndim == 1 else rates


def evaluate_wsr(cfg: SystemConfig, ch: ChannelSet, state: BeamformingState) -> float:
    """Weighted sum-rate of a beamforming state."""
    return wsr(cfg, all_sinrs(cfg, ch, state))
