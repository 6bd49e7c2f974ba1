"""Feasibility projections, plus the logistic function and the phase wrap
from which the loop builds its bounded phase increments,
``wrap_phase(theta + gain * sigmoid(raw))``.

All operations are pure and elementwise or rank-1; none of them builds an
N x N matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .model import TWO_PI, CoupledAuxiliary

# Feasible per-element phase differences, in the canonical tie-break order:
# the first candidate attaining the minimum deviation wins.
PHASE_DIFF_CANDIDATES = (np.pi / 2, -np.pi / 2, 3 * np.pi / 2, -3 * np.pi / 2)
_CANDIDATES = np.array(PHASE_DIFF_CANDIDATES)

# The open unit interval to which sigmoid clamps.
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, clamped to the open unit
    interval so downstream range guarantees survive rounding."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    out = np.where(x >= 0, 1.0 / d, z / d)
    return np.maximum(np.minimum(out, _BELOW_ONE), _TINY)


def wrap_phase(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into [0, 2*pi); rounding can make np.mod return the
    modulus itself, which maps to 0."""
    out = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def normalize_power(W: np.ndarray, p_max: float) -> np.ndarray:
    """Scale the precoder so its squared Frobenius norm equals p_max."""
    if not 0 < p_max < np.inf:  # also rejects NaN
        raise ConfigurationError(f"p_max must be positive and finite; got {p_max!r}")
    W = np.asarray(W, dtype=np.complex128)
    total = np.vdot(W, W).real
    if not 0 < total < np.inf:
        raise DegenerateInputError(
            "cannot normalize an all-zero precoder" if total == 0 else
            "cannot normalize a non-finite precoder, or one whose power overflows")
    return np.sqrt(p_max / total) * W


def normalize_amplitudes(
    beta_t_raw: np.ndarray, beta_r_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each (beta_t, beta_r) pair onto the unit circle
    beta_t^2 + beta_r^2 = 1."""
    bt = np.asarray(beta_t_raw, dtype=float)
    br = np.asarray(beta_r_raw, dtype=float)
    sq = bt**2 + br**2
    if not ((sq > 0) & (sq < np.inf)).all():  # also rejects NaN
        raise DegenerateInputError(
            "non-finite amplitude pair, or one whose squared norm overflows"
            if not np.isfinite(sq).all() else
            "zero amplitude pair; upstream initializer produced a dead element"
        )
    r = np.sqrt(sq)
    return bt / r, br / r


def project_coupled_phases(
    theta_t: np.ndarray, theta_r: np.ndarray
) -> CoupledAuxiliary:
    """Closest phase pair (least squared deviation) whose difference is an
    odd multiple of pi/2.

    Each element is independent: for difference offset t the minimizer is
    ((theta_t + theta_r + t) / 2, (theta_t + theta_r - t) / 2), so the four
    candidate offsets are scanned and the first minimum kept. Inputs are
    (N,) vectors of plain reals (no circular wrapping); deviation is
    Euclidean. A NaN or infinite phase is rejected, naming its side.
    """
    tt = np.asarray(theta_t, dtype=float)
    tr = np.asarray(theta_r, dtype=float)
    for name, side in (("theta_t", tt), ("theta_r", tr)):
        if not np.isfinite(side).all():
            raise ConfigurationError(f"{name} must hold only finite phases")
    diff = tt - tr
    # Squared deviation of candidate t is (t - diff)^2 / 2; the common 1/2
    # does not affect the argmin.
    scores = (_CANDIDATES[:, None] - diff) ** 2
    chosen = _CANDIDATES[np.argmin(scores, axis=0)]
    half_sum = 0.5 * (tt + tr)
    half_t = 0.5 * chosen
    return CoupledAuxiliary(half_sum + half_t, half_sum - half_t)


# A state counts as phase-locked when max coupling_residual is below this:
# its phase differences have concentrated at odd multiples of pi/2 before
# the reported solution is hardened by projection.
COUPLING_TOL = 0.05


def coupling_residual(theta_t: np.ndarray, theta_r: np.ndarray) -> np.ndarray:
    """|cos(theta_t - theta_r)| per element; zero iff the pair is coupled."""
    return np.abs(np.cos(np.asarray(theta_t, float) - np.asarray(theta_r, float)))
