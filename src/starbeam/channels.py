"""Scenario geometry and Rician channel synthesis.

All devices sit at the same altitude, so positions are 2-D coordinates in
meters and distances Euclidean. Path loss follows the log-distance law
a + b * log10(d) in dB; channels mix a steering-vector line-of-sight
structure (half-wavelength spacing, uniformly random angles) with
circularly-symmetric Gaussian scattering, weighted by the Rician factor.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, Kind, check_fields
from .model import ChannelSet, SystemConfig


def dbm_to_watts(dbm: float) -> float:
    """Watts of a level in dBm whose power is finite and > 0 W."""
    try:
        watts = 10.0 ** (Kind.FINITE.check("dbm", dbm) / 10.0) / 1000.0
    except OverflowError:
        watts = math.inf
    if not (0.0 < watts < math.inf):
        raise ConfigurationError(
            f"dbm must be a level whose power is finite and > 0 W; got {dbm!r}")
    return watts


@dataclass(frozen=True)
class ChannelConfig:
    """Geometry and fading statistics of the simulated deployment.

    Positions are (x, y) meters, two finite reals each, stored as a tuple
    of floats. center_t / center_r are the disc centers of the
    transmission-side and reflection-side user areas. Path loss is
    pathloss_a + pathloss_b * log10(d_meters) in dB. The BS must sit away
    from the surface, and neither user disc may reach it, so every link
    distance is positive.
    """

    rician_k_g: float = 10.0            # BS-to-surface Rician factor (linear)
    rician_k_h: float = 10.0            # surface-to-user Rician factor (linear)
    bs_pos: tuple[float, float] = (0.0, 0.0)
    ris_pos: tuple[float, float] = (100.0, 0.0)
    center_t: tuple[float, float] = (100.0, -15.0)
    center_r: tuple[float, float] = (100.0, 15.0)
    user_area_radius: float = 5.0       # meters
    pathloss_a: float = 35.6            # dB offset at 1 m
    pathloss_b: float = 22.0            # dB per decade
    seed: int = 0

    FIELD_KINDS = {
        "rician_k_g": Kind.NON_NEGATIVE, "rician_k_h": Kind.NON_NEGATIVE,
        "bs_pos": Kind.POSITION, "ris_pos": Kind.POSITION,
        "center_t": Kind.POSITION, "center_r": Kind.POSITION,
        "user_area_radius": Kind.NON_NEGATIVE,
        "pathloss_a": Kind.FINITE, "pathloss_b": Kind.FINITE, "seed": Kind.SEED,
    }

    def __post_init__(self) -> None:
        check_fields(self, self.FIELD_KINDS)
        if _distance(self.bs_pos, self.ris_pos) == 0:
            raise ConfigurationError("bs_pos must differ from ris_pos")
        for name in ("center_t", "center_r"):
            if _distance(getattr(self, name), self.ris_pos) <= self.user_area_radius:
                raise ConfigurationError(
                    f"the user disc at {name} with user_area_radius "
                    f"{self.user_area_radius} contains ris_pos")


def _distance(a, b) -> float:
    return float(np.hypot(*(np.asarray(b) - np.asarray(a))))


def path_loss_linear(d: float, cfg: ChannelConfig) -> float:
    """Amplitude-domain gain 10^(-PL_dB / 20) at distance d meters."""
    d = Kind.POSITIVE.check("d", d)
    pl_db = cfg.pathloss_a + cfg.pathloss_b * np.log10(d)
    return float(10.0 ** (-pl_db / 20.0))


def _steering(n: int, angle: float) -> np.ndarray:
    """Uniform linear array response, half-wavelength spacing."""
    return np.exp(1j * np.pi * np.arange(n) * np.sin(angle))


def _cn01(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _rician_mix(los: np.ndarray, nlos: np.ndarray, k: float) -> np.ndarray:
    return np.sqrt(k / (1.0 + k)) * los + np.sqrt(1.0 / (1.0 + k)) * nlos


def sample_user_positions(
    sys_cfg: SystemConfig, cfg: ChannelConfig, rng: np.random.Generator
) -> np.ndarray:
    """(K, 2) user coordinates, uniform over each side's disc."""
    radii = cfg.user_area_radius * np.sqrt(rng.random(sys_cfg.K))
    angles = 2.0 * np.pi * rng.random(sys_cfg.K)
    centers = np.array([cfg.center_t, cfg.center_r])[sys_cfg.side_index]
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return centers + offsets


def generate_channels(
    sys_cfg: SystemConfig, cfg: ChannelConfig, rng: np.random.Generator
) -> ChannelSet:
    """Draw one channel realization.

    Draw order is fixed (user positions, BS-surface link, then per-user
    links) so a given generator seed reproduces the set bit for bit.
    """
    if not isinstance(rng, np.random.Generator):
        raise ConfigurationError(f"rng must be a numpy Generator; got {rng!r}")
    n, m, k_users = sys_cfg.N, sys_cfg.M, sys_cfg.K
    positions = sample_user_positions(sys_cfg, cfg, rng)

    loss_g = path_loss_linear(_distance(cfg.bs_pos, cfg.ris_pos), cfg)
    arrival, departure = rng.uniform(-np.pi, np.pi, size=2)
    g_los = np.outer(_steering(n, arrival), np.conj(_steering(m, departure)))
    G = loss_g * _rician_mix(g_los, _cn01(rng, (n, m)), cfg.rician_k_g)

    user_angles = rng.uniform(-np.pi, np.pi, size=k_users)
    h_nlos = _cn01(rng, (k_users, n))
    h = np.empty((k_users, n), dtype=np.complex128)
    for k in range(k_users):
        loss_k = path_loss_linear(_distance(cfg.ris_pos, positions[k]), cfg)
        h[k] = loss_k * _rician_mix(_steering(n, user_angles[k]), h_nlos[k],
                                    cfg.rician_k_h)
    return ChannelSet(G, h)


def default_scenario() -> tuple[SystemConfig, ChannelConfig]:
    """Full-scale reference deployment: 64-antenna BS, 100-element surface,
    4 users, 10 dBm budget, -80 dBm noise.

    At this budget a solution serves one user (a user is served when its
    rate exceeds 1e-3 of the best user's). On the channels of generator
    seeds 100-105, all 24 GML independent and pga_oracle solutions at 10
    and 30 dBm served one user, and 10 of 12 at 40 dBm; at 50 dBm GML
    served all four users on 4 of the 6 channels, pga_oracle one or two.
    """
    sys_cfg = SystemConfig(
        M=64,
        N=100,
        K=4,
        p_max=dbm_to_watts(10.0),
        noise_power=dbm_to_watts(-80.0),
    )
    return sys_cfg, ChannelConfig()


def desk_scenario(K: int = 2) -> tuple[SystemConfig, ChannelConfig]:
    """Scaled-down deployment (8 antennas, 16 elements) with the same
    geometry; sized for fast experiments and CI.

    The noise floor drops to -110 dBm so the small aperture operates at
    the same receive-SINR regime as the full-scale scenario; with the
    full-scale -80 dBm floor this geometry sits ~25 dB lower and every
    rate is pinned to the linear low-SNR regime.

    At the 10 dBm budget a solution serves one user, as at full scale: on
    the channels of generator seeds 1000-1003, all 8 GML solutions (both
    modes) served one user; at 30 dBm, 6 of 8 served both.
    """
    sys_cfg = SystemConfig(
        M=8,
        N=16,
        K=K,
        p_max=dbm_to_watts(10.0),
        noise_power=dbm_to_watts(-110.0),
    )
    return sys_cfg, ChannelConfig()


_CHANNEL_HEADER = "starbeam-channels v1"


def save_channels(path: str, ch: ChannelSet) -> None:
    """Write :func:`channels_to_text` of a channel set to a file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(channels_to_text(ch))


def load_channels(path: str) -> ChannelSet:
    """Inverse of :func:`save_channels`; a file that is not ASCII text
    raises ConfigurationError naming it."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"channel file {path!r} is not ASCII text: "
                                     f"{err}") from None
    return channels_from_text(text)


def channels_to_text(ch: ChannelSet) -> str:
    """A channel set as portable text: a version line, a dimension line
    "N M K", then one line per G row and one per user vector, each a
    sequence of "re im" pairs printed with %.17g (lossless for float64)."""
    rows = [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)
            for row in (*ch.G, *ch.h)]
    return "\n".join([_CHANNEL_HEADER, f"{ch.N} {ch.M} {ch.K}", *rows]) + "\n"


def channels_from_text(text: str) -> ChannelSet:
    """Inverse of :func:`channels_to_text`; a malformed text raises
    ConfigurationError naming what is wrong and, for a channel row, its
    block (G or h) and row. The arrays grow with the rows read, so a
    dimension line larger than the text reserves nothing."""
    fh = io.StringIO(text)
    header = fh.readline().strip()
    if header != _CHANNEL_HEADER:
        raise ConfigurationError(f"unrecognized channel file header: {header!r}")
    dims = fh.readline()
    try:
        n, m, k = (int(tok) for tok in dims.split())
        if min(n, m, k) < 1:
            raise ValueError
    except ValueError:
        raise ConfigurationError(f"malformed dimension line {dims.strip()!r}; "
                                 "expected three positive integers 'N M K'") from None

    def read_rows(name: str, count: int, width: int) -> np.ndarray:
        rows = []
        for i in range(count):
            line = fh.readline()
            where = f"channel {name} row {i}"
            if not line:
                raise ConfigurationError(f"{where}: the file ends before it")
            try:
                vals = np.array(line.split(), dtype=float)
            except ValueError as err:
                raise ConfigurationError(f"{where}: {err}") from None
            if vals.size != 2 * width:
                raise ConfigurationError(
                    f"{where}: expected {2 * width} values, saw {vals.size}")
            rows.append(vals[0::2] + 1j * vals[1::2])
        return np.array(rows)

    ch = ChannelSet(read_rows("G", n, m), read_rows("h", k, n))
    if fh.read().strip():
        raise ConfigurationError("unexpected data after the last channel row")
    return ch
