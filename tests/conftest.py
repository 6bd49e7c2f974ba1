import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ChannelSet,
    SystemConfig,
    normalize_amplitudes,
    normalize_power,
)


def make_instance(seed, M=4, N=8, K=2, noise=None, weights=None, user_sides=None):
    """Unit-scale random instance used across the suite."""
    r = np.random.default_rng(seed)
    cfg = SystemConfig(
        M=M, N=N, K=K, p_max=float(K),
        noise_power=noise if noise is not None else M * N / 2.0,
        weights=weights, user_sides=user_sides,
    )
    G = (r.standard_normal((N, M)) + 1j * r.standard_normal((N, M))) / np.sqrt(2)
    h = (r.standard_normal((K, N)) + 1j * r.standard_normal((K, N))) / np.sqrt(2)
    ch = ChannelSet(G, h)
    W = normalize_power(
        r.standard_normal((M, K)) + 1j * r.standard_normal((M, K)), cfg.p_max
    )
    bt, br = normalize_amplitudes(r.uniform(0.3, 1.0, N), r.uniform(0.3, 1.0, N))
    state = BeamformingState(
        W, bt, br, r.uniform(0, 2 * np.pi, N), r.uniform(0, 2 * np.pi, N)
    )
    return cfg, ch, state


@pytest.fixture
def instance():
    return make_instance(0)
