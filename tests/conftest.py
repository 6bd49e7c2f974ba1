import numpy as np
import pytest

from starbeam import (
    BeamformingState,
    ChannelSet,
    Mlp,
    SystemConfig,
    normalize_amplitudes,
    normalize_power,
)
from starbeam.model import REFLECTION as R, TRANSMISSION as T


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


# Edge cases of the per-side kernel, as (seed, (M, N, K), user_sides,
# weights): interleaved sides, one side only, one user, one element, one
# antenna and a zero weight.
edge_cases = pytest.mark.parametrize("seed, dims, sides, weights", [
    (50, (4, 6, 3), (R, T, R), None),
    (51, (4, 6, 3), (R, R, R), None),
    (52, (3, 5, 2), (T, T), None),
    (53, (4, 6, 1), (T,), None),
    (54, (4, 6, 1), (R,), None),
    (55, (4, 1, 2), None, None),
    (56, (1, 6, 2), None, None),
    (57, (4, 6, 3), (R, T, R), [1.5, 0.0, 0.5]),
], ids=["interleaved", "all_reflection", "all_transmission", "K1_t", "K1_r",
        "N1", "M1", "zero_weight"])


def make_edge_instance(seed, dims, sides, weights):
    M, N, K = dims
    return make_instance(seed, M=M, N=N, K=K, user_sides=sides, weights=weights)


def float64_copy(net):
    """A float64 network with the parameters of net: finite-difference
    checks of a float32 network's gradient run on it, where a step of 1e-6
    is far above the rounding of the parameters."""
    return Mlp(*net.split(net.flat.astype(np.float64)))


class RecordingMlp(Mlp):
    """A copy of a network that keeps every input it is fed."""

    def __init__(self, net):
        super().__init__(net.w1, net.b1, net.w2, net.b2)
        self.inputs = []

    def forward_with_cache(self, x):
        self.inputs.append(np.array(x))
        return super().forward_with_cache(x)
