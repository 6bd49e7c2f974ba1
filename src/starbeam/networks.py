"""The three gradient-fed sub-networks and a self-contained Adam optimizer.

Each sub-network is a two-layer perceptron (affine, rectifier, affine)
that takes a (rows, in) matrix of real rows and knows nothing of the
variable group it serves: each block of the loop packs its own input and
unpacks the output. The precoder block feeds the complex (M, K) gradient
as 2K real rows of length M through shared weights; the amplitude and
phase blocks feed their 2N-dimensional gradient as one row.

Precision: the networks run in NET_DTYPE, float32. Their parameters,
activations, parameter gradients and Adam moments are float32; every input
a network is fed is cast to its dtype, and the blocks take its outputs
back to float64. The channels, the beamforming state, the rate
gradients and the constraint checks stay float64: low precision in the
networks, full precision in the physics. An :class:`Mlp` keeps the dtype
of the arrays it is built from, so a float64 copy of a network runs the
same code in float64.

Parameter layout: each network keeps all of its parameters in one
contiguous vector, ``Mlp.flat``, laid out w1 | b1 | w2 | b2 with
row-major weights, and ``w1``, ``b1``, ``w2`` and ``b2`` are views into it.
:func:`init_mlp` draws the weights in float64 row-major blocks straight into
``flat``, so no weight-sized temporary is made, consuming the generator as
a float64 network would. :func:`mlp_backward` forms the parameter gradient
of one forward pass, of any number of rows, as one flat vector of the same
layout, each weight gradient with one ``np.dot`` into its view.

Adam: :func:`adam_step` updates a flat parameter vector and its moments in
place, one elementwise operation at a time over four operands: the params,
the two moments and the gradient, which it overwrites as its only scratch.
It takes the reordered form of Kingma & Ba (arXiv 1412.6980, section 2),
which equals the textbook update in exact arithmetic but not bit for bit.
``first_moment`` stores m' = m / (1 - beta1), so that its update, m' =
beta1 * m' + g, needs no scaling of g; ``second_moment`` stores the
textbook v. The step is p -= rate * m' / (sqrt(v) + eps'), where rate =
lr * (1 - beta1) * sqrt(c2) / c1 and eps' = eps * sqrt(c2) fold (1 -
beta1) and both bias corrections into two scalars: 11 passes with one
square root and one division, where the textbook order takes 14 with
three divisions, and results a few float32 ULPs from the textbook form's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, Kind, is_real

# Adam's moment decay rates and denominator floor, the textbook defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
NET_DTYPE = np.float32  # of every network built by init_mlp; see the docstring


class Mlp:
    """Two affine maps with a rectified-linear activation between them.

    The arrays passed in are copied into ``flat``, whose dtype is theirs
    (float32 arrays give a float32 network, float64 ones a float64 one,
    integers float64); ``w1`` (hidden, in), ``b1`` (hidden,), ``w2``
    (out, hidden) and ``b2`` (out,) are views into it, so an in-place
    update of ``flat`` updates the network.
    """

    def __init__(self, w1, b1, w2, b2) -> None:
        self.hidden_dim, self.input_dim = np.shape(w1)
        self.output_dim = np.shape(w2)[0]
        h, o = self.hidden_dim, self.output_dim
        dtype = np.result_type(*map(np.asarray, (w1, b1, w2, b2)), NET_DTYPE)
        self.flat = np.empty(h * (self.input_dim + 1) + o * (h + 1), dtype)
        views = self.split(self.flat)
        for view, value in zip(views, (w1, b1, w2, b2)):
            view[...] = value
        self.w1, self.b1, self.w2, self.b2 = views

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """(w1, b1, w2, b2) views into a flat vector laid out like ``flat``."""
        h, i, o = self.hidden_dim, self.input_dim, self.output_dim
        a, b = h * i, h * (i + 1)
        c = b + o * h
        return vec[:a].reshape(h, i), vec[a:b], vec[b:c].reshape(o, h), vec[c:]

    def forward_with_cache(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Forward pass of a (rows, in) matrix, cast to the network's dtype,
        to (rows, out) in that dtype; also returns the intermediates needed
        by :func:`mlp_backward`, (input, pre-activation, hidden). The caller
        packs its variable group into rows (see the module docstring)."""
        x = np.asarray(x, dtype=self.flat.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"input shape {x.shape} does not match (rows, input "
                f"dimension {self.input_dim})"
            )
        pre = x @ self.w1.T + self.b1
        hidden = np.maximum(pre, 0.0)
        return hidden @ self.w2.T + self.b2, (x, pre, hidden)


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int,
             rng: np.random.Generator) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, in NET_DTYPE. The
    weights are drawn in float64 blocks, row-major, all of w1 then all of
    w2, each rounded by its assignment straight into ``flat``: no
    weight-sized temporary is made, and the generator is consumed as a
    float64 network would consume it."""
    for name, value in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                        ("output_dim", output_dim)):
        Kind.COUNT.check(name, value)
    shapes = (hidden_dim, input_dim), hidden_dim, (output_dim, hidden_dim), output_dim
    net = Mlp(*(np.broadcast_to(NET_DTYPE(0), shape) for shape in shapes))
    for w, fan_in in ((net.w1, input_dim), (net.w2, hidden_dim)):
        s, w = 1.0 / np.sqrt(fan_in), w.reshape(-1)
        # 64 KiB blocks, below glibc's 128 KiB mmap threshold: none maps pages
        for i in range(0, w.size, 8192):
            w[i:i + 8192] = rng.uniform(-s, s, size=min(8192, w.size - i))
    return net


def mlp_backward(net: Mlp, cache: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Parameter gradient of a forward pass recorded by
    ``forward_with_cache``, summed over its rows, as a new flat vector laid
    out like ``net.flat`` and in its dtype. grad_out is the (rows, out) loss
    gradient on the pass's output; it is cast to the network's dtype. Each
    weight gradient is one np.dot into its view of the result, for any row
    count; a single row's is an outer product, whose 0 + a*b turns a -0.0
    product into +0.0, the only difference from a broadcast multiply."""
    x2, pre, hidden = cache
    g2 = np.asarray(grad_out, net.flat.dtype)
    grad_hidden = (g2 @ net.w2) * (pre > 0.0)
    grad = np.empty_like(net.flat)
    g_w1, g_b1, g_w2, g_b2 = net.split(grad)
    np.dot(grad_hidden.T, x2, out=g_w1)
    np.dot(g2.T, hidden, out=g_w2)
    grad_hidden.sum(axis=0, out=g_b1)
    g2.sum(axis=0, out=g_b2)
    return grad


@dataclass
class AdamState:
    """Moment estimates, in its dtype, and step count of :func:`adam_step`
    for one flat parameter vector; the step updates them in place."""

    first_moment: np.ndarray    # m / (1 - ADAM_BETA1); see the module docstring
    second_moment: np.ndarray
    step_count: int = 0


def adam_init(params: np.ndarray) -> AdamState:
    """Zero-initialized moments matching the flat parameter vector."""
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update moving the flat params against the
    loss gradient, in place on params and state; grads is overwritten, as
    the step's scratch. The arithmetic is in the params' dtype, which grads
    and the state must share. A bad lr and a gradient that is read-only,
    shares memory with params or a moment, or holds NaN, inf or an entry
    whose square overflows the dtype are rejected before anything changes."""
    if not (is_real(lr) and lr > 0):
        raise ValueError(f"lr must be a finite real > 0; got {lr!r}")
    dtype = state.first_moment.dtype
    if not (isinstance(params, np.ndarray) and params.ndim == 1
            and params.dtype == dtype and np.issubdtype(dtype, np.floating)):
        raise ConfigurationError(
            f"params must be a 1-D float vector of the state's dtype, {dtype}")
    if grads.shape != params.shape:
        raise ConfigurationError(
            f"gradient shape {grads.shape} does not match parameter shape "
            f"{params.shape}"
        )
    if grads.dtype != dtype:
        raise ConfigurationError(
            f"gradient dtype {grads.dtype} does not match parameter dtype {dtype}")
    m, v, g = state.first_moment, state.second_moment, grads
    if not g.flags.writeable or any(np.may_share_memory(g, a) for a in (params, m, v)):
        raise ConfigurationError(
            "grads must be writeable and share no memory with params or the moments")
    # Two reductions, no temporary; NaN propagates into both and fails the
    # comparisons, and the initial 0 lets an empty vector through.
    limit = math.sqrt(float(np.finfo(dtype).max))
    if not (-limit <= float(grads.min(initial=0.0))
            and float(grads.max(initial=0.0)) <= limit):
        raise DegenerateInputError("non-finite gradient, or one whose square "
                                   f"overflows {dtype}; update rejected")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    root_c2 = math.sqrt(1.0 - b2**t)
    # Python floats: a numpy float64 scalar sends the float32 in-place
    # operations down a slower casting path.
    rate = float(lr) * (1.0 - b1) * root_c2 / c1
    eps = ADAM_EPSILON * root_c2
    # m = b1*m + g;  v = b2*v + (1-b2)*g**2;  p -= rate * (m / (sqrt(v) +
    # eps)), one operation at a time in this order, g the scratch once m
    # has read it: 11 passes, one square root and one division.
    m *= b1
    m += g
    v *= b2
    np.square(g, out=g)
    g *= 1.0 - b2
    v += g
    np.sqrt(v, out=g)
    g += eps
    np.divide(m, g, out=g)
    g *= rate
    params -= g
