"""NumPy neural networks for the actor-critic agent.

The actor is a small MLP trunk with one linear *head* per modification
sub-space (tiling, compute-at, parallel, unroll — Appendix A.1); the critic is
an MLP with a single scalar head.  Forward and backward passes are written by
hand (no autograd), and parameters are trained with Adam.  Network widths are
tiny (64 hidden units) because schedule feature vectors are ~60-dimensional
and episodes only contain a few hundred states.

Every learner array is :data:`DTYPE` (float32): parameters, activations,
gradients and Adam moments here, and the agent's outputs and replay rows
(:mod:`repro.core.actor_critic`, :mod:`repro.core.rollout`).  Inputs are
cast once on entry, and Python scalars do not promote float32 arrays, so
the whole learner runs in that one dtype.  A tune holds one agent per
(workload, sketch); float32 halves each agent's parameters and Adam
moments, and every matrix product moves half the bytes.

At these sizes much of the learner's cost is NumPy call overhead, so the
parameters live in one contiguous buffer per network
(:class:`ParameterViews`): :meth:`MultiHeadMLP.backward` writes gradients
into one fresh buffer of the same layout, and :class:`Adam` updates
everything in a handful of whole-buffer ufunc calls instead of a dozen per
parameter array.  Every element still goes through the same operations in
the same order as a per-array implementation, so the results are
bit-identical to it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DTYPE",
    "MultiHeadMLP",
    "Adam",
    "ParameterViews",
    "softmax",
    "log_softmax",
    "softmax_and_log_softmax",
]

#: The dtype of every learner array (parameters, activations, gradients,
#: Adam moments, agent outputs and replay rows).
DTYPE = np.float32


def softmax_and_log_softmax(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(softmax, log_softmax)`` from one max-shift/exp/sum pass."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = np.sum(exp, axis=-1, keepdims=True)
    return exp / total, shifted - np.log(total)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    return softmax_and_log_softmax(logits)[0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return softmax_and_log_softmax(logits)[1]


class ParameterViews(tuple):
    """Arrays laid back to back in one contiguous 1-D buffer.

    Element ``i`` is a reshaped view of a slice of :attr:`flat`, so writes
    through either are seen by both, and whole-buffer operations on
    :attr:`flat` touch every array at once.
    """

    flat: np.ndarray

    def __new__(cls, flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> "ParameterViews":
        views = []
        offset = 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        if offset != flat.size:
            raise ValueError(f"shapes cover {offset} elements of a {flat.size}-element buffer")
        self = super().__new__(cls, views)
        self.flat = flat
        return self

    def __reduce__(self):
        # Copies and pickles rebuild the views over one (copied) buffer, so
        # a copied network and its copied optimiser still share it.
        return (type(self), (self.flat, tuple(view.shape for view in self)))


class MultiHeadMLP:
    """MLP trunk (tanh activations) with multiple linear output heads.

    Parameters
    ----------
    input_size:
        Dimension of the input feature vector.
    hidden_sizes:
        Widths of the trunk's hidden layers.
    head_sizes:
        Output dimension of each head.  A critic is simply ``head_sizes=(1,)``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        head_sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ):
        if not head_sizes:
            raise ValueError("at least one head is required")
        rng = rng or np.random.default_rng(0)
        self.input_size = int(input_size)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.head_sizes = tuple(int(h) for h in head_sizes)

        # Parameter order (and buffer layout): trunk weights, trunk biases,
        # head weights, head biases.
        trunk_in = (self.input_size,) + self.hidden_sizes[:-1]
        trunk_out = self.hidden_sizes[-1] if self.hidden_sizes else self.input_size
        self.shapes: Tuple[Tuple[int, ...], ...] = (
            tuple(zip(trunk_in, self.hidden_sizes))
            + tuple((w,) for w in self.hidden_sizes)
            + tuple((trunk_out, w) for w in self.head_sizes)
            + tuple((w,) for w in self.head_sizes)
        )
        self._params = ParameterViews(
            np.zeros(sum(math.prod(s) for s in self.shapes), dtype=DTYPE), self.shapes
        )

        # Same draws, in the same order, as allocating each array on its own
        # (drawn in float64, stored rounded to DTYPE).
        trunk_weights, _, head_weights, _ = self._groups(self._params)
        prev = self.input_size
        for W in trunk_weights:
            W[...] = rng.normal(0.0, np.sqrt(2.0 / prev), size=W.shape)
            prev = W.shape[1]
        for W in head_weights:
            W[...] = rng.normal(0.0, 0.1 * np.sqrt(1.0 / prev), size=W.shape)

    def _groups(self, arrays: Sequence[np.ndarray]) -> Tuple[Sequence[np.ndarray], ...]:
        """``arrays`` (in :meth:`parameters` order) split into trunk weights,
        trunk biases, head weights and head biases."""
        t, h = len(self.hidden_sizes), len(self.head_sizes)
        return arrays[:t], arrays[t : 2 * t], arrays[2 * t : 2 * t + h], arrays[2 * t + h :]

    # ------------------------------------------------------------------ #
    # parameter plumbing
    # ------------------------------------------------------------------ #
    def parameters(self) -> ParameterViews:
        """Parameter arrays (views into one flat buffer, not copies)."""
        return self._params

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Copy ``params`` into this network's buffer, in :meth:`parameters` order.

        The buffer is written in place (values rounded to :data:`DTYPE`), so
        an :class:`Adam` built on :meth:`parameters` keeps training the
        network.  Every array must have exactly its parameter's shape (no
        broadcasting); on any mismatch nothing is copied and ``ValueError``
        is raised.
        """
        if len(params) != len(self.shapes):
            raise ValueError(f"expected {len(self.shapes)} parameter arrays, got {len(params)}")
        arrays = [np.asarray(p, dtype=DTYPE) for p in params]
        for index, (array, shape) in enumerate(zip(arrays, self.shapes)):
            if array.shape != shape:
                raise ValueError(f"parameter {index} has shape {array.shape}, expected {shape}")
        for view, array in zip(self._params, arrays):
            view[...] = array

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> Tuple[List[np.ndarray], dict]:
        """Run the network; returns per-head outputs and a cache for backward.

        ``x`` is cast to :data:`DTYPE`, so every output is :data:`DTYPE`.
        """
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim == 1:
            x = x[None, :]
        trunk_weights, trunk_biases, head_weights, head_biases = self._groups(self._params)
        activations = [x]
        h = x
        for W, b in zip(trunk_weights, trunk_biases):
            h = np.tanh(h @ W + b)
            activations.append(h)
        outputs = [h @ W + b for W, b in zip(head_weights, head_biases)]
        cache = {"activations": activations}
        return outputs, cache

    def backward(self, cache: dict, head_grads: Sequence[np.ndarray]) -> ParameterViews:
        """Back-propagate per-head output gradients.

        Returns parameter gradients aligned with :meth:`parameters`, as views
        into one freshly allocated flat buffer (``.flat``).
        """
        if len(head_grads) != len(self.head_sizes):
            raise ValueError("one gradient array per head is required")
        activations = cache["activations"]
        trunk_out = activations[-1]
        trunk_weights, _, head_weights, _ = self._groups(self._params)
        grads = ParameterViews(np.empty_like(self._params.flat), self.shapes)
        trunk_w_grads, trunk_b_grads, head_w_grads, head_b_grads = self._groups(grads)

        grad_trunk = np.zeros_like(trunk_out)
        for grad_out, W, gW, gb in zip(head_grads, head_weights, head_w_grads, head_b_grads):
            grad_out = np.asarray(grad_out, dtype=DTYPE)
            np.matmul(trunk_out.T, grad_out, out=gW)
            np.sum(grad_out, axis=0, out=gb)
            grad_trunk += grad_out @ W.T

        grad_h = grad_trunk
        for layer in reversed(range(len(trunk_weights))):
            post = activations[layer + 1]
            pre_grad = grad_h * (1.0 - post * post)  # d tanh
            np.matmul(activations[layer].T, pre_grad, out=trunk_w_grads[layer])
            np.sum(pre_grad, axis=0, out=trunk_b_grads[layer])
            if layer:  # the input needs no gradient
                grad_h = pre_grad @ trunk_weights[layer].T

        return grads


def _flat_buffer(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The 1-D floating-point buffer behind ``arrays``, without copying.

    ``arrays`` is a :class:`ParameterViews` or a single contiguous
    floating-point array; the result aliases it.
    """
    if isinstance(arrays, ParameterViews):
        return arrays.flat
    if len(arrays) == 1:
        array = arrays[0]
        if (
            isinstance(array, np.ndarray)
            and np.issubdtype(array.dtype, np.floating)
            and array.flags.c_contiguous
        ):
            return array.reshape(-1)
    raise ValueError(
        "parameters must be one contiguous floating-point array or a "
        "ParameterViews (e.g. MultiHeadMLP.parameters())"
    )


class Adam:
    """Adam optimiser over one flat parameter buffer (updated in place).

    ``params`` is :meth:`MultiHeadMLP.parameters` (views into the network's
    buffer) or a list holding one contiguous floating-point array.  The
    moments, the gradient and every step are in that buffer's own dtype
    (:data:`DTYPE` for a network).  A step is one pass of in-place ufuncs
    over the whole buffer, in the order of the per-array textbook update::

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)

    When ``max_grad_norm`` is set, the gradient is first scaled down to that
    global L2 norm.  The squared norm is summed per parameter array
    (``np.add.reduce`` on its slice), and the per-array sums are added with
    Python's ``sum`` in parameter order, so clipping fires exactly when the
    per-array formulation does; the scale is a Python float, so it does
    not promote the gradient.  Only the moments persist between steps;
    scratch buffers are allocated per step.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = 5.0,
    ):
        self.params = params
        self._flat = _flat_buffer(params)
        self._bounds = np.cumsum([0] + [np.asarray(p).size for p in params]).tolist()
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.max_grad_norm = None if max_grad_norm is None else float(max_grad_norm)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        dtype = self._flat.dtype
        if isinstance(grads, ParameterViews):
            grad = np.asarray(grads.flat, dtype=dtype)
        else:
            grad = np.concatenate([np.asarray(g, dtype=dtype).reshape(-1) for g in grads])
        if grad.size != self._flat.size:
            raise ValueError("gradient sizes do not match the parameters")

        if self.max_grad_norm is not None:
            squares = grad * grad
            bounds = self._bounds
            total = math.sqrt(
                sum(float(np.add.reduce(squares[a:b])) for a, b in zip(bounds, bounds[1:]))
            )
            if total > self.max_grad_norm and total > 0:
                grad = grad * (self.max_grad_norm / total)

        self._t += 1
        m, v = self._m, self._v
        scratch = np.empty_like(grad)
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=scratch)
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=scratch)
        scratch *= grad
        v += scratch
        step = np.divide(m, 1 - self.beta1 ** self._t, out=scratch)
        step *= self.lr
        denom = np.divide(v, 1 - self.beta2 ** self._t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self._flat -= step
