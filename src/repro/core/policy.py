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
the whole learner runs in that one dtype.

At these sizes much of the learner's cost is NumPy call overhead, so every
call covers as much as it can:

* A network's heads are one weight matrix and one bias (each head a block of
  columns), so the heads cost one matmul forward and one backward.
* Parameters live in one contiguous buffer (:class:`ParameterViews`), and
  several networks can share one buffer at different offsets: a
  :class:`~repro.core.actor_critic.PPOAgent` keeps its actor and its critic
  back to back, and :class:`Adam` steps both in one pass over the buffer,
  each network (a parameter *group*) with its own learning rate and its own
  gradient-norm clip.
* :meth:`MultiHeadMLP.backward` writes gradients straight into views of one
  transient gradient buffer of the same layout.
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
    "softmax_and_log_softmax",
]

#: The dtype of every learner array (parameters, activations, gradients,
#: Adam moments, agent outputs and replay rows).
DTYPE = np.float32


def softmax_and_log_softmax(
    logits: np.ndarray, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(softmax, log_softmax)`` over the last axis from one max-shift/exp/sum pass.

    With ``out`` (shaped like ``logits``) the pass runs in place: the softmax
    is written into ``out`` and ``logits`` itself becomes the log-softmax.
    """
    shifted = np.subtract(
        logits,
        np.maximum.reduce(logits, axis=-1, keepdims=True),
        out=None if out is None else logits,
    )
    exp = np.exp(shifted, out=out)
    total = np.add.reduce(exp, axis=-1, keepdims=True)
    exp /= total
    shifted -= np.log(total)
    return exp, shifted


class ParameterViews(tuple):
    """Arrays laid back to back in a contiguous stretch of a 1-D buffer.

    Element ``i`` is a reshaped view of a slice of :attr:`flat`, the stretch
    of :attr:`buffer` that starts at :attr:`offset`, so writes through
    either are seen by both, and whole-buffer operations on :attr:`flat`
    touch every array at once.  Several ``ParameterViews`` may cover one
    buffer at different offsets.
    """

    buffer: np.ndarray
    offset: int
    flat: np.ndarray

    def __new__(
        cls, buffer: np.ndarray, shapes: Sequence[Tuple[int, ...]], offset: int = 0
    ) -> "ParameterViews":
        sizes = [math.prod(shape) for shape in shapes]
        end = offset + sum(sizes)
        if end > buffer.size:
            raise ValueError(
                f"shapes cover elements {offset}..{end} of a {buffer.size}-element buffer"
            )
        if offset == 0 and end == buffer.size:
            flat = buffer  # the object itself, which copies made with it share
        else:
            flat = buffer[offset:end]
        views = []
        start = 0
        for shape, size in zip(shapes, sizes):
            views.append(flat[start : start + size].reshape(shape))
            start += size
        self = super().__new__(cls, views)
        self.buffer = buffer
        self.offset = offset
        self.flat = flat
        return self

    def __reduce__(self):
        # Copies and pickles rebuild the views over the (copied) buffer.  The
        # buffer object is shared by every ``ParameterViews`` over it (and
        # by an optimiser over the whole of it), so copying them together
        # copies the buffer once and they all keep sharing it.
        return (type(self), (self.buffer, tuple(view.shape for view in self), self.offset))


class MultiHeadMLP:
    """MLP trunk (tanh activations) with several linear output heads.

    The heads are stored as one ``(trunk_out, sum(head_sizes))`` weight
    matrix and one bias, head ``h`` owning the column block
    ``head_offsets[h] : head_offsets[h + 1]``, so the heads cost one matmul
    forward and one backward.

    Parameters
    ----------
    input_size:
        Dimension of the input feature vector.
    hidden_sizes:
        Widths of the trunk's hidden layers.
    head_sizes:
        Output dimension of each head.  A critic is simply ``head_sizes=(1,)``.
    rng:
        Draws the initial weights.
    buffer, offset:
        Where the parameters live: ``buffer[offset : offset + size]`` of a
        zero-filled buffer (the biases start at zero).  By default the
        network allocates a buffer of its own.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        head_sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        buffer: Optional[np.ndarray] = None,
        offset: int = 0,
    ):
        if not head_sizes:
            raise ValueError("at least one head is required")
        rng = rng or np.random.default_rng(0)
        self.input_size = int(input_size)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.head_sizes = tuple(int(h) for h in head_sizes)
        self.head_offsets = tuple(np.cumsum((0,) + self.head_sizes).tolist())
        self.shapes = self.layout(self.input_size, self.hidden_sizes, self.head_sizes)
        self.size = sum(math.prod(s) for s in self.shapes)
        if buffer is None:
            buffer = np.zeros(self.size, dtype=DTYPE)
        self._params = ParameterViews(buffer, self.shapes, offset)

        # Same draws, in the same order, as allocating each trunk layer and
        # each head on its own (drawn in float64, stored rounded to DTYPE).
        trunk_weights, _, head_weights, _ = self._groups(self._params)
        prev = self.input_size
        for W in trunk_weights:
            W[...] = rng.normal(0.0, np.sqrt(2.0 / prev), size=W.shape)
            prev = W.shape[1]
        scale = 0.1 * np.sqrt(1.0 / prev)
        for start, stop in zip(self.head_offsets, self.head_offsets[1:]):
            head_weights[0][:, start:stop] = rng.normal(0.0, scale, size=(prev, stop - start))

    @staticmethod
    def layout(
        input_size: int, hidden_sizes: Sequence[int], head_sizes: Sequence[int]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Parameter shapes in :meth:`parameters` order: trunk weights, trunk
        biases, the heads' weight matrix, the heads' bias."""
        hidden_sizes = tuple(hidden_sizes)
        trunk_in = (input_size,) + hidden_sizes[:-1]
        trunk_out = hidden_sizes[-1] if hidden_sizes else input_size
        width = sum(head_sizes)
        return (
            tuple(zip(trunk_in, hidden_sizes))
            + tuple((w,) for w in hidden_sizes)
            + ((trunk_out, width), (width,))
        )

    @staticmethod
    def _groups(arrays: Sequence[np.ndarray]) -> Tuple[Sequence[np.ndarray], ...]:
        """``arrays`` (in :meth:`parameters` order) split into trunk weights,
        trunk biases, the heads' weight and the heads' bias (one-element
        sequences)."""
        t = len(arrays) // 2 - 1
        return arrays[:t], arrays[t : 2 * t], arrays[2 * t : 2 * t + 1], arrays[2 * t + 1 :]

    # ------------------------------------------------------------------ #
    # parameter plumbing
    # ------------------------------------------------------------------ #
    def parameters(self) -> ParameterViews:
        """Parameter arrays (views into the parameter buffer, not copies)."""
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
    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Run the network on a batch (or one vector) ``x``, cast to :data:`DTYPE`.

        Returns ``out``, every head's outputs side by side
        (``(n, sum(head_sizes))``, head ``h`` in columns
        ``head_offsets[h] : head_offsets[h + 1]``), and the activations
        :meth:`backward` needs.
        """
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim == 1:
            x = x[None, :]
        trunk_weights, trunk_biases, (W,), (b,) = self._groups(self._params)
        activations = [x]
        h = x
        for Wt, bt in zip(trunk_weights, trunk_biases):
            h = np.tanh(h @ Wt + bt)
            activations.append(h)
        return h @ W + b, activations

    def backward(
        self,
        activations: List[np.ndarray],
        grad_out: np.ndarray,
        grads: Optional[Sequence[np.ndarray]] = None,
    ) -> Sequence[np.ndarray]:
        """Back-propagate ``grad_out``, the gradient of the whole ``out`` of
        :meth:`forward`, into ``grads`` (arrays aligned with
        :meth:`parameters`; by default views into one fresh flat buffer, a
        :class:`ParameterViews`), and return them."""
        if grads is None:
            grads = ParameterViews(np.empty(self.size, dtype=DTYPE), self.shapes)
        grad_out = np.asarray(grad_out, dtype=DTYPE)
        trunk_weights, _, (W,), _ = self._groups(self._params)
        trunk_w_grads, trunk_b_grads, (gW,), (gb,) = self._groups(grads)
        np.matmul(activations[-1].T, grad_out, out=gW)
        np.add.reduce(grad_out, axis=0, out=gb)
        grad_h = grad_out @ W.T
        for layer in reversed(range(len(trunk_weights))):
            post = activations[layer + 1]
            pre_grad = grad_h * (1.0 - post * post)  # d tanh
            np.matmul(activations[layer].T, pre_grad, out=trunk_w_grads[layer])
            np.add.reduce(pre_grad, axis=0, out=trunk_b_grads[layer])
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

    ``params`` is a :class:`ParameterViews` (e.g.
    :meth:`MultiHeadMLP.parameters`) or a list holding one contiguous
    floating-point array.  The moments, the gradient and every step are in
    that buffer's own dtype (:data:`DTYPE` for a network).  A step is one
    pass of in-place ufuncs over the whole buffer, in the order of the
    per-array textbook update::

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)

    ``groups`` splits the parameter arrays into consecutive groups (how many
    arrays each holds; by default one group holds them all), and ``lr`` is
    one rate or one per group.  When ``max_grad_norm`` is set, each group's
    gradient is first scaled down to that L2 norm on its own; the norm is
    one ``np.add.reduce`` over the group's stretch of the buffer, and the
    scale is a Python float, so it does not promote the gradient.  Only the
    moments persist between steps; scratch buffers are allocated per step.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float | Sequence[float] = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = 5.0,
        groups: Optional[Sequence[int]] = None,
    ):
        self.params = params
        self._flat = _flat_buffer(params)
        groups = (len(params),) if groups is None else tuple(int(g) for g in groups)
        if sum(groups) != len(params) or min(groups) < 1:
            raise ValueError(f"groups {groups} do not split {len(params)} parameter arrays")
        rates = (lr,) * len(groups) if np.isscalar(lr) else tuple(lr)
        if len(rates) != len(groups):
            raise ValueError("give one learning rate, or one per group")
        offsets = np.cumsum([0] + [np.asarray(p).size for p in params])
        bounds = offsets[np.cumsum((0,) + groups)].tolist()
        #: ``(start, stop, learning rate)`` of each group's stretch of the buffer.
        self.groups = [(a, b, float(rate)) for a, b, rate in zip(bounds, bounds[1:], rates)]
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.max_grad_norm = None if max_grad_norm is None else float(max_grad_norm)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One update from ``grads``, arrays aligned with the parameters.

        A :class:`ParameterViews` gradient in the buffer's dtype (the fresh
        buffer :meth:`MultiHeadMLP.backward` returns) is consumed: it is
        clipped in place and then reused as scratch, so a step allocates
        one buffer of its own.  Other gradients are copied first.
        """
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        dtype = self._flat.dtype
        if isinstance(grads, ParameterViews) and grads.flat.dtype == dtype:
            grad = grads.flat
        else:
            grad = np.concatenate([np.asarray(g, dtype=dtype).reshape(-1) for g in grads])
        if grad.size != self._flat.size:
            raise ValueError("gradient sizes do not match the parameters")

        scratch = np.empty_like(grad)
        if self.max_grad_norm is not None:
            limit = self.max_grad_norm
            np.multiply(grad, grad, out=scratch)
            for start, stop, _ in self.groups:
                total = math.sqrt(float(np.add.reduce(scratch[start:stop])))
                if total > limit and total > 0:
                    grad[start:stop] *= limit / total

        self._t += 1
        m, v = self._m, self._v
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=scratch)
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=scratch)
        scratch *= grad
        v += scratch
        denom = np.divide(v, 1 - self.beta2 ** self._t, out=grad)  # the gradient is spent
        np.sqrt(denom, out=denom)
        denom += self.eps
        step = np.divide(m, 1 - self.beta1 ** self._t, out=scratch)
        for start, stop, rate in self.groups:
            step[start:stop] *= rate
        step /= denom
        self._flat -= step
