"""Minimal NumPy neural-network toolkit for the DDPG agent.

No deep-learning framework is available offline, so the actor and critic are
implemented directly on NumPy: fully-connected layers with ReLU hidden
activations, an optional bounded (tanh) output, reverse-mode gradients, and
an Adam optimiser.  The implementation is deliberately small — dense layers
only, float32, batch-first — because that is all DDPG over a handful of
state/action dimensions needs, and it keeps each training step a few matrix
multiplications (BLAS-bound, per the HPC guides).

Memory layout.  A network keeps every parameter in one contiguous float32
vector, :attr:`MLP.flat`, ordered ``W0, b0, W1, b1, ...`` (the order of
:meth:`MLP.parameters`).  ``weights[i]`` and ``biases[i]`` are views into
it: loading parameters copies *into* the views and never rebinds them, so a
hard copy, a Polyak update and an Adam step each run over one vector (the
last two in ``CHUNK``-element pieces, which bounds their scratch).  A
network that is trained also owns :attr:`MLP.grad`, a flat gradient vector
of the same layout: each :meth:`MLP.backward` that computes parameter
gradients allocates it afresh (so gradients it returned earlier are never
overwritten) and fills it through views with ``np.matmul(..., out=)`` /
``.sum(axis=0, out=)``.  Networks that are never trained (targets, acting
copies) never allocate one.

Float promotion.  Adam's bias-corrected step size ``lr_t`` is an
``np.float64`` scalar.  Under NumPy 2 promotion ``lr_t * m / (sqrt(v) + eps)``
is therefore computed in float64 and rounded to float32 only by ``p -= ...``;
under NumPy 1's value-based promotion it stays float32.  The scratch for that
step takes its dtype from ``np.result_type(lr_t, m)`` at run time, so either
rule gives exactly the floats of the plain expression.  Every other product
(the moment updates, the Polyak mix) has a Python-float factor and rounds in
float32 under both rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng

Array = np.ndarray

#: Elements per pass of the in-place elementwise updates (Adam, Polyak), so
#: their scratch is this long rather than as long as a network.
CHUNK = 32_768


def _chunks(*arrays: Array):
    """Aligned ``CHUNK``-long slices of equally long 1-D arrays."""
    for start in range(0, arrays[0].size, CHUNK):
        yield tuple(a[start : start + CHUNK] for a in arrays)


class MLP:
    """A fully-connected network ``in -> hidden... -> out``.

    Parameters
    ----------
    layer_sizes:
        Sizes including input and output, e.g. ``[8, 400, 200, 100, 3]``.
    output_activation:
        ``None`` for a linear head (critic) or ``"tanh"`` for a bounded head
        (actor, range [-1, 1] matching the action-mapping Eq. 9).
    seed:
        Seed for the (He-style) weight initialisation.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        output_activation: Optional[str] = None,
        seed: SeedLike = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output size")
        if output_activation not in (None, "tanh"):
            raise ValueError(f"unsupported output activation {output_activation!r}")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.output_activation = output_activation
        self._layout = self._slices()
        self._bind(np.zeros(self._layout[-1][1], dtype=np.float32))
        rng = as_rng(seed)
        for fan_in, w in zip(self.layer_sizes[:-1], self.weights):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape).astype(np.float32)
        # Final layer: small uniform init, standard for DDPG output layers.
        last = self.weights[-1]
        last[...] = rng.uniform(-3e-3, 3e-3, size=last.shape).astype(np.float32)

    def _slices(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(start, stop, shape)`` of each parameter in :meth:`parameters` order."""
        layout = []
        start = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                layout.append((start, start + math.prod(shape), shape))
                start += math.prod(shape)
        return layout

    def _split(self, vector: Array) -> List[Array]:
        """Views of ``vector`` shaped like :meth:`parameters`."""
        return [vector[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def _bind(self, flat: Array) -> None:
        """Adopt ``flat`` as the parameter vector and rebuild its views."""
        self.flat = flat
        self._params = self._split(flat)
        self.weights: List[Array] = self._params[0::2]
        self.biases: List[Array] = self._params[1::2]
        #: Flat gradient vector of the last :meth:`backward` that computed
        #: parameter gradients; ``None`` for a network never trained.
        self.grad: Optional[Array] = None
        self._mix: Optional[Array] = None
        self._cache: Optional[List[Array]] = None

    def clone(self) -> "MLP":
        """An independent network with this one's architecture and parameters."""
        twin = object.__new__(MLP)
        twin.layer_sizes = list(self.layer_sizes)
        twin.output_activation = self.output_activation
        twin._layout = self._layout
        twin._bind(self.flat.copy())
        return twin

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> List[Array]:
        """Flat list of parameter arrays (weights then biases, layer order).

        The arrays are views into :attr:`flat`; updating them in place
        updates the network.
        """
        return list(self._params)

    def set_parameters(self, params: Sequence[Array]) -> None:
        """Load parameters produced by :meth:`parameters` (copies values)."""
        if len(params) != len(self._params):
            raise ValueError(f"expected {len(self._params)} parameter arrays, got {len(params)}")
        if any(np.shape(p) != q.shape for p, q in zip(params, self._params)):
            raise ValueError("parameter shape mismatch")
        for src, dst in zip(params, self._params):
            dst[...] = src

    def _check_same_layout(self, other: "MLP") -> None:
        if other.layer_sizes != self.layer_sizes:
            raise ValueError("parameter shape mismatch")

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy another network's parameters into this one."""
        self._check_same_layout(other)
        np.copyto(self.flat, other.flat)

    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak update ``theta <- tau * other + (1 - tau) * theta``.

        ``tau`` is applied as a Python float, so both products round in
        float32 before they are added.
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self._check_same_layout(other)
        tau = float(tau)
        if self._mix is None:
            self._mix = np.empty(min(CHUNK, self.flat.size), dtype=np.float32)
        for mine, theirs in _chunks(self.flat, other.flat):
            mix = self._mix[: mine.size]
            np.multiply(theirs, tau, out=mix)
            mine *= 1.0 - tau
            mine += mix

    # ------------------------------------------------------------------ #
    def forward(self, x: Array, cache: bool = False) -> Array:
        """Forward pass on a ``(batch, in)`` array (a single vector is promoted).

        Each layer's bias add and activation run in place on that layer's
        fresh matmul output, so the returned array is never reused.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float32))
        activations = [x]
        h = x
        last = self.num_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            elif self.output_activation == "tanh":
                np.tanh(h, out=h)
            activations.append(h)
        if cache:
            self._cache = activations
        return h

    def __call__(self, x: Array) -> Array:
        return self.forward(x)

    def backward(
        self, grad_output: Array, param_grads: bool = True, input_grad: bool = True
    ) -> Tuple[Optional[List[Array]], Optional[Array]]:
        """Back-propagate ``dL/d(output)`` through the cached forward pass.

        Returns ``(parameter_gradients, grad_input)`` where the parameter
        gradients follow the layout of :meth:`parameters` and ``grad_input``
        is ``dL/d(input)`` (needed for the DDPG actor update, where the loss
        gradient flows through the critic's action input).

        The parameter gradients are views into a fresh :attr:`grad` vector,
        so a later call never overwrites them.  A caller that does not read
        one of the two results can say so: ``param_grads=False`` skips every
        weight and bias gradient (and leaves :attr:`grad` alone), and
        ``input_grad=False`` skips the first layer's input-gradient matmul.
        The skipped result is returned as ``None``.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        activations = self._cache
        grad = np.atleast_2d(np.asarray(grad_output, dtype=np.float32))
        grads: Optional[List[Array]] = None
        if param_grads:
            self.grad = None  # let an unreferenced previous gradient go first
            self.grad = np.empty_like(self.flat)
            grads = self._split(self.grad)
        last = self.num_layers - 1
        for i in range(last, -1, -1):
            out_i = activations[i + 1]
            if i == last:
                if self.output_activation == "tanh":
                    # tanh'(x) in terms of the output y = tanh(x): 1 - y * y.
                    slope = out_i * out_i
                    np.subtract(1.0, slope, out=slope)
                    grad = grad * slope
            else:
                # ``grad`` is the fresh matmul output of the layer above.
                # Multiply by the mask, not np.where: inf * 0 must stay NaN.
                grad *= out_i > 0.0
            if grads is not None:
                np.matmul(activations[i].T, grad, out=grads[2 * i])
                grad.sum(axis=0, out=grads[2 * i + 1])
            if i > 0 or input_grad:
                grad = grad @ self.weights[i].T
        return grads, (grad if input_grad else None)


@dataclass
class Adam:
    """Adam optimiser over a fixed list of parameter arrays.

    Each gradient must have its parameter's shape and dtype, and each
    parameter must be C-contiguous.  The step runs in place, ``CHUNK``
    elements at a time, with ``out=`` into scratch allocated on the first
    call; a network trained through its flat vector (``step([net.flat],
    [net.grad])``) is updated in one pass.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _m: List[Array] = field(default_factory=list)
    _v: List[Array] = field(default_factory=list)
    _t: int = 0
    #: Per-parameter chunk scratch: one in the parameter dtype, one in the
    #: dtype of ``lr_t * m`` (see the module docstring).
    _scratch: List[Array] = field(default_factory=list)
    _step: List[Array] = field(default_factory=list)

    def step(self, params: List[Array], grads: List[Array]) -> None:
        """Apply one in-place Adam update to ``params`` given ``grads``."""
        if len(params) != len(grads):
            raise ValueError("params and grads must have matching lengths")
        if any(g.shape != p.shape or g.dtype != p.dtype for p, g in zip(params, grads)):
            raise ValueError("each gradient must match its parameter's shape and dtype")
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("parameters must be C-contiguous")
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._scratch = [np.empty(min(CHUNK, p.size), p.dtype) for p in params]
        self._t += 1
        lr_t = self.learning_rate * np.sqrt(1 - self.beta2**self._t) / (1 - self.beta1**self._t)
        if not self._step:
            self._step = [
                np.empty(s.size, np.result_type(lr_t, m)) for s, m in zip(self._scratch, self._m)
            ]
        for p, g, m, v, scratch, step in zip(
            params, grads, self._m, self._v, self._scratch, self._step
        ):
            flats = (p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1))
            for pc, gc, mc, vc in _chunks(*flats):
                s, d = scratch[: pc.size], step[: pc.size]
                mc *= self.beta1
                np.multiply(gc, 1 - self.beta1, out=s)
                mc += s
                vc *= self.beta2
                np.multiply(gc, gc, out=s)
                s *= 1 - self.beta2
                vc += s
                # p -= lr_t * m / (sqrt(v) + eps), with the quotient in d's dtype.
                np.multiply(mc, lr_t, out=d)
                np.sqrt(vc, out=s)
                s += self.epsilon
                np.divide(d, s, out=d)
                pc -= d


__all__ = ["MLP", "Adam"]
