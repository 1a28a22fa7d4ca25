"""Elementary neural-network layers in numpy.

Only what the two paper architectures need: LayerNorm (OPT) and RMSNorm
(Llama 2, [54]), ReLU and SiLU activations, and dense projections.  All
layers are pure functions over explicit weight arrays so the model can be
constructed deterministically from a seed and weights can be shared or
sharded without hidden state.

Every layer computes in the dtype of its weights, which the constructors
take (float64 by default).  Random weights are drawn and scaled in
float32 and cast once, so a float64 model is the exact upcast of the
float32 one (see ARCHITECTURE.md §16).  Constants stay Python floats: under NumPy 2's
promotion rules a ``np.float64`` scalar would silently upcast a float32
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit (SiLU / swish), used by Llama 2."""
    return x / (1.0 + np.exp(-x))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass
class LayerNorm:
    """Standard layer normalisation with learned gain and bias."""

    gain: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5

    @classmethod
    def identity(cls, dim: int, dtype: DTypeLike = np.float64) -> "LayerNorm":
        return cls(gain=np.ones(dim, dtype=dtype), bias=np.zeros(dim, dtype=dtype))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # The mean is computed once; the variance reuses the centred tensor
        # and the normalisation scales it in place.
        centred = x - x.mean(axis=-1, keepdims=True)
        var = np.einsum("...i,...i->...", centred, centred) / x.shape[-1]
        centred *= (1.0 / np.sqrt(var + self.eps))[..., None]
        centred *= self.gain
        centred += self.bias
        return centred


@dataclass
class RMSNorm:
    """Root-mean-square normalisation (no mean subtraction, no bias) [54]."""

    gain: np.ndarray
    eps: float = 1e-5

    @classmethod
    def identity(cls, dim: int, dtype: DTypeLike = np.float64) -> "RMSNorm":
        return cls(gain=np.ones(dim, dtype=dtype))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # One reduction (the sum of squares, without an ``x * x``
        # temporary) and one output buffer scaled in place.
        mean_sq = np.einsum("...i,...i->...", x, x) / x.shape[-1]
        out = x * (1.0 / np.sqrt(mean_sq + self.eps))[..., None]
        out *= self.gain
        return out


@dataclass
class Linear:
    """Dense projection ``y = x W + b`` (weight stored input-major)."""

    weight: np.ndarray  # [in_dim, out_dim]
    bias: np.ndarray | None = None

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        in_dim: int,
        out_dim: int,
        with_bias: bool = True,
        scale: float = 0.0,
        dtype: DTypeLike = np.float64,
    ) -> "Linear":
        """Gaussian init scaled for unit-variance activations, drawn and
        scaled in float32, then cast once to ``dtype``."""
        if scale == 0.0:
            scale = 1.0 / math.sqrt(in_dim)
        weight = rng.standard_normal((in_dim, out_dim), dtype=np.float32)
        weight *= scale
        bias = np.zeros(out_dim, dtype=dtype) if with_bias else None
        return cls(weight=weight.astype(dtype, copy=False), bias=bias)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y


@dataclass
class OptMlp:
    """OPT's two-layer feed-forward network with ReLU."""

    up: Linear
    down: Linear

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        hidden: int,
        intermediate: int,
        dtype: DTypeLike = np.float64,
    ) -> "OptMlp":
        return cls(
            up=Linear.init(rng, hidden, intermediate, dtype=dtype),
            down=Linear.init(rng, intermediate, hidden, dtype=dtype),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.down(relu(self.up(x)))


@dataclass
class SwiGluMlp:
    """Llama 2's gated feed-forward network: ``down(silu(gate(x)) * up(x))``."""

    gate: Linear
    up: Linear
    down: Linear

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        hidden: int,
        intermediate: int,
        dtype: DTypeLike = np.float64,
    ) -> "SwiGluMlp":
        def proj(in_dim: int, out_dim: int) -> Linear:
            return Linear.init(rng, in_dim, out_dim, with_bias=False, dtype=dtype)

        return cls(
            gate=proj(hidden, intermediate),
            up=proj(hidden, intermediate),
            down=proj(intermediate, hidden),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.down(silu(self.gate(x)) * self.up(x))
