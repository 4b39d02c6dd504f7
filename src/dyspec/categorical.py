"""Probability-vector arithmetic for draft/target distributions.

A :class:`Categorical` is a normalized probability vector over a token
vocabulary.  The all-zero vector is a first-class flagged value rather than
an exception: residual subtraction and support removal legitimately produce
it, and downstream code uses the flag to stop sampling at an exhausted
position.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-9

# ndarray.cumsum and .sum without their Python-level wrappers: the same
# loops, so the same bits, at about half the cost per call on short rows.
_cumsum, _total = np.add.accumulate, np.add.reduce


class Categorical:
    """Normalized probability vector, or the flagged zero vector.

    The zero vector signals exhausted support (no residual mass left).  It
    must never be sampled; :func:`sample` raises on it.
    """

    __slots__ = ("probs", "is_zero")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a non-empty 1-D vector")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if total != 0.0 and abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probs = p
        self.is_zero = total == 0.0

    @classmethod
    def _wrap(cls, probs: np.ndarray, is_zero: bool = False) -> "Categorical":
        out = object.__new__(cls)
        out.probs = probs
        out.is_zero = is_zero
        return out

    @classmethod
    def zero(cls, size: int) -> "Categorical":
        return cls._wrap(np.zeros(size, dtype=np.float64), is_zero=True)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs > 0.0))

    def __getitem__(self, token: int) -> float:
        return float(self.probs[token])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Categorical)
            and self.is_zero == other.is_zero
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Categorical.zero({self.size})"
        return f"Categorical({np.array2string(self.probs, precision=4)})"


def softmax_with_temperature(logits, temp: float) -> Categorical:
    """Softmax of logits/temp; temp 0 gives a one-hot at the argmax.

    Argmax ties at temperature 0 break to the lowest index so that greedy
    decoding is reproducible.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    if temp < 0.0:
        raise ValueError("temperature must be non-negative")
    if temp == 0.0:
        probs = np.zeros(z.size, dtype=np.float64)
        probs[int(np.argmax(z))] = 1.0
        return Categorical._wrap(probs)
    e = np.exp((z - z.max()) / temp)
    return Categorical._wrap(e / e.sum())


def sample(dist: Categorical, u: float) -> int:
    """Inverse-CDF sample over the stored order using one uniform in [0, 1)."""
    if dist.is_zero:
        raise ValueError("cannot sample from an exhausted (zero) distribution")
    idx = int(_cumsum(dist.probs).searchsorted(u, "right"))
    if idx >= dist.probs.size or dist.probs[idx] == 0.0:
        # u landed past the last positive entry by rounding; clamp to it.
        idx = int(np.flatnonzero(dist.probs > 0.0)[-1])
    return idx


def residual_target(target: Categorical, draft: Categorical) -> Categorical:
    """normalize(relu(target - draft)); zero-flagged when target <= draft.

    The result is the corrective distribution sampled after a rejection; its
    support is exactly the tokens where the target exceeds the draft.
    """
    if target.size != draft.size:
        raise ValueError("distributions must share a vocabulary")
    diff = target.probs - draft.probs
    np.maximum(diff, 0.0, out=diff)
    total = float(_total(diff))
    if total <= 0.0:
        return Categorical.zero(target.size)
    return Categorical._wrap(np.divide(diff, total, out=diff))


def remove_and_renorm(dist: Categorical, token: int) -> Categorical:
    """Zero one entry and renormalize; zero-flagged when it held all mass."""
    if dist.is_zero:
        raise ValueError("cannot remove from an exhausted (zero) distribution")
    p = dist.probs.copy()
    p[token] = 0.0
    total = float(_total(p))
    if total <= 0.0:
        return Categorical.zero(dist.size)
    return Categorical._wrap(np.divide(p, total, out=p))
