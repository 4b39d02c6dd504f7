"""Counter-based keyed randomness.

Every random draw in the simulator is a pure function of (seed, domain,
integer tag, index).  This makes construction order-independent: the k-th
sampling at a given tree position receives the same uniform no matter which
algorithm (greedy fixed-budget or layer-by-layer threshold) asks for it, and
no matter when.  That property is what lets the two construction algorithms
be compared node-for-node.

A key is hashed to a 64-bit blake2b digest.  A uniform keeps its top 53
bits, ``(digest >> 11) * 2**-53``: every float in [0, 1) on that grid is
equally likely, 0 included, and 1.0 never comes out (scaling all 64 bits
rounds the largest digests up to 1.0).
"""

from __future__ import annotations

import hashlib
import numbers
import struct
from functools import lru_cache
from typing import Callable, Iterable, Tuple

_SCALE = 2.0 ** -53
_pack_index = struct.Struct("<q").pack


@lru_cache(maxsize=None)
def _domain_hash(domain: str):
    """blake2b state that has absorbed ``domain`` and a NUL; only ever copied."""
    return hashlib.blake2b(domain.encode("utf-8") + b"\x00", digest_size=8)


@lru_cache(maxsize=None)
def _int64s(n: int):
    return struct.Struct(f"<{n}q").pack


def check_integer(value: int, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def check_real(value: float, name: str) -> None:
    """Raise ValueError unless ``value`` is a real number; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")


def check_seed(seed: int, name: str) -> None:
    """Raise ValueError unless ``seed`` is an integer that fits the signed 64
    bits it is packed in; every seed a caller passes in is checked here."""
    check_integer(seed, name)
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"{name} must be in [-2**63, 2**63)")


def keyed_uniform(seed: int, domain: str, tag: Iterable[int], index: int) -> float:
    """Uniform in [0, 1) fully determined by (seed, domain, tag, index)."""
    tag = tuple(tag)
    h = _domain_hash(domain).copy()
    h.update(_int64s(len(tag) + 2)(seed, *tag, index))
    return (int.from_bytes(h.digest(), "little") >> 11) * _SCALE


def keyed_uniforms(seed: int, domain: str, tag: Tuple[int, ...]) -> Callable[[int], float]:
    """``fn(index) == keyed_uniform(seed, domain, tag, index)``, bit for bit:
    blake2b streams, so (seed, domain, tag) is absorbed once and each call
    copies that state and absorbs only ``index``."""
    prefix = _domain_hash(domain).copy()
    prefix.update(_int64s(len(tag) + 1)(seed, *tag))

    def fn(index: int) -> float:
        h = prefix.copy()
        h.update(_pack_index(index))
        return (int.from_bytes(h.digest(), "little") >> 11) * _SCALE

    return fn


def derive_seed(seed: int, domain: str, *ints: int) -> int:
    """Derive an independent 63-bit child seed from a parent seed."""
    h = _domain_hash(domain).copy()
    h.update(_int64s(len(ints) + 2)(seed, *ints, 0))
    return int.from_bytes(h.digest(), "little") >> 1


class UniformStream:
    """Sequential uniforms keyed by a seed; draw order defines the stream.

    Nothing in the package draws from it any more (``verify_tree`` maps
    :func:`keyed_uniforms` over a counter, the same stream); it stays while
    ``perfbench/tracer.py`` wraps ``UniformStream.next``.
    """

    def __init__(self, seed: int, domain: str = "stream"):
        self._seed = seed
        self._domain = domain
        self._counter = 0

    def next(self) -> float:
        u = keyed_uniform(self._seed, self._domain, (), self._counter)
        self._counter += 1
        return u
