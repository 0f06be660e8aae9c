"""Deterministic 64-bit random streams.

Every random decision in the toolkit flows from one user-facing seed through
``derive_seed``, so independent work items (one per speaker, per utterance,
per augmentation copy) get independent streams, and each item's output can
be reproduced on its own, whatever else is processed with it.

The generator is splitmix64; the string hash is FNV-1a. Both are fixed
algorithms, so streams are stable across platforms and Python versions.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 output scrambler."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a child seed from ``base`` and an ordered list of labels.

    Labels may be ints or strings; the derivation is order-sensitive.
    """
    h = base & _MASK64
    for part in parts:
        v = fnv1a64(part.encode("utf-8")) if isinstance(part, str) else part & _MASK64
        h = _mix((h + _GOLDEN) & _MASK64 ^ v)
    return h


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), exact (mask-and-reject)."""
        if n <= 0:
            raise ValueError(f"next_below requires n >= 1, got {n}")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v
