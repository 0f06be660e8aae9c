"""Work buffers that a loop hands out again on every pass.

A loop that runs the same array work once per item (fbank over each
utterance of an archive, a training step over the same batch) creates a
``Workspace`` before its first item, passes it down with every item and
drops it when the loop returns. Each pass then writes into the pages the
previous pass faulted in, instead of freeing them to an allocator that may
hand them back to the kernel and faulting fresh ones in again.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Arrays of one dtype (float64 unless given) handed out again on every
    pass: after ``rewind``, the k-th request gets the k-th buffer, grown
    when too small. A request returns uninitialized memory that aliases the
    buffer, so whatever a caller hands back to its own caller must be
    copied out of it first."""

    def __init__(self, dtype: np.dtype | type = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._bufs: list[np.ndarray] = []
        self._next = 0

    @property
    def buffers(self) -> tuple[np.ndarray, ...]:
        """The buffers held now, in request order."""
        return tuple(self._bufs)

    def rewind(self) -> None:
        self._next = 0

    def __call__(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._next == len(self._bufs):
            self._bufs.append(np.empty(size, self.dtype))
        elif self._bufs[self._next].size < size:
            self._bufs[self._next] = np.empty(size, self.dtype)
        buf = self._bufs[self._next]
        self._next += 1
        return buf[:size].reshape(shape)
