"""Arbiters and allocators (paper: round-robin arbitration).

The router uses a *separable input-first* allocator built from
round-robin arbiters for both VC allocation and switch allocation —
the standard light-weight scheme for 5-stage VC routers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` requesters.

    After a grant, priority moves to the requester *after* the winner,
    which guarantees starvation freedom under persistent requests.
    """

    __slots__ = ("size", "_pointer", "grants")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("arbiter size must be positive")
        self.size = size
        self._pointer = 0
        self.grants = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant one of the asserted ``requests``; ``None`` if none."""
        if len(requests) != self.size:
            raise ValueError("request vector width mismatch")
        for offset in range(self.size):
            idx = (self._pointer + offset) % self.size
            if requests[idx]:
                self._pointer = (idx + 1) % self.size
                self.grants += 1
                return idx
        return None

    def grant_indices(self, indices: Iterable[int]) -> Optional[int]:
        """Grant among a sparse set of requesting indices; the same
        winner :meth:`grant` picks from the equivalent request vector,
        found without building one."""
        size = self.size
        pointer = self._pointer
        winner = None
        best = size
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(
                    f"request index {i} out of range 0..{size - 1}"
                )
            # distance from the priority pointer, rotating past the end
            offset = i - pointer if i >= pointer else i - pointer + size
            if offset < best:
                best = offset
                winner = i
        if winner is None:
            return None
        self._pointer = (winner + 1) % size
        self.grants += 1
        return winner

    def peek_priority(self) -> int:
        """Current priority pointer (exposed for tests)."""
        return self._pointer
