"""Deterministic random streams.

Every stochastic component in the simulator (traffic generators, transient
fault processes, obfuscation key schedules) draws from its own
:class:`SeededStream`, derived from a single experiment seed plus a string
label.  Two runs with the same top-level seed are bit-for-bit identical
regardless of the order in which components happen to draw.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def derive_seed(root: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``root`` and a label path.

    Uses BLAKE2b so that nearby roots/labels do not produce correlated
    child streams (a classic pitfall of ``root + hash(label)`` schemes).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for label in labels:
        h.update(b"/")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "little") & _MASK64


class SeededStream:
    """A labelled, reproducible random stream.

    Thin wrapper over :class:`random.Random` with a few helpers for the
    integer-heavy draws the simulator makes.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, root: int, *labels: object):
        self.seed = derive_seed(root, *labels)
        self._rng = random.Random(self.seed)

    def child(self, *labels: object) -> "SeededStream":
        """Derive a sub-stream; independent of draws made on this one."""
        return SeededStream(self.seed, *labels)

    # -- state capture --------------------------------------------------
    def getstate(self) -> tuple:
        """The stream's exact position, as an opaque picklable value.

        Together with :meth:`setstate` this makes every stochastic
        component checkpointable: restoring the state replays the very
        next draw bit-for-bit (simulation snapshots and replay tooling
        both rest on this).
        """
        return self._rng.getstate()

    def setstate(self, state: tuple) -> None:
        """Rewind/advance the stream to a :meth:`getstate` capture."""
        self._rng.setstate(state)

    # -- draws ----------------------------------------------------------
    def bits(self, width: int) -> int:
        """A uniform ``width``-bit integer."""
        return self._rng.getrandbits(width) if width > 0 else 0

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def uniform_fn(self) -> Callable[[], float]:
        """The bound ``random`` of the underlying generator, for loops
        that draw many uniform floats: each call is one draw of
        :meth:`random`, without a wrapper call around it."""
        return self._rng.random

    def chance(self, probability: float) -> bool:
        """Bernoulli draw."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._rng.choices(items, weights=weights, k=1)[0]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def geometric(self, p: float) -> int:
        """Number of trials until first success (support ``1, 2, ...``)."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        count = 1
        while not self.chance(p):
            count += 1
        return count

    def pick_distinct_pairs(self, width: int, count: int) -> list[int]:
        """``count`` distinct two-hot masks over ``width`` bits."""
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            a = self.randint(0, width - 1)
            b = self.randint(0, width - 1)
            if a == b:
                continue
            m = (1 << a) | (1 << b)
            if m not in seen:
                seen.add(m)
                out.append(m)
        return out


def spread(total: float, weights: Iterable[float]) -> list[float]:
    """Split ``total`` proportionally to ``weights`` (used by traffic
    profile builders)."""
    ws = list(weights)
    s = sum(ws)
    if s <= 0:
        raise ValueError("weights must sum to a positive value")
    return [total * w / s for w in ws]
