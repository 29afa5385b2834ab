"""Small bounded containers used for runtime bookkeeping.

Hardware tables are finite; the threat detector's fault-history store
and the mitigation's data cache are modelled with this bounded table so
the simulated hardware cannot accumulate unbounded state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedTable(Generic[K, V]):
    """LRU-evicting key/value table modelling a small hardware CAM."""

    __slots__ = ("capacity", "_table")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._table: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K, default: V | None = None) -> V | None:
        if key in self._table:
            self._table.move_to_end(key)
            return self._table[key]
        return default

    def put(self, key: K, value: V) -> None:
        if key in self._table:
            self._table.move_to_end(key)
        self._table[key] = value
        if len(self._table) > self.capacity:
            self._table.popitem(last=False)

    def pop(self, key: K, default: V | None = None) -> V | None:
        return self._table.pop(key, default)

    def __contains__(self, key: K) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def items(self):
        return self._table.items()

    def clear(self) -> None:
        self._table.clear()
