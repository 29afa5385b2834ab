"""Low-level utilities shared across the reproduction.

Submodules
----------
bits
    Bit-twiddling helpers over Python integers (parity, masks, rotations,
    table-accelerated bit permutations).
rng
    Deterministic, hierarchically-derivable random streams so every
    experiment is reproducible from a single seed.
records
    Small bounded containers used for runtime logging (ring logs, counters).
"""

from repro.util.bits import (
    bit,
    extract_field,
    insert_field,
    mask,
    parity,
    popcount,
    rotl,
    rotr,
    two_hot_masks,
    BitPermutation,
)
from repro.util.rng import derive_seed, SeededStream, spread
from repro.util.records import BoundedTable

__all__ = [
    "bit",
    "extract_field",
    "insert_field",
    "mask",
    "parity",
    "popcount",
    "rotl",
    "rotr",
    "two_hot_masks",
    "BitPermutation",
    "derive_seed",
    "SeededStream",
    "spread",
    "BoundedTable",
]
