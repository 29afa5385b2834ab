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

from repro._lazy import facade

_EXPORTS = {
    "bit": "bits",
    "extract_field": "bits",
    "insert_field": "bits",
    "mask": "bits",
    "parity": "bits",
    "popcount": "bits",
    "rotl": "bits",
    "rotr": "bits",
    "two_hot_masks": "bits",
    "BitPermutation": "bits",
    "derive_seed": "rng",
    "SeededStream": "rng",
    "spread": "rng",
    "BoundedTable": "records",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
