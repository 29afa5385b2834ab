"""Unit + property tests for repro.util.bits."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.util.bits import (
    BitPermutation,
    bit,
    extract_field,
    insert_field,
    mask,
    parity,
    popcount,
    rotl,
    rotr,
    two_hot_masks,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_byte(self):
        assert mask(8) == 0xFF

    def test_64(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBit:
    def test_zero(self):
        assert bit(0) == 1

    def test_sixty_three(self):
        assert bit(63) == 1 << 63

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bit(-3)


class TestPopcountParity:
    def test_popcount_empty(self):
        assert popcount(0) == 0

    def test_popcount_full_byte(self):
        assert popcount(0xFF) == 8

    def test_parity_even(self):
        assert parity(0b1010) == 0

    def test_parity_odd(self):
        assert parity(0b1011) == 1

    def test_popcount_negative_raises(self):
        with pytest.raises(ValueError):
            popcount(-1)

    @given(st.integers(min_value=0, max_value=mask(128)))
    def test_parity_matches_popcount(self, value):
        assert parity(value) == popcount(value) % 2


class TestFields:
    def test_extract_low(self):
        assert extract_field(0xDEADBEEF, 0, 8) == 0xEF

    def test_extract_mid(self):
        assert extract_field(0xDEADBEEF, 8, 8) == 0xBE

    def test_insert_roundtrip(self):
        word = insert_field(0, 10, 6, 0x2A)
        assert extract_field(word, 10, 6) == 0x2A

    def test_insert_preserves_other_bits(self):
        word = mask(32)
        out = insert_field(word, 8, 8, 0)
        assert extract_field(out, 0, 8) == 0xFF
        assert extract_field(out, 16, 16) == 0xFFFF
        assert extract_field(out, 8, 8) == 0

    def test_insert_overflow_raises(self):
        with pytest.raises(ValueError):
            insert_field(0, 0, 4, 16)

    @given(
        st.integers(min_value=0, max_value=mask(64)),
        st.integers(min_value=0, max_value=56),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_insert_extract_property(self, word, offset, width, data):
        value = data.draw(st.integers(min_value=0, max_value=mask(width)))
        out = insert_field(word, offset, width, value)
        assert extract_field(out, offset, width) == value


class TestRotations:
    def test_rotl_simple(self):
        assert rotl(0b0001, 1, 4) == 0b0010

    def test_rotl_wrap(self):
        assert rotl(0b1000, 1, 4) == 0b0001

    def test_rotr_inverse_of_rotl(self):
        assert rotr(rotl(0xAB, 3, 8), 3, 8) == 0xAB

    @given(
        st.integers(min_value=0, max_value=mask(64)),
        st.integers(min_value=0, max_value=200),
    )
    def test_rotl_rotr_roundtrip(self, value, amount):
        assert rotr(rotl(value, amount, 64), amount, 64) == value

    @given(st.integers(min_value=0, max_value=mask(64)))
    def test_rotation_preserves_popcount(self, value):
        assert popcount(rotl(value, 17, 64)) == popcount(value)


class TestBitPermutation:
    def test_identity(self):
        perm = BitPermutation.identity(64)
        assert perm.apply(0xDEADBEEFCAFEF00D) == 0xDEADBEEFCAFEF00D

    def test_rotation_matches_rotl(self):
        perm = BitPermutation.rotation(64, 13)
        value = 0x0123456789ABCDEF
        assert perm.apply(value) == rotl(value, 13, 64)

    def test_reject_non_permutation(self):
        with pytest.raises(ValueError):
            BitPermutation([0, 0, 1])

    def test_single_bit_moves_to_mapped_position(self):
        perm = BitPermutation([2, 0, 1])
        assert perm.apply(0b001) == 0b100
        assert perm.apply(0b010) == 0b001
        assert perm.apply(0b100) == 0b010

    @given(st.integers(min_value=0, max_value=mask(64)), st.integers())
    def test_apply_invert_roundtrip(self, value, seed):
        perm = BitPermutation.from_seed(64, seed)
        assert perm.invert(perm.apply(value)) == value

    @given(st.integers(min_value=0, max_value=mask(64)))
    def test_permutation_preserves_popcount(self, value):
        perm = BitPermutation.from_seed(64, 42)
        assert popcount(perm.apply(value)) == popcount(value)

    def test_equality_and_hash(self):
        a = BitPermutation.from_seed(16, 7)
        b = BitPermutation.from_seed(16, 7)
        c = BitPermutation.from_seed(16, 8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_tables_built_on_first_use(self):
        perm = BitPermutation.from_seed(64, 5)
        assert perm._fwd_tables is None and perm._inv_tables is None
        forward = perm.apply(0xDEADBEEF)
        assert perm._fwd_tables is not None and perm._inv_tables is None
        assert perm.invert(forward) == 0xDEADBEEF
        assert perm._inv_tables is not None

    # 42 and 22 are the L-Ob header and payload windows: partial last byte
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 22, 42, 64])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
    def test_composed_tables_match_bitwise_reference(self, width, seed):
        perm = BitPermutation.from_seed(width, seed)
        perm.apply(0)
        perm.invert(0)
        assert perm._fwd_tables == _bitwise_tables(perm._perm)
        assert perm._inv_tables == _bitwise_tables(perm._inv)

    def test_pickled_before_first_use_matches_after_restore(self):
        perm = BitPermutation.from_seed(42, 9)
        restored = pickle.loads(pickle.dumps(perm))
        assert restored._fwd_tables is None and restored._inv_tables is None
        assert restored == perm and hash(restored) == hash(perm)
        for value in (0, 1, mask(42), 0x2AB_CDEF_0123, 0x155_5555_5555):
            assert restored.apply(value) == perm.apply(value)
            assert restored.invert(value) == perm.invert(value)


def _bitwise_tables(perm):
    """Per-byte tables built entry by entry, testing each of the byte's
    bits: the reference the composed tables must equal."""
    tables = []
    for base in range(0, len(perm), 8):
        table = []
        for value in range(256):
            scattered = 0
            for j in range(min(8, len(perm) - base)):
                if value >> j & 1:
                    scattered |= 1 << perm[base + j]
            table.append(scattered)
        tables.append(table)
    return tables


class TestTwoHotMasks:
    def test_count_is_n_choose_2(self):
        assert len(two_hot_masks(8)) == 28

    def test_all_have_exactly_two_bits(self):
        for m in two_hot_masks(10):
            assert popcount(m) == 2

    def test_all_distinct(self):
        masks = two_hot_masks(12)
        assert len(set(masks)) == len(masks)
