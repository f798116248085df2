import numpy as np
import pytest
from hypothesis import given, strategies as st

from scarforge.basis import (
    BasisSubset,
    bitstring,
    flip_index,
    mirror_index,
    set_window,
    sorted_find,
    sorted_unique,
    tile_pattern,
    translate_index,
    window_value,
)


def test_bit_convention_msb_first():
    assert bitstring(1, 4) == "0001"
    assert tile_pattern("0001", 4) == 1
    assert bitstring(0, 4) == "0000"
    assert bitstring(15, 4) == "1111"


def test_translate_single_bit():
    s = int("1000", 2)
    assert bitstring(translate_index(s, 1, 4), 4) == "0100"
    assert translate_index(s, 0, 4) == s


def test_translate_neel_by_two_is_identity():
    L = 12
    neel = tile_pattern("10", L)
    assert translate_index(neel, 2, L) == neel
    assert bitstring(translate_index(neel, 1, L), L) == "01" * 6


def test_translate_composition_exhaustive():
    for L in (4, 6, 8, 10):
        for x in range(1 << L):
            for a in range(L):
                for b in (0, 1, 3):
                    lhs = translate_index(translate_index(x, a, L), b, L)
                    rhs = translate_index(x, (a + b) % L, L)
                    assert lhs == rhs


def test_mirror():
    assert bitstring(mirror_index(int("1100", 2), 4), 4) == "0011"
    assert bitstring(mirror_index(int("100000", 2), 6), 6) == "000001"
    pal = int("0110", 2)
    assert mirror_index(pal, 4) == pal


def test_mirror_and_flip_are_involutions():
    for L in (4, 8):
        for x in range(1 << L):
            assert mirror_index(mirror_index(x, L), L) == x
            assert flip_index(flip_index(x, L), L) == x


def test_global_spin_flip():
    assert bitstring(flip_index(0, 4), 4) == "1111"
    L = 8
    assert flip_index(tile_pattern("10", L), L) == tile_pattern("01", L)


def test_window_value_and_set_window_wrap():
    L = 6
    x = int("100011", 2)
    # window at site 5 covers sites 5, 6, 1, 2 -> bits 1,1,1,0
    assert window_value(x, 5, 4, L) == int("1110", 2)
    y = set_window(x, 5, 4, L, int("0001", 2))
    assert bitstring(y, L) == "010000"


def test_subset_positions_and_uniqueness():
    sub = BasisSubset([3, 1, 7], 4)
    assert list(sub.states) == [1, 3, 7]
    assert sub.position(3) == 1
    assert 7 in sub and 2 not in sub
    for states in ([1, 1, 2], [5, 2, 5], np.array([9, 0, 3, 0], dtype=np.int64), [4, 4]):
        with pytest.raises(ValueError, match="unique"):
            BasisSubset(states, 4)
    assert BasisSubset([], 4).size == 0


_values = st.lists(st.integers(-40, 40), max_size=30)


@given(values=_values)
def test_sorted_unique_matches_python_set(values):
    out = sorted_unique(np.array(values, dtype=np.int64))
    assert out.dtype == np.int64
    assert out.tolist() == sorted(set(values))


@given(haystack=_values, needles=_values)
def test_sorted_find_matches_python_set(haystack, needles):
    # duplicates in the needles, absent values on both sides of the range,
    # and an empty haystack or needle list all come up
    table = sorted_unique(np.array(haystack, dtype=np.int64))
    slots = sorted_find(table, np.array(needles, dtype=np.int64))
    assert slots.shape == (len(needles),)
    for needle, slot in zip(needles, slots.tolist()):
        if needle in set(haystack):
            assert table[slot] == needle
        else:
            assert slot == -1


def test_sorted_helpers_edge_cases():
    empty = np.array([], dtype=np.int64)
    assert sorted_unique(empty).tolist() == []
    assert sorted_unique(np.array([7])).tolist() == [7]
    assert sorted_unique(np.array([3, 3, 3])).tolist() == [3]
    assert sorted_find(empty, np.array([1, 2])).tolist() == [-1, -1]
    assert sorted_find(np.array([4]), np.array([4, 3, 5, 4])).tolist() == [0, -1, -1, 0]
    assert sorted_find(np.array([1, 5, 9]), empty).tolist() == []


def test_basis_vector_is_one_hot():
    sub = BasisSubset([9, 3, 5], 4)
    vec = sub.basis_vector(5)
    assert vec.dtype == complex
    assert vec.tolist() == [0.0, 1.0, 0.0]    # slot of 5 among the sorted states 3, 5, 9
    with pytest.raises(KeyError):
        sub.basis_vector(4)
