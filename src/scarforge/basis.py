"""Bit-level encoding of qubit-chain basis states and lattice symmetry actions.

A basis state of an L-qubit periodic chain is its index, an integer in
[0, 2**L): a Python int, or an int64 numpy array of indices on which the bit
functions here act elementwise.  Qubit 1 is the most significant bit, so at
L = 4 the string |0001> has index 1.  Sites are 1-based in the public API;
the bit holding site s sits at position L - s counted from the least
significant end.  This module is the only one that reads or writes site bits.
"""

from __future__ import annotations

import numpy as np


def bit_of(index, site, length):
    """Bit value (0 or 1) of qubit `site` (1-based) in `index`."""
    return (index >> (length - site)) & 1


def bitstring(index: int, length: int) -> str:
    """0/1 string for a basis state, qubit 1 first."""
    return format(index, f"0{length}b")


def translate_index(index, shift, length):
    """Move every qubit `shift` sites to the right, with periodic wrap.

    Works elementwise on numpy integer arrays as well as plain ints.
    """
    shift = shift % length
    if shift == 0:
        return index
    mask = (1 << shift) - 1
    return (index >> shift) | ((index & mask) << (length - shift))


def mirror_index(index: int, length: int) -> int:
    """Reflect about the center bond: qubit j goes to qubit L + 1 - j."""
    out = 0
    for site in range(length):
        out = (out << 1) | ((index >> site) & 1)
    return out


def flip_index(index, length):
    """Complement every bit (global spin flip)."""
    return index ^ ((1 << length) - 1)


def tile_pattern(pattern: str, length: int) -> int:
    """Index of the state obtained by tiling `pattern` to L sites."""
    if length % len(pattern) != 0:
        raise ValueError(f"pattern {pattern!r} does not tile {length} sites")
    return int(pattern * (length // len(pattern)), 2)


def window_bit_shifts(site: int, width: int, length: int) -> list[int]:
    """Bit positions (from the LSB) of the w window qubits starting at `site`."""
    return [length - (((site - 1 + t) % length) + 1) for t in range(width)]


def window_value(index, site, width, length):
    """Value in [0, 2**w) of the width-w window starting at `site` (wraps)."""
    value = 0
    for t, b in enumerate(window_bit_shifts(site, width, length)):
        value |= ((index >> b) & 1) << (width - 1 - t)
    return value


def set_window(index, site, width, length, value):
    """Replace the width-w window starting at `site` by `value`."""
    out = index
    for t, b in enumerate(window_bit_shifts(site, width, length)):
        bit = (value >> (width - 1 - t)) & 1
        out = (out & ~(1 << b)) | (bit << b)
    return out


def sorted_unique(values) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending: one sort and an
    adjacent-difference mask, where `np.unique` would build a hash table."""
    out = np.sort(np.asarray(values))
    keep = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def sorted_find(sorted_values: np.ndarray, values) -> np.ndarray:
    """Slot of each of `values` in the ascending array `sorted_values`, by
    binary search; -1 where a value is absent."""
    slots = np.searchsorted(sorted_values, values)
    hit = len(sorted_values) and np.take(sorted_values, slots, mode="clip") == values
    return np.where(hit, slots, -1)


class BasisSubset:
    """An ordered set of basis states with binary-search lookup.

    `states` is an ascending int64 array of state indices; `position(q)` maps a
    state index back to its slot.  The cardinality doubles as the effective
    Hilbert-space dimension of the subset.
    """

    def __init__(self, states, length: int):
        arr = sorted_unique(np.asarray(states, dtype=np.int64))
        if len(arr) != len(states):
            raise ValueError("subset states must be unique")
        self.states = arr
        self.length = length

    @classmethod
    def full_space(cls, length: int) -> "BasisSubset":
        return cls(np.arange(1 << length, dtype=np.int64), length)

    @property
    def size(self) -> int:
        return len(self.states)

    def find(self, indices) -> np.ndarray:
        """Slots of the given state indices, -1 where a state is absent."""
        return sorted_find(self.states, np.asarray(indices, dtype=np.int64))

    def __contains__(self, index) -> bool:
        return bool(self.find(int(index)) >= 0)

    def position(self, index) -> int:
        return int(self.positions([index])[0])

    def basis_vector(self, index) -> np.ndarray:
        """The one-hot complex vector over the subset of basis state `index`."""
        vector = np.zeros(self.size, dtype=complex)
        vector[self.position(index)] = 1.0
        return vector

    def positions(self, indices) -> np.ndarray:
        slots = self.find(indices)
        if np.any(slots < 0):
            raise KeyError(int(np.asarray(indices, dtype=np.int64)[slots < 0][0]))
        return slots
