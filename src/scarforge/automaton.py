"""Two-layer brickwork Floquet circuits and their exact eigenstates.

The circuit applies its first layer (the B windows) and then its second
layer (the A windows): U_F = exp(-iA) exp(-iB).  Two geometries exist:

* ``stride4``: width-4 windows, second layer at sites 1, 5, 9, ..., first
  layer at sites 3, 7, 11, ...; requires L divisible by 4 and the windows of
  a layer are disjoint.
* ``stride2``: windows at every site, second layer on odd sites, first layer
  on even sites; requires all same-layer windows to commute, which is checked
  at construction.

Every basis state lies on a finite cycle of U_F; cycles carry an accumulated
phase angle and generate the complete Floquet eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import bitstring, set_window, window_value
from .gate import PermutationGate, walk_cycle
from .logmap import cycle_eigenphases, cycle_eigenvectors, wrap_angle
from .tolerances import WINDOW_COMMUTE_TOL

GEOMETRIES = ("stride4", "stride2")


@dataclass(frozen=True)
class FloquetCircuit:
    gate: PermutationGate
    length: int
    geometry: str = "stride4"

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.length < self.gate.width:
            raise ValueError(f"chain length L={self.length} is shorter than the gate width {self.gate.width}")
        if self.length % 2 != 0:
            raise ValueError("circuits need even L")
        if self.geometry == "stride2" and not _same_layer_gates_commute(self.gate):
            raise ValueError("stride2 geometry requires commuting same-layer windows")

    @property
    def is_brickwork(self) -> bool:
        """Whether the two layers tile the ring with disjoint or commuting
        windows, so that U_F = exp(-iA) exp(-iB) is a product of gates.  A
        stride4 ring of length 2 mod 4 still has a well-defined H = A + B but
        no automaton."""
        return self.geometry == "stride2" or self.length % 4 == 0

    @property
    def site_stride(self) -> int:
        """Spacing between consecutive window positions."""
        return 2 if self.geometry == "stride4" else 1

    @cached_property
    def first_layer_sites(self) -> tuple[int, ...]:
        if self.geometry == "stride4":
            return tuple(range(3, self.length + 1, 4))
        return tuple(range(2, self.length + 1, 2))

    @cached_property
    def second_layer_sites(self) -> tuple[int, ...]:
        if self.geometry == "stride4":
            return tuple(range(1, self.length + 1, 4))
        return tuple(range(1, self.length + 1, 2))

    @cached_property
    def window_sites(self) -> tuple[int, ...]:
        return tuple(sorted(self.first_layer_sites + self.second_layer_sites))


def _same_layer_gates_commute(gate: PermutationGate) -> bool:
    """Whether the gate commutes with its copy two sites on, read off the
    permutation and phase tables: on every value of the w + 2 sites, the two
    orders of the windows reach the same value, with products of phases
    within WINDOW_COMMUTE_TOL.  That is max |[U_1, U_3]| < WINDOW_COMMUTE_TOL
    for the matrices kron(U, 1_4) and kron(1_4, U), without forming them."""
    perm, phases = np.array(gate.perm), np.array(gate.phases)
    low = gate.dim - 1
    values = np.arange(gate.dim << 2)

    def leading(v):  # the gate on the w leading sites
        return (perm[v >> 2] << 2) | (v & 3), phases[v >> 2]

    def trailing(v):  # its copy on the w trailing sites
        return (v & ~low) | perm[v & low], phases[v & low]

    def apply(first, then):
        v, phase = first(values)
        v, other = then(v)
        return v, phase * other

    one, phase_one = apply(trailing, leading)
    two, phase_two = apply(leading, trailing)
    return bool(np.array_equal(one, two) and np.max(np.abs(phase_one - phase_two)) < WINDOW_COMMUTE_TOL)


def floquet_map(circuit: FloquetCircuit, index: int) -> tuple[int, complex]:
    """One Floquet period, first layer then second, on a state index: the
    image and the product of window phases, multiplied in site order."""
    if not circuit.is_brickwork:
        raise ValueError("automaton application needs complete layers (L divisible by 4)")
    gate, length = circuit.gate, circuit.length
    phase = 1.0 + 0.0j
    for site in circuit.first_layer_sites + circuit.second_layer_sites:
        v = window_value(index, site, gate.width, length)
        index = set_window(index, site, gate.width, length, gate.perm[v])
        phase = phase * gate.phases[v]
    return index, phase


@dataclass(frozen=True)
class OrbitCycle:
    """A cycle of basis states under U_F with its accumulated phase angle.

    states[k] is the k-fold image of the seed; walk_phases[k] is the product
    of window phases picked up reaching it, and phi is the principal angle of
    the full-cycle phase.
    """

    states: tuple[int, ...]
    walk_phases: tuple[complex, ...]
    phi: float
    length_chain: int

    @property
    def cycle_length(self) -> int:
        return len(self.states)

    def eigenphases(self) -> np.ndarray:
        return cycle_eigenphases(self.phi, self.cycle_length)

    def eigenstates(self) -> tuple[np.ndarray, np.ndarray]:
        """The cycle_length eigenstates of U_F supported on the cycle: the
        eigenphases beta_m and an (l, l) array whose row m, over `states`
        in walk order, satisfies U_F |psi_m> = e^{i beta_m} |psi_m>."""
        return cycle_eigenvectors(self.walk_phases, self.phi)

    def to_json(self) -> dict:
        return {
            "seed": bitstring(self.states[0], self.length_chain),
            "cycle": [bitstring(s, self.length_chain) for s in self.states],
            "length": self.cycle_length,
            "phi": self.phi,
            "eigenphases": list(self.eigenphases()),
        }


def _orbit_cycle(length: int, states, walk, total) -> OrbitCycle:
    return OrbitCycle(tuple(states), tuple(walk), float(wrap_angle(np.angle(total))), length)


def orbit_of(circuit: FloquetCircuit, seed: int) -> OrbitCycle:
    """Iterate U_F from the seed index until it recurs, recording phases
    exactly.  The Floquet map permutes the 2^L states, so every seed recurs."""
    return _orbit_cycle(circuit.length, *walk_cycle(lambda index: floquet_map(circuit, index), int(seed)))

