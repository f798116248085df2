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

from .basis import BasisState, BasisSubset, PhasedState, StateVector
from .gate import PermutationGate, apply_gate_index, gate_matrix
from .logmap import wrap_angle
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


def _embed_pair(gate: PermutationGate, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense embeddings of the gate at sites 1 and 1+offset on a test chain."""
    w = gate.width
    n = w + offset
    u = gate_matrix(gate)
    eye = np.eye(1 << offset)
    first = np.kron(u, eye)
    second = np.kron(eye, u)
    assert first.shape == (1 << n, 1 << n) and second.shape == first.shape
    return first, second


def _same_layer_gates_commute(gate: PermutationGate) -> bool:
    first, second = _embed_pair(gate, 2)
    return bool(np.max(np.abs(first @ second - second @ first)) < WINDOW_COMMUTE_TOL)


def apply_floquet_index(circuit: FloquetCircuit, index: int) -> tuple[int, complex]:
    """One Floquet period on a raw state index: first layer, then second."""
    if not circuit.is_brickwork:
        raise ValueError("automaton application needs complete layers (L divisible by 4)")
    phase = 1.0 + 0.0j
    for site in circuit.first_layer_sites:
        index, ph = apply_gate_index(circuit.gate, index, site, circuit.length)
        phase *= ph
    for site in circuit.second_layer_sites:
        index, ph = apply_gate_index(circuit.gate, index, site, circuit.length)
        phase *= ph
    return index, phase


def apply_floquet(circuit: FloquetCircuit, state: BasisState) -> PhasedState:
    """Apply U_F once, accumulating the product of window phases."""
    if state.length != circuit.length:
        raise ValueError("state length does not match circuit length")
    index, phase = apply_floquet_index(circuit, state.index)
    return PhasedState(BasisState(index, circuit.length), phase)


class CycleOverflowError(RuntimeError):
    """The seed did not recur within the allowed number of periods."""


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

    def basis_states(self) -> list[BasisState]:
        return [BasisState(s, self.length_chain) for s in self.states]

    def eigenphases(self) -> np.ndarray:
        l = self.cycle_length
        return np.array([(self.phi + 2.0 * np.pi * m) / l for m in range(l)])

    def to_json(self) -> dict:
        from .basis import bitstring

        return {
            "seed": bitstring(self.states[0], self.length_chain),
            "cycle": [bitstring(s, self.length_chain) for s in self.states],
            "length": self.cycle_length,
            "phi": self.phi,
            "eigenphases": list(self.eigenphases()),
        }


def orbit_of(circuit: FloquetCircuit, seed: BasisState | int, l_max: int | None = None) -> OrbitCycle:
    """Iterate U_F from the seed until it recurs, recording phases exactly."""
    seed_index = seed.index if isinstance(seed, BasisState) else int(seed)
    if l_max is None:
        l_max = 1 << circuit.length
    states = [seed_index]
    walk = [1.0 + 0.0j]
    index, phase = seed_index, 1.0 + 0.0j
    for _ in range(l_max):
        index, ph = apply_floquet_index(circuit, index)
        phase *= ph
        if index == seed_index:
            return OrbitCycle(tuple(states), tuple(walk), float(wrap_angle(np.angle(phase))), circuit.length)
        states.append(index)
        walk.append(phase)
    raise CycleOverflowError(f"no recurrence within {l_max} applications")


@dataclass(frozen=True)
class FloquetEigenstate:
    """Eigenvector of U_F built on one cycle: U_F |psi> = e^{i beta} |psi>."""

    m: int
    beta: float
    vector: StateVector


def floquet_eigenstates(orbit: OrbitCycle, circuit: FloquetCircuit) -> list[FloquetEigenstate]:
    """The cycle_length eigenstates supported on one cycle."""
    l = orbit.cycle_length
    subset = BasisSubset(np.array(orbit.states, dtype=np.int64), circuit.length)
    out = []
    for m in range(l):
        beta = (orbit.phi + 2.0 * np.pi * m) / l
        amps = np.zeros(l, dtype=complex)
        for k, (state, walk) in enumerate(zip(orbit.states, orbit.walk_phases)):
            amps[subset.position(state)] = np.exp(-1j * k * beta) * walk / np.sqrt(l)
        out.append(FloquetEigenstate(m, float(beta), StateVector(subset, amps, normalized=True)))
    return out


def all_orbits(circuit: FloquetCircuit) -> list[OrbitCycle]:
    """Decompose the full basis into disjoint cycles (small L only)."""
    seen = np.zeros(1 << circuit.length, dtype=bool)
    orbits = []
    for seed in range(1 << circuit.length):
        if seen[seed]:
            continue
        orb = orbit_of(circuit, seed)
        for s in orb.states:
            seen[s] = True
        orbits.append(orb)
    return orbits


def floquet_matrix(circuit: FloquetCircuit) -> np.ndarray:
    """Dense 2**L x 2**L matrix of U_F (testing aid, small L only)."""
    dim = 1 << circuit.length
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        row, phase = apply_floquet_index(circuit, col)
        mat[row, col] = phase
    return mat
