"""Local permutation-with-phase unitaries on w-qubit windows.

A gate is a bijection of the 2**w window labels plus one unit-modulus phase
per label: acting on label q it produces phase(q) times label sigma(q).
Gates are parsed from cycle notation over 1-based labels; labels absent from
every cycle map to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .tolerances import ORDER_PHASE_TOL, PHASE_ORDER_MAX, UNIT_MODULUS_TOL


class GateDefinitionError(ValueError):
    """Malformed cycle notation or phase map."""


@dataclass(frozen=True)
class PermutationGate:
    """Permutation gate on a w-qubit window.

    perm[v] is the 0-based target of window value v; phases[v] multiplies the
    source value v.  Acting on a window in value v the gate yields
    phases[v] * |perm[v]>.
    """

    width: int
    perm: tuple[int, ...]
    phases: tuple[complex, ...]

    def __post_init__(self):
        dim = 1 << self.width
        if len(self.perm) != dim or sorted(self.perm) != list(range(dim)):
            raise GateDefinitionError("permutation is not a bijection over the window labels")
        if len(self.phases) != dim:
            raise GateDefinitionError(f"phase map must have {dim} entries")
        for ph in self.phases:
            if abs(abs(ph) - 1.0) > UNIT_MODULUS_TOL:
                raise GateDefinitionError(f"phase {ph} is not unit modulus")

    @property
    def dim(self) -> int:
        return 1 << self.width

    def value_cycles(self) -> list[list[int]]:
        """All cycles (including fixed points) over 0-based window values."""
        return [values for values, _, _ in phased_cycles(self.perm, self.phases)]

    def label_cycles(self) -> list[list[int]]:
        """Nontrivial cycles of the permutation, in 1-based label notation."""
        return [[v + 1 for v in values] for values in self.value_cycles() if len(values) > 1]


def walk_cycle(step, start: int):
    """Follow step(v) = (image, phase) from `start` until it returns; `step`
    must permute a finite set, so that it does.

    Returns the cycle's values in walk order, the walk phases (walk[k] is the
    product of the phases picked up on the way from `start` to values[k]) and
    the total phase of one full turn.
    """
    values, walk = [], []
    v, acc = start, 1.0 + 0.0j
    while True:
        values.append(v)
        walk.append(acc)
        v, phase = step(v)
        acc = acc * phase
        if v == start:
            return values, walk, acc


def phased_cycles(perm, phases) -> list[tuple[list[int], list[complex], complex]]:
    """Every cycle of a permutation table, fixed points included, smallest
    start first, as `walk_cycle` reports it; phases[v] multiplies the step
    out of value v."""
    step = list(zip(perm, phases)).__getitem__
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cycles.append(walk_cycle(step, start))
            seen.update(cycles[-1][0])
    return cycles


def phase_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b of complex arrays, rounded as scalar complex
    arithmetic rounds it.  numpy's vectorised `a * b` picks a SIMD kernel by
    CPU, and the AVX-512 one fuses a multiply with an add: on such a CPU it
    moves a product of phases that are not exact binary fractions by an ulp
    for about half of the cycle-eigenvector arrays of random phased gates.
    Forming the four real products apart pins `logmap.cycle_eigenvectors`,
    and so the bits of `principal_log`, to the scalar formula on any CPU."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def identity_gate(width: int) -> PermutationGate:
    dim = 1 << width
    return PermutationGate(width, tuple(range(dim)), (1.0 + 0.0j,) * dim)


def parse_gate(cycles, phases, width: int = 4) -> PermutationGate:
    """Build a gate from cycle notation (1-based labels) and a phase map."""
    dim = 1 << width
    perm = list(range(dim))
    seen = set()
    for cyc in cycles:
        for label in cyc:
            if not 1 <= label <= dim:
                raise GateDefinitionError(f"label {label} outside [1, {dim}]")
            if label in seen:
                raise GateDefinitionError(f"label {label} appears in more than one cycle")
            seen.add(label)
        for i, label in enumerate(cyc):
            target = cyc[(i + 1) % len(cyc)]
            perm[label - 1] = target - 1
    phase_tuple = tuple(complex(p) for p in phases)
    return PermutationGate(width, tuple(perm), phase_tuple)


def gate_order(gate: PermutationGate) -> int | None:
    """Smallest n with gate**n == identity, found cycle by cycle.

    A cycle of length l returns every one of its labels to itself after l
    steps, multiplied by the product of the phases along the cycle; it is
    the identity after l * k steps, k the order of that product.  The gate
    order is the lcm over all cycles, fixed points included.  Phase products
    that are not roots of unity of order at most PHASE_ORDER_MAX (e.g.
    irrational phases) prevent a finite order, reported as None.
    """
    powers = np.arange(1, PHASE_ORDER_MAX + 1)
    out = 1
    for values, _, product in phased_cycles(gate.perm, gate.phases):
        hits = np.flatnonzero(np.abs(product**powers - 1.0) < ORDER_PHASE_TOL)
        if len(hits) == 0:
            return None
        out = lcm(out, len(values) * int(powers[hits[0]]))
    return out


def gate_matrix(gate: PermutationGate) -> np.ndarray:
    """Dense 2**w x 2**w unitary: column v holds phases[v] at row perm[v]."""
    mat = np.zeros((gate.dim, gate.dim), dtype=complex)
    for v in range(gate.dim):
        mat[gate.perm[v], v] = gate.phases[v]
    return mat


def gate_to_json(gate: PermutationGate) -> dict:
    return {
        "width": gate.width,
        "cycles": gate.label_cycles(),
        "phases": [[p.real, p.imag] for p in gate.phases],
    }


def gate_from_json(data: dict) -> PermutationGate:
    phases = [complex(re, im) for re, im in data["phases"]]
    return parse_gate(data["cycles"], phases, width=data["width"])

