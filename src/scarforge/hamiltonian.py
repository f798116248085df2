"""Sparse chain Hamiltonians H = A + B over a basis subset.

A sums the window Hamiltonians of the second circuit layer, B those of the
first; both act inside a `BasisSubset` (the full space, a Krylov-connected
set, or a symmetry sector).  Matrix elements below 1e-13 are dropped at
assembly: window entries are exact combinations of pi-scale constants, so
anything smaller is floating noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .automaton import FloquetCircuit
from .basis import (
    BasisSubset,
    flip_index,
    mirror_index,
    set_window,
    translate_index,
    window_value,
)
from .logmap import principal_log
from .tolerances import ASSEMBLY_PRUNE, HERMITICITY_TOL, SECTOR_COMMUTE_TOL


class SubsetNotClosedError(ValueError):
    """A window Hamiltonian has a matrix element leaving the subset."""

    def __init__(self, state_index: int, site: int):
        self.state_index = state_index
        self.site = site
        super().__init__(
            f"window at site {site} maps subset state {state_index} outside the subset"
        )


@dataclass(frozen=True)
class ChainHamiltonian:
    """A, B and H = A + B as CSR operators over a shared subset."""

    a: sp.csr_matrix
    b: sp.csr_matrix
    h: sp.csr_matrix
    subset: BasisSubset
    circuit: FloquetCircuit


def _layer_matrix(circuit: FloquetCircuit, subset: BasisSubset, sites, local: np.ndarray) -> sp.csr_matrix:
    states = subset.states
    length = circuit.length
    width = circuit.gate.width
    n = subset.size
    rows, cols, data = [], [], []
    nonzero = [
        [(vp, local[vp, v]) for vp in range(local.shape[0]) if abs(local[vp, v]) > ASSEMBLY_PRUNE]
        for v in range(local.shape[1])
    ]
    for site in sites:
        values = window_value(states, site, width, length)
        order = np.argsort(values, kind="stable")
        bounds = np.searchsorted(values[order], np.arange(local.shape[1] + 1))
        for v in range(local.shape[1]):
            sel = order[bounds[v]:bounds[v + 1]]
            for vp, amp in nonzero[v]:
                pos = subset.find(set_window(states[sel], site, width, length, vp))
                if np.any(pos < 0):
                    raise SubsetNotClosedError(int(states[sel[np.argmax(pos < 0)]]), site)
                rows.append(pos)
                cols.append(sel)
                data.append(np.full(len(sel), amp))
    if not rows:
        return sp.csr_matrix((n, n), dtype=complex)
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    return mat


def build_hamiltonian(circuit: FloquetCircuit, subset: BasisSubset) -> ChainHamiltonian:
    """Assemble sparse A, B, H = A + B over a subset closed under the windows."""
    if subset.length != circuit.length:
        raise ValueError("subset length does not match circuit length")
    local = principal_log(circuit.gate).matrix
    a = _layer_matrix(circuit, subset, circuit.second_layer_sites, local)
    b = _layer_matrix(circuit, subset, circuit.first_layer_sites, local)
    for name, m in (("A", a), ("B", b)):
        dev = abs(m - m.getH()).max()
        if dev > HERMITICITY_TOL:
            raise RuntimeError(f"{name} lost hermiticity during assembly ({dev:.2e})")
    return ChainHamiltonian(a, b, (a + b).tocsr(), subset, circuit)


def krylov_subspace(circuit: FloquetCircuit, seed: int) -> BasisSubset:
    """Breadth-first closure of the seed under nonzero window matrix elements,
    expanded one whole level of states at a time."""
    local = principal_log(circuit.gate).matrix
    width = circuit.gate.width
    length = circuit.length
    hops = np.abs(local) > ASSEMBLY_PRUNE     # hops[vp, v]: window value v reaches vp
    np.fill_diagonal(hops, False)
    seen = frontier = np.array([seed], dtype=np.int64)
    while len(frontier):
        reached = []
        for site in circuit.window_sites:
            values = window_value(frontier, site, width, length)
            reached += [
                set_window(frontier[hops[vp, values]], site, width, length, vp)
                for vp in range(len(hops))
            ]
        frontier = np.setdiff1d(np.unique(np.concatenate(reached)), seen, assume_unique=True)
        seen = np.union1d(seen, frontier)
    return BasisSubset(seen, length)


# ---------------------------------------------------------------------------
# Lattice symmetry sectors
# ---------------------------------------------------------------------------

SECTOR_OPERATORS = ("S2", "USM")


def symmetry_permutation(name: str, length: int):
    """State permutation of a sector operator.

    S2 translates by two sites; USM mirrors about the center bond, translates
    by one, then flips every spin.  Both act on basis states without phases.
    """
    if name == "S2":
        return lambda x: translate_index(x, 2, length)
    if name == "USM":
        return lambda x: flip_index(translate_index(mirror_index(x, length), 1, length), length)
    raise ValueError(f"unknown sector operator {name!r}")


@dataclass(frozen=True)
class SymmetrySector:
    """Joint eigenspace request, e.g. (("S2", 1), ("USM", 1))."""

    operators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for name, val in self.operators:
            if name not in SECTOR_OPERATORS:
                raise ValueError(f"unknown sector operator {name!r}")
            if val not in (1, -1):
                raise ValueError("sector eigenvalues must be +1 or -1")


@dataclass
class SectorBasis:
    """Signed orbit sums forming an orthonormal sector basis."""

    orbits: list[tuple[np.ndarray, np.ndarray]]
    subset: BasisSubset

    @property
    def size(self) -> int:
        return len(self.orbits)


def sector_basis(subset: BasisSubset, sector: SymmetrySector) -> SectorBasis:
    """Group orbits of the subset states with character signs attached.

    Orbits whose sign assignment is inconsistent project to zero and are
    dropped.  For the all +1 sector every orbit survives.
    """
    images = [(_symmetry_slots(subset, name).tolist(), val) for name, val in sector.operators]
    assigned = np.zeros(subset.size, dtype=bool)
    orbits = []
    for start in range(subset.size):
        if assigned[start]:
            continue
        signs = {start: 1}
        queue = deque([start])
        consistent = True
        while queue:
            x = queue.popleft()
            for image, val in images:
                y = image[x]
                sgn = signs[x] * val
                if y in signs:
                    if signs[y] != sgn:
                        consistent = False
                else:
                    signs[y] = sgn
                    queue.append(y)
        slots = np.array(sorted(signs), dtype=np.int64)
        assigned[slots] = True
        if consistent:
            orbits.append((subset.states[slots], np.array([signs[int(x)] for x in slots])))
    return SectorBasis(orbits, subset)


def _symmetry_slots(subset: BasisSubset, name: str) -> np.ndarray:
    """Slot of the image of every subset state under a sector operator."""
    images = symmetry_permutation(name, subset.length)(subset.states)
    slots = subset.find(images)
    if np.any(slots < 0):
        raise ValueError(
            f"subset is not invariant under {name} (state {int(images[slots < 0][0])})"
        )
    return slots


def operator_commutes(mat: sp.spmatrix, subset: BasisSubset, name: str) -> float:
    """Max-norm of [mat, P] for the permutation operator P (as deviation)."""
    p = _symmetry_slots(subset, name)
    conjugated = mat.tocsr()[p][:, p]
    return float(abs(conjugated - mat).max())


def project_sector(
    mat: sp.spmatrix, subset: BasisSubset, sector: SymmetrySector, check: bool = True
) -> tuple[np.ndarray, SectorBasis]:
    """Restrict an operator to the sector spanned by signed orbit sums."""
    if check:
        for name, _ in sector.operators:
            dev = operator_commutes(mat, subset, name)
            if dev > SECTOR_COMMUTE_TOL:
                raise ValueError(f"operator does not commute with {name} (dev {dev:.2e})")
    basis = sector_basis(subset, sector)
    n = basis.size
    sizes = np.array([len(members) for members, _ in basis.orbits], dtype=np.int64)
    # Per slot: its orbit (-1 where the orbit was dropped) and its sign.
    orbit = np.full(subset.size, -1, dtype=np.int64)
    sign = np.zeros(subset.size)
    if n:
        slots = subset.find(np.concatenate([members for members, _ in basis.orbits]))
        orbit[slots] = np.repeat(np.arange(n), sizes)
        sign[slots] = np.concatenate([signs for _, signs in basis.orbits])
    reps = subset.find(np.array([members[0] for members, _ in basis.orbits], dtype=np.int64))
    cols = mat.tocsc()[:, reps]
    b = np.repeat(np.arange(n), np.diff(cols.indptr))
    a = orbit[cols.indices]
    keep = a >= 0
    a, b, rows = a[keep], b[keep], cols.indices[keep]
    out = np.zeros((n, n), dtype=complex)
    np.add.at(out, (a, b), sign[rows] * cols.data[keep] * np.sqrt(sizes[b] / sizes[a]))
    return out, basis


def restrict_dense(mat: sp.spmatrix, subset: BasisSubset, states) -> np.ndarray:
    """Dense block of the operator on an explicit list of subset states."""
    pos = subset.positions(states)
    return mat.tocsr()[pos][:, pos].toarray()

