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
    window_bit_shifts,
    window_value,
)
from .logmap import principal_log

ASSEMBLY_PRUNE = 1e-13
COMMUTE_TOL = 1e-9
HERMITICITY_TOL = 1e-10


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
    lookup = subset._pos
    nonzero = [
        [(vp, local[vp, v]) for vp in range(local.shape[0]) if abs(local[vp, v]) > ASSEMBLY_PRUNE]
        for v in range(local.shape[1])
    ]
    for site in sites:
        values = window_value(states, site, width, length)
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        bounds = np.searchsorted(sorted_vals, np.arange(local.shape[1] + 1))
        for v in range(local.shape[1]):
            sel = order[bounds[v]:bounds[v + 1]]
            if len(sel) == 0 or not nonzero[v]:
                continue
            src = states[sel]
            for vp, amp in nonzero[v]:
                tgt = set_window(src, site, width, length, vp)
                for s, t in zip(src, tgt):
                    pos = lookup.get(int(t))
                    if pos is None:
                        raise SubsetNotClosedError(int(s), site)
                    rows.append(pos)
                    cols.append(lookup[int(s)])
                    data.append(amp)
    mat = sp.coo_matrix(
        (np.array(data, dtype=complex), (np.array(rows), np.array(cols))), shape=(n, n)
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
    """Breadth-first closure of the seed under nonzero window matrix elements."""
    local = principal_log(circuit.gate).matrix
    width = circuit.gate.width
    length = circuit.length
    moves = [
        (v, vp)
        for v in range(local.shape[1])
        for vp in range(local.shape[0])
        if abs(local[vp, v]) > ASSEMBLY_PRUNE and vp != v
    ]
    by_value: dict[int, list[int]] = {}
    for v, vp in moves:
        by_value.setdefault(v, []).append(vp)
    sites = circuit.window_sites
    shifts = {site: window_bit_shifts(site, width, length) for site in sites}
    seen = {int(seed)}
    queue = deque([int(seed)])
    while queue:
        x = queue.popleft()
        for site in sites:
            bits = shifts[site]
            v = 0
            for t, b in enumerate(bits):
                v |= ((x >> b) & 1) << (width - 1 - t)
            for vp in by_value.get(v, ()):
                y = x
                for t, b in enumerate(bits):
                    bit = (vp >> (width - 1 - t)) & 1
                    y = (y & ~(1 << b)) | (bit << b)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return BasisSubset(np.fromiter(seen, dtype=np.int64, count=len(seen)), length)


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
    length = subset.length
    gens = [
        (symmetry_permutation(name, length), val) for name, val in sector.operators
    ]
    assigned: dict[int, int] = {}
    orbits = []
    for start in subset.states:
        start = int(start)
        if start in assigned:
            continue
        signs = {start: 1}
        queue = deque([start])
        consistent = True
        while queue:
            x = queue.popleft()
            for perm, val in gens:
                y = int(perm(x))
                if y not in subset:
                    raise ValueError(
                        f"subset is not invariant under the sector group (state {y})"
                    )
                sgn = signs[x] * val
                if y in signs:
                    if signs[y] != sgn:
                        consistent = False
                else:
                    signs[y] = sgn
                    queue.append(y)
        for x in signs:
            assigned[x] = 1
        if consistent:
            members = np.array(sorted(signs), dtype=np.int64)
            orbits.append((members, np.array([signs[int(m)] for m in members])))
    return SectorBasis(orbits, subset)


def operator_commutes(mat: sp.spmatrix, subset: BasisSubset, name: str) -> float:
    """Max-norm of [mat, P] for the permutation operator P (as deviation)."""
    perm = symmetry_permutation(name, subset.length)
    targets = [perm(int(x)) for x in subset.states]
    if any(t not in subset for t in targets):
        raise ValueError(f"subset is not invariant under {name}")
    p = subset.positions(targets)
    conjugated = mat.tocsr()[p][:, p]
    return float(abs(conjugated - mat).max())


def project_sector(
    mat: sp.spmatrix, subset: BasisSubset, sector: SymmetrySector, check: bool = True
) -> tuple[np.ndarray, SectorBasis]:
    """Restrict an operator to the sector spanned by signed orbit sums."""
    if check:
        for name, _ in sector.operators:
            dev = operator_commutes(mat, subset, name)
            if dev > COMMUTE_TOL:
                raise ValueError(f"operator does not commute with {name} (dev {dev:.2e})")
    basis = sector_basis(subset, sector)
    n = basis.size
    csc = mat.tocsc()
    rep_of = {}
    weight = {}
    for a, (members, signs) in enumerate(basis.orbits):
        for m, s in zip(members, signs):
            rep_of[int(m)] = (a, int(s))
        weight[a] = len(members)
    out = np.zeros((n, n), dtype=complex)
    for b, (members, _) in enumerate(basis.orbits):
        rep = int(members[0])
        col = subset.position(rep)
        sl = slice(csc.indptr[col], csc.indptr[col + 1])
        for row, amp in zip(csc.indices[sl], csc.data[sl]):
            x = int(subset.states[row])
            hit = rep_of.get(x)
            if hit is None:
                continue
            a, sgn = hit
            out[a, b] += sgn * amp * np.sqrt(weight[b] / weight[a])
    return out, basis


def restrict_dense(mat: sp.spmatrix, subset: BasisSubset, states) -> np.ndarray:
    """Dense block of the operator on an explicit list of subset states."""
    pos = subset.positions(states)
    return mat.tocsr()[pos][:, pos].toarray()


def subset_hash(subset: BasisSubset) -> str:
    """Stable fingerprint of the ordered subset states."""
    import hashlib

    blob = ",".join(str(int(s)) for s in subset.states)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def dump_operator(mat: sp.spmatrix, subset: BasisSubset, model: str) -> dict:
    """Triplet-format dump with a reproducibility header."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    return {
        "model": model,
        "L": subset.length,
        "subset_hash": subset_hash(subset),
        "entries": [
            [int(coo.row[i]), int(coo.col[i]), float(coo.data[i].real), float(coo.data[i].imag)]
            for i in order
        ],
    }
