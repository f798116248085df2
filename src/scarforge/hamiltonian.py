"""Sparse chain Hamiltonians H = A + B over a basis subset.

A sums the window Hamiltonians of the second circuit layer, B those of the
first; both act inside a `BasisSubset` (the full space, a Krylov-connected
set, or a symmetry sector).  `window_sum` builds every such sum of one local
matrix over windows, and drops entries at or below 1e-13: window entries are
exact combinations of pi-scale constants, so anything smaller is noise.

The Krylov closure of a seed is its connected component in the graph whose
edges are the window hops v -> vp with |h[vp, v]| above that cut.  The hop
table is made symmetric, so the graph is undirected and a breadth-first
level k has all its neighbours in levels k - 1, k and k + 1: each new level
is found against the two levels before it alone, with no growing set of
every state seen.

Symmetry sectors use the group of S2 (translation by two sites, of order
M = L / gcd(L, 2)) and USM (mirror, one-site translation, spin flip),
elements S2^j USM^e with character chi(S2)^j chi(USM)^e, each +1 or -1.
`sector_group` is the one place that maps these generators over a subset,
builds the group table and measures how far an operator is from commuting
with them; the propagator, the series (`layer_orbits`, with S2 the
translation by the window period) and `project_sector` each read it and
apply their own tolerance.  An orbit's representative is its smallest
state, a state's sign is the character of the elements taking it there,
and an orbit survives only when every element fixing its representative
has character 1.  As S2^M = 1, an odd S2 character at L = 2 (mod 4)
empties the sector.  The S2 momentum sectors, S2 = omega^k with
omega = e^{2 pi i / M} (after Sandvik, arXiv:1101.3281), are derived from
the S2 = +1 basis by `momentum_basis`: momentum k keeps the orbits whose
period p has k p = 0 (mod M).

A complex H can still have a real form.  When Theta = K F commutes with H,
for K complex conjugation and F the global spin flip, every sector with real
characters has a basis of Theta-invariant vectors, in which H is real
(Haake, Quantum Signatures of Chaos, ch. 2); a float64 H, the real form
`build_hamiltonian` chose, has Theta = K alone.  Theta takes orbit sum r to
phi_r times orbit sum r' = F(r), phi_r = +1 or -1, and the real basis is
(e_r + phi_r e_r') / sqrt(2) and i (e_r - phi_r e_r') / sqrt(2) for a pair
r < r', and e_r or i e_r for an orbit F fixes with phi_r = +1 or -1.
`sector_block` rotates such a sector sparsely and makes only the real part
dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .automaton import FloquetCircuit
from .basis import (
    BasisSubset,
    flip_index,
    mirror_index,
    set_window,
    sorted_find,
    sorted_unique,
    translate_index,
    window_value,
)
from .logmap import principal_log
from .tolerances import ANTIUNITARY_TOL, ASSEMBLY_PRUNE, HERMITICITY_TOL, SECTOR_COMMUTE_TOL


class SubsetNotClosedError(ValueError):
    """A window Hamiltonian has a matrix element leaving the subset."""

    def __init__(self, state_index: int, site: int):
        self.state_index = state_index
        self.site = site
        super().__init__(
            f"window at site {site} maps subset state {state_index} outside the subset"
        )


class LayerMatrix(sp.csr_matrix):
    """A layer Hamiltonian in CSR form, tagged with the subset it acts on and
    the period of its windows, the translation it commutes with when the
    subset allows.  Both tags are None at class level: scipy builds every
    matrix it derives from a layer (scaled, sliced, summed) afresh, so only
    the layers `build_hamiltonian` returns carry them."""

    subset: BasisSubset | None = None
    period: int | None = None


@dataclass(frozen=True)
class ChainHamiltonian:
    """A, B and H = A + B as CSR operators over a shared subset, float64
    when `build_hamiltonian` found them real.  A and B are tagged
    `LayerMatrix`es."""

    a: LayerMatrix
    b: LayerMatrix
    h: sp.csr_matrix


def _window_moves(states: np.ndarray, site: int, length: int, keep: np.ndarray):
    """Every window entry keep[vp, v] at `site` applied to an ascending state
    array: the position u, window values v -> vp and target state of each, in
    (v, vp, u) order, so the targets of one (v, vp) run ascend."""
    width = len(keep).bit_length() - 1
    values = window_value(states, site, width, length)
    # a stable sort of values cast to the smallest type that holds them is a radix sort
    order = np.argsort(values.astype(np.min_scalar_type(len(keep) - 1)), kind="stable")
    bounds = np.searchsorted(values[order], np.arange(len(keep) + 1))
    v, vp = np.nonzero(keep.T)
    counts = bounds[v + 1] - bounds[v]
    # pair (v, vp) takes the run order[bounds[v]:bounds[v + 1]] of slots holding v
    u = order[np.arange(counts.sum()) + np.repeat(bounds[v] + counts - np.cumsum(counts), counts)]
    v, vp = np.repeat(v, counts), np.repeat(vp, counts)
    spread = set_window(0, site, width, length, np.arange(len(keep)))    # each value in an empty window
    return u, v, vp, (states ^ spread[values])[u] | spread[vp]


def window_sum(subset: BasisSubset, sites, local: np.ndarray) -> sp.csr_matrix:
    """Sum over `sites` of `local` on the window starting at each site, as a
    CSR operator on a subset closed under those windows.  Entries of `local`
    at or below ASSEMBLY_PRUNE are dropped; the first subset state with an
    image outside the subset raises SubsetNotClosedError."""
    local = np.asarray(local)
    keep = np.abs(local) > ASSEMBLY_PRUNE
    rows, cols, data = [], [], []
    for site in sites:
        u, v, vp, targets = _window_moves(subset.states, site, subset.length, keep)
        pos = subset.find(targets)
        if np.any(pos < 0):
            raise SubsetNotClosedError(int(subset.states[u[np.argmax(pos < 0)]]), site)
        rows.append(pos)
        cols.append(u)
        data.append(local[vp, v])
    n = subset.size
    if not rows:
        return sp.csr_matrix((n, n), dtype=local.dtype)
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


def build_hamiltonian(circuit: FloquetCircuit, subset: BasisSubset) -> ChainHamiltonian:
    """Assemble sparse A, B, H = A + B over a subset closed under the windows.

    When every assembled imaginary part of A and B is at most ASSEMBLY_PRUNE
    (pxp, pxp-nophase and qmbs-c, whose logs carry about 2e-16 of imaginary
    noise), A, B and H are their float64 real parts: this is where the real
    form is decided, and the propagator, the sector solves and the series
    follow the dtype they are handed.

    Each layer is tagged with the subset and with its window spacing (4 for
    stride4, 2 for stride2) when that spacing divides L, so that its windows
    are permuted among themselves by the translation.

    Hermiticity is checked once, on the window log, before any window sum:
    an entry of a layer sums at most one term of each of its windows (a
    diagonal entry one of every window), so the layer deviates from its
    adjoint by at most the window count times the log's max |h - h^dagger|,
    and that bound must be within HERMITICITY_TOL."""
    if subset.length != circuit.length:
        raise ValueError("subset length does not match circuit length")
    local = principal_log(circuit.gate).matrix
    windows = max(len(circuit.second_layer_sites), len(circuit.first_layer_sites))
    dev = windows * float(np.max(np.abs(local - local.conj().T)))
    if dev > HERMITICITY_TOL:
        raise RuntimeError(f"the layers would lose hermiticity during assembly ({dev:.2e})")
    layers = [window_sum(subset, sites, local) for sites in (circuit.second_layer_sites, circuit.first_layer_sites)]
    real = max(np.max(np.abs(m.data.imag), initial=0.0) for m in layers) <= ASSEMBLY_PRUNE
    period = 2 * circuit.site_stride
    a, b = (LayerMatrix((m.data.real.copy() if real else m.data, m.indices, m.indptr), shape=m.shape)
            for m in layers)
    if circuit.length % period == 0:
        for m in (a, b):
            m.subset, m.period = subset, period
    return ChainHamiltonian(a, b, (a + b).tocsr())


def krylov_subspace(circuit: FloquetCircuit, seed: int) -> BasisSubset:
    """Breadth-first closure of the seed under nonzero window matrix elements,
    expanded one whole level of states at a time.

    `hops | hops.T` changes nothing for a Hermitian log and makes the state
    graph undirected, so two levels are enough: the targets of level k,
    deduplicated by one sort, less those found by binary search in levels k
    and k - 1, are level k + 1.  The levels are joined once, at the end.
    """
    hops = np.abs(principal_log(circuit.gate).matrix) > ASSEMBLY_PRUNE
    hops |= hops.T
    np.fill_diagonal(hops, False)    # hops[vp, v]: window value v reaches vp
    length = circuit.length
    levels = [np.empty(0, dtype=np.int64), np.array([seed], dtype=np.int64)]
    while len(levels[-1]):
        moves = [_window_moves(levels[-1], site, length, hops)[3] for site in circuit.window_sites]
        reached = sorted_unique(np.concatenate(moves))
        for level in levels[-2:]:
            reached = reached[sorted_find(level, reached) < 0]
        levels.append(reached)
    return BasisSubset(np.concatenate(levels), length)


# ---------------------------------------------------------------------------
# Lattice symmetry sectors
# ---------------------------------------------------------------------------

SECTOR_OPERATORS = ("S2", "USM")


@dataclass(frozen=True)
class SymmetrySector:
    """Joint eigenspace request, e.g. (("S2", 1), ("USM", 1)).  No operator
    at all is the trivial group: every state its own orbit."""

    operators: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.operators]
        for name, val in self.operators:
            if names.count(name) > 1:  # checked first: a dict of characters would keep the last
                raise ValueError(f"sector operator {name} given twice")
            if name not in SECTOR_OPERATORS:
                raise ValueError(f"unknown sector operator {name!r}")
            if val not in (1, -1):
                raise ValueError("sector eigenvalues must be +1 or -1")


@dataclass(frozen=True)
class SectorBasis:
    """Character-weighted orbit sums forming an orthonormal sector basis, per subset slot.

    Column k is the sum of sign[x] |x> / sqrt(sizes[k]) over the slots x with
    orbit[x] == k; reps[k] is the slot of its smallest state, and
    S2^shift[x] USM^e maps slot x to its representative.  A block that
    `sector_block` solved in the real basis of an antiunitary symmetry
    carries that basis as `rotation`, the sparse unitary W whose columns are
    the real basis vectors in orbit-sum coordinates: a block eigenvector u
    has orbit-sum amplitudes W u.  `rotation` is None for a block written in
    the orbit sums themselves.
    """

    orbit: np.ndarray   # column of each slot, -1 where its orbit is dropped
    sign: np.ndarray    # character per slot: +1 or -1, complex for a momentum other than 0 and M/2
    shift: np.ndarray   # power of S2 taking each slot to its representative
    reps: np.ndarray    # representative slot of each column
    sizes: np.ndarray   # orbit size of each column
    rotation: sp.csr_matrix | None = None

    @property
    def size(self) -> int:
        return len(self.reps)


def _conjugation_deviation(mat: sp.spmatrix, slots: np.ndarray) -> float:
    return float(abs(mat.tocsr()[slots][:, slots] - mat).max())


def find_antiunitary(mat, subset: BasisSubset) -> tuple[str | None, np.ndarray | None, float]:
    """The antiunitary Theta = K P that commutes with `mat`: P's name, its
    slot map and the deviation |P mat P - mat*|.

    A float64 `mat` is the real form `build_hamiltonian` chose, so P is the
    identity, ("identity", every slot, 0.0).  A complex `mat` is checked
    against the spin flip F alone: ("F", its slots, dev) when dev <=
    ANTIUNITARY_TOL, else (None, None, dev), with dev = inf when the subset
    is not F-invariant.  Both P are involutions that commute with S2 and
    USM, so Theta^2 = 1, Theta keeps every sector with real characters and
    maps momentum k to -k.

    F complements every bit, x -> 2^L - 1 - x, so on an F-invariant subset
    it reverses the ascending slot order, and F mat F is `mat` with its CSR
    arrays reversed: rows and the columns within each row both run
    backwards, and stay sorted.
    """
    if not np.iscomplexobj(mat):
        return "identity", np.arange(subset.size), 0.0
    if not np.array_equal(subset.states[::-1], flip_index(subset.states, subset.length)):
        return None, None, math.inf
    h = sp.csr_matrix(mat)
    flipped = sp.csr_matrix((h.data[::-1], subset.size - 1 - h.indices[::-1], h.nnz - h.indptr[::-1]), shape=h.shape)
    dev = float(abs(flipped - h.conj()).max())
    return ("F", np.arange(subset.size)[::-1], dev) if dev <= ANTIUNITARY_TOL else (None, None, dev)


def sector_group(subset: BasisSubset, sector: SymmetrySector = SymmetrySector((("S2", 1),)), mats=(),
                 period: int = 2) -> tuple[SectorBasis, np.ndarray, list[float]]:
    """The sector basis, the slot images under each power S2^j, j = 0..M,
    and for each operator in `mats` its largest deviation |P m P - m| over
    the sector's generators P.

    S2 translates by `period` sites, two for a sector and the window period
    for a layer group, and has order M = L / gcd(L, period); USM mirrors
    about the center bond, translates by one and flips every spin.  Both act
    on basis states without phases.  A subset that a generator does not keep
    raises ValueError.  The caller decides what deviation it accepts.

    Row g of the group table holds the slot images under S2^j USM^e, with
    j = 0..M so that S2^M = 1 carries its character; a slot's representative
    is the minimum of its column.  Characters are e^{2 pi i n / 2M}, kept as
    the integer n: S2 = -1 and USM = -1 are n = M.  Integers make "every
    element fixing the representative has character 1" exact, and an S2 sign
    of -1 at odd M then empties the sector.
    """
    states, length = subset.states, subset.length
    slots = {}
    for name, _ in sector.operators:
        if name == "S2":
            images = translate_index(states, period, length)
        else:
            images = flip_index(translate_index(mirror_index(states, length), 1, length), length)
        found = subset.find(images)
        if np.any(found < 0):
            raise ValueError(f"subset is not invariant under {name} (state {int(images[found < 0][0])})")
        slots[name] = found
    devs = [max((_conjugation_deviation(m, p) for p in slots.values()), default=0.0) for m in mats]
    order = length // math.gcd(length, period)
    turns = {name: 0 if val == 1 else order for name, val in sector.operators}
    table, chars = [np.arange(subset.size)], [0]
    for _ in range(order if "S2" in turns else 0):
        table.append(slots["S2"][table[-1]])
        chars.append(chars[-1] + turns["S2"])
    rows = len(table)
    table, chars = np.array(table), np.array(chars)
    if "USM" in turns:
        table = np.concatenate([table, table[:, slots["USM"]]])
        chars = np.concatenate([chars, chars + turns["USM"]])
    chars %= 2 * order
    to_rep, rep = np.argmin(table, axis=0), np.min(table, axis=0)
    reps = np.flatnonzero(rep == table[0])
    # an orbit survives when every element fixing its representative has character 1
    reps = reps[~np.any((table[:, reps] == reps) & (chars[:, None] != 0), axis=0)]
    column = np.full(subset.size, -1)
    column[reps] = np.arange(len(reps))
    orbit = column[rep]
    sizes = np.bincount(orbit[orbit >= 0], minlength=len(reps))
    sign = np.where(chars[to_rep] == 0, 1, -1)
    return SectorBasis(orbit, sign, to_rep % rows, reps, sizes), table[:rows], devs


def trivial_basis(dim: int) -> SectorBasis:
    """The trivial group's basis: every slot its own orbit, of size 1 and sign 1."""
    states, ones = np.arange(dim), np.ones(dim, dtype=int)
    return SectorBasis(states, ones, np.zeros(dim, dtype=int), states, ones)


def momentum_kept(sizes: np.ndarray, order: int, k) -> np.ndarray:
    """Whether momentum k of S2, of order M, keeps each orbit of period
    `sizes`: k p = 0 (mod M).  An array of momenta gives one column each."""
    return np.multiply.outer(sizes, k) % order == 0


def momentum_basis(group: SectorBasis, order: int, k: int) -> SectorBasis:
    """Momentum k's sector basis, S2 = omega^k, from the S2 = +1 basis `group`
    of S2 of order M: the orbits `momentum_kept` keeps, in representative
    order, and slot signs e^{2 pi i n / 2M} for n = 2 k shift mod 2M, int +1
    or -1 when every n is a multiple of M (k = 0 and M/2), else complex."""
    kept = momentum_kept(group.sizes, order, k)
    column = np.where(kept, np.cumsum(kept) - 1, -1)
    chars = 2 * k * group.shift % (2 * order)
    sign = np.where(chars == 0, 1, -1) if np.all(chars % order == 0) else np.exp(1j * np.pi * chars / order)
    return SectorBasis(column[group.orbit], sign, group.shift, group.reps[kept], group.sizes[kept])


def layer_orbits(a, b) -> tuple[SectorBasis, np.ndarray]:
    """The orbits of the translation both layers are tagged with, and the
    slot images under each of its powers, as `sector_group` returns them.

    The trivial group, every state its own orbit and G = 1, when a layer is
    untagged, the two tags differ, the subset is not invariant under the
    translation or the translation fixes every state.  A layer that does not
    commute with its translation, beyond SECTOR_COMMUTE_TOL, raises
    ValueError: its tag is false.
    """
    dim = a.shape[0]
    trivial = trivial_basis(dim), np.stack([np.arange(dim)] * 2)
    subset, period = getattr(a, "subset", None), getattr(a, "period", None)
    if subset is None or getattr(b, "subset", None) is not subset or getattr(b, "period", None) != period:
        return trivial
    try:
        basis, images, devs = sector_group(subset, mats=(a, b), period=period)
    except ValueError:  # the subset is not invariant under the translation
        return trivial
    for name, dev in zip("AB", devs):
        if dev > SECTOR_COMMUTE_TOL:
            raise ValueError(f"layer {name} does not commute with translation by {period} sites (dev {dev:.2e})")
    return (basis, images) if basis.size < dim else trivial


def orbit_block(mat: sp.spmatrix, basis: SectorBasis) -> sp.csr_matrix:
    """The operator in the orbit-sum basis, as CSR.

    Entry (a, b) is sum_x conj(sign[x]) mat[x, rep_b] sqrt(sizes[b] / sizes[a])
    over the slots x of orbit a, added up from zero in the CSC order of
    column rep_b.
    """
    cols = sp.csc_matrix(mat)[:, basis.reps]
    b = np.repeat(np.arange(basis.size), np.diff(cols.indptr))
    a = basis.orbit[cols.indices]
    keep = a >= 0
    a, b, rows = a[keep], b[keep], cols.indices[keep]
    values = basis.sign[rows].conj() * cols.data[keep] * np.sqrt(basis.sizes[b] / basis.sizes[a])
    n = basis.size
    keys, at = np.unique(a * n + b, return_inverse=True)
    sums = np.zeros(len(keys), dtype=values.dtype)
    np.add.at(sums, at, values)
    return sp.csr_matrix((sums, (keys // n, keys % n)), shape=(n, n))


def orbit_images(basis: SectorBasis, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and sign of the image of every column's representative under
    the permutation with slot map `slots`."""
    image = slots[basis.reps]
    return basis.orbit[image], basis.sign[image]


def _real_rotation(basis: SectorBasis, slots: np.ndarray) -> sp.csr_matrix:
    """The unitary W of the module docstring, for Theta = K F and the slot
    map of F: its columns are the real basis vectors of a sector with real
    characters in orbit-sum coordinates, (e_r + phi_r e_r') / sqrt(2) in
    column r and i (e_r - phi_r e_r') / sqrt(2) in column r' of a pair."""
    partner, phi = orbit_images(basis, slots)
    r = np.arange(basis.size)
    fixed, pair = r[partner == r], r[r < partner]
    mate, f, s = partner[pair], phi[pair], 1.0 / math.sqrt(2.0)
    rows = np.concatenate([fixed, pair, mate, pair, mate])
    cols = np.concatenate([fixed, pair, pair, mate, mate])
    data = np.concatenate([np.where(phi[fixed] > 0, 1.0, 1j), np.full(len(pair), s), f * s,
                           np.full(len(pair), 1j * s), -1j * s * f])
    return sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size), dtype=complex)


def project_sector(mat: sp.spmatrix, subset: BasisSubset, sector: SymmetrySector,
                   antiunitary=None) -> tuple[np.ndarray, SectorBasis]:
    """`sector_block` of an operator that commutes with every sector operator
    to SECTOR_COMMUTE_TOL, under `antiunitary` or `find_antiunitary`'s Theta."""
    basis, table, (dev,) = sector_group(subset, sector, (mat,))
    del table    # unread; dropped before the block, whose peak it would add to
    if dev > SECTOR_COMMUTE_TOL:
        raise ValueError(f"operator does not commute with the sector operators (dev {dev:.2e})")
    block = orbit_block(mat, basis)    # before Theta, whose temporaries would raise the peak RSS
    return sector_block(block, basis, find_antiunitary(mat, subset) if antiunitary is None else antiunitary)


def sector_block(block: sp.csr_matrix, basis: SectorBasis, antiunitary) -> tuple[np.ndarray, SectorBasis]:
    """An operator's `orbit_block` in a sector basis, as a dense block.

    The block is returned as it is, unless the basis's characters are real
    and Theta = K F commutes with the operator (`antiunitary`, as returned by
    `find_antiunitary`).  Then it is rotated sparsely into the real basis W
    of Theta and, when its imaginary parts are at most ANTIUNITARY_TOL, only
    the real part is made dense and W is returned as `basis.rotation`.  Those
    parts add up over an orbit's members, so a deviation just inside the
    tolerance can leave them above it; the orbit block is then returned as
    it is.  A float64 operator (Theta = K) keeps its orbit block, real, so
    its levels do not move.
    """
    if np.iscomplexobj(basis.sign):
        return block.toarray(), basis
    name, theta, _ = antiunitary
    if name in (None, "identity"):
        return block.toarray(), basis
    rotation = _real_rotation(basis, theta)
    rotated = rotation.conj().T @ block @ rotation
    if np.max(np.abs(rotated.data.imag), initial=0.0) > ANTIUNITARY_TOL:
        return block.toarray(), basis
    return rotated.real.toarray(), replace(basis, rotation=rotation)
