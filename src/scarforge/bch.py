"""Nested-commutator series for log(e^{-iA} e^{-iB}) and its diagnostics.

Write Z(s) = log(e^{sX} e^{sY}) with X = -iA, Y = -iB.  Differentiating the
defining product gives

    Z'(s) = sum_k  (B_k / k!) ad_Z^k (X + Y)  +  [Z, Y],

where B_k are the Bernoulli numbers (B_1 = -1/2); the lone extra commutator
absorbs the sign flip of B_1 for the Y argument.  Grading by powers of s
turns this into an exact recursion for the homogeneous pieces Z_n built from
nested commutators of lower pieces, with rational coefficients generated as
exact fractions.

Grading.  Z_n is homogeneous of degree n in X and Y, so Z_n = (-i)^n Z~_n,
where Z~_n is the same recursion run on the Hermitian parts A~ = (A + A^dagger)/2
and B~ in place of X and Y: every coefficient is real, and each commutator
of degree d carries the factor (-i)^d.  Z~_n is Hermitian for odd n and
anti-Hermitian for even n, so on whole matrices a commutator of pieces
whose degrees sum to d costs one product: [P, Q] = PQ - (-1)^d (PQ)^dagger.
The series term is C_n = i Z_{n+1} = (-i)^n Z~_{n+1}, and C_0 = A~ + B~ is
the closed form.

Parity.  Real layers (float64, as `hamiltonian.build_hamiltonian`
assembles pxp, pxp-nophase and qmbs-c) run the recursion in float64.  Then
every Z~_n is real, C_n is exactly real for even n and exactly imaginary for
odd n, and each product moves half the bytes of a complex one.

Stacked products.  A table entry T(k, d) = sum_m [Z~_m, T(k-1, d-m)] is
formed from stacked operands, hstack(Z~_m) @ vstack(T(k-1, d-m)), and one
prune.  T(d, d) = ad_s^d(s) is zero and is not formed.  Every operand is
held in CSR form, whatever kind of matrix the caller passes: the
Floquet-Magnus terms are local, so they stay sparse.  Entries below
SPARSE_PRUNE of the largest magnitude are dropped from each table entry and
each piece to stop noise fill-in.  The entries of the last order are read
only by its right-hand side, so those whose B_k is zero (odd k >= 3) are
not formed.

Representative rows.  The layers `hamiltonian.build_hamiltonian` returns
are tagged with their subset and window period p, and commute with the
translation T by p sites, a group of order G = L / gcd(L, p) (7 for pxp at
L = 14).  Then so does every piece, and a piece is held as its rows at the
orbit representatives of `hamiltonian.layer_orbits`, about 1/G of it.  The
rows of [P, Q] are P_rep @ Q - Q_rep @ P, two products of representative
rows with full operators, and each prune acts on those rows, whose largest
entry is the largest of the full matrix.  The full operator a later product
reads is expanded from the rows through the translation's slot images: row
x is the row of its orbit's representative r with each column c moved to
T^-s c, for T^s x = r.  The terms C_n are expanded once, at the end.
`bch_terms` confirms that each tagged layer commutes with its translation,
within SECTOR_COMMUTE_TOL, before any product, and raises ValueError if not.
Untagged matrices, layers whose subset the translation does not keep, and
subsets whose every state the translation fixes run the same recursion on
the trivial group, G = 1: every row is a representative, so a piece's rows
are its full operator, and the second product is the graded adjoint of the
first, QP = (-1)^d (PQ)^dagger.

Pre-flight.  Each allocation is admitted against the available memory
when its size is known, else ResourceLimitError is raised before it is
made.  The available memory already excludes what the process holds, so
each admission counts only what it is about to allocate, up to the next:
order 0, first the translation group of `layer_orbits` (the check of
tagged layers against translated copies of themselves and the table of
the translation's powers), then the Hermitian parts of the layers, their
sum and their representative rows, bounded by the layers' entries; each
commutator, the stacked operands of one product at a time, both products (a row of P_rep @ Q
has no more entries than the rows of Q it reaches, nor than the dimension),
the buffer of their difference and the prune's 9 bytes per entry of it; each
right-hand side, its running Bernoulli sum beside the sum before it, the
scaled copy and the prune's copy of that; each expansion, its exact entries
(its rows' once per state of their orbits) with the int32 power and numpy's
int64 index copies that `_expand` makes per entry; and the terms, complex
values for the index arrays each takes over from its piece, and TERM_BYTES
for each term's sparse-matrix object and its constructor's checks, which
is all a term of no entries (pxp's C_1) allocates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import dynamics
from .hamiltonian import SectorBasis, layer_orbits
from .tolerances import SPARSE_PRUNE

MAX_ORDER = 12
TERM_BYTES = 4096  # a term's sparse-matrix object beside its arrays, about 1 KB traced at its peak


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} with the B_1 = -1/2 convention, as exact fractions."""
    out = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * out[k]
        out.append(-acc / (m + 1))
    return out


def _prune(mat) -> sp.csr_matrix:
    """Drop the entries below SPARSE_PRUNE of the largest, keeping only the
    rest: `eliminate_zeros` can leave views of the longer arrays."""
    mat = mat.tocsr()
    if mat.nnz:
        cut = SPARSE_PRUNE * np.abs(mat.data).max()
        mat.data[np.abs(mat.data) < cut] = 0.0
        mat.eliminate_zeros()
        if mat.data.base is not None:
            mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
    return mat


def _csr_bytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _graded_adjoint(prod, degree: int) -> sp.csr_matrix:
    """QP = (-1)^degree (PQ)^dagger from prod = PQ, for graded pieces whose
    degrees sum to `degree`."""
    out = prod.T.tocsr()
    np.conjugate(out.data, out=out.data)
    if degree % 2:
        np.negative(out.data, out=out.data)
    return out


def _expand(rows, basis: SectorBasis, images: np.ndarray) -> sp.csr_matrix:
    """The translation-invariant operator whose rows at the orbit
    representatives are `rows`: row x is the row of its orbit with each
    column c moved to T^-s c, for T^s the power taking x to its
    representative; images[j] holds the slot images under T^j, j = 0..G.
    The rows of the trivial group, every state's, are the operator itself."""
    if rows.shape[0] == rows.shape[1]:
        return rows
    full = rows[basis.orbit]
    back = np.repeat((len(images) - 1 - basis.shift).astype(np.int32), np.diff(full.indptr))    # T^(G - s) = T^-s
    full.indices = images[back, full.indices].astype(full.indices.dtype, copy=False)
    full.has_sorted_indices = False
    return full


@dataclass
class BchSeries:
    """Series terms C_0..C_N over a fixed basis subset, and the order of the
    translation group whose representative rows the recursion ran on and the
    number of those rows (order 1 and every row for the trivial group)."""

    terms: list
    group_order: int = 1
    rows: int | None = None    # set by bch_terms

    @property
    def max_order(self) -> int:
        return len(self.terms) - 1


class _Piece(NamedTuple):
    """A piece of the recursion: its rows at the orbit representatives, and
    the full operator where a later product reads it (the same matrix for
    the trivial group)."""

    rows: sp.csr_matrix
    full: sp.csr_matrix | None


def _stacked_product(side) -> sp.csr_matrix:
    """The sum of rows(P) @ full(Q) over the (P, Q) pieces of `side`, as one
    product of stacked operands."""
    return (sp.hstack([p.rows for p, _ in side], format="csr")
            @ sp.vstack([q.full for _, q in side], format="csr"))


def bch_terms(a, b, n_orders: int) -> BchSeries:
    """Compute C_0..C_{n_orders} for the two layer Hamiltonians a and b.

    a and b may be dense arrays or sparse matrices; the terms are CSR, in
    float64 for C_0 of real layers and complex otherwise.  Layers tagged by
    `build_hamiltonian` run on the rows of their translation group's orbit
    representatives; a tag whose translation does not commute with its layer
    raises ValueError.  Raises ResourceLimitError before an allocation that
    would not fit in memory.
    """
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("layer matrices must be square and of equal shape")
    if n_orders < 0 or n_orders > MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}]")

    def admit(need: int, deg: int) -> None:
        dynamics.admit(need, f"series order {deg} needs about", "lower the order or use a smaller subspace")

    # layer_orbits compares each tagged layer with a translated copy of
    # itself (a permuted copy, their difference and its modulus) and makes
    # the table of the translation's powers and its copy, beside ten index
    # arrays of the dimension; the trivial group of untagged layers is
    # those arrays alone
    subset, dim = getattr(a, "subset", None), a.shape[0]
    group = 0 if subset is None else (4 * max(_csr_bytes(a), _csr_bytes(b))
                                      + 16 * dim * (subset.length // gcd(subset.length, a.period) + 1))
    admit(group + 80 * dim, 0)
    basis, images = layer_orbits(a, b)
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    images = images.astype(a.indices.dtype)    # column indices of an operator of this dimension
    reps, idx = basis.size, a.indices.itemsize
    entry = np.result_type(a.dtype, b.dtype, np.float64).itemsize + idx    # bytes per entry of every piece

    layers = 2 * (a.nnz + b.nnz)    # at most the entries of x and y, and of s, y[reps] and s[reps] each
    # forming x or y also takes two copies of its layer and a sum buffer of twice its entries
    admit(entry * (4 * layers + 4 * max(a.nnz, b.nnz)) + 8 * (dim + 1) * idx, 0)
    # Enforce exact Hermiticity of the layers.
    x = (0.5 * (a + a.getH())).tocsr()
    y = (0.5 * (b + b.getH())).tocsr()
    s = x + y

    def full_entries(rows) -> int:
        """The entries of the operator expanded from `rows`."""
        return int(np.diff(rows.indptr) @ basis.sizes)

    def expansion_bytes(rows) -> int:
        """The full operator, and per entry the power and index copies of `_expand`."""
        return full_entries(rows) * (entry + 20 + idx) + 6 * (dim + 1) * idx

    def piece(rows, deg: int, read_later: bool) -> _Piece:
        if reps == dim:
            return _Piece(rows, rows)
        if not read_later:
            return _Piece(rows, None)
        admit(expansion_bytes(rows), deg)
        return _Piece(rows, _expand(rows, basis, images))

    def reach(side) -> int:
        """At most the entries of the sum of rows(P) @ full(Q) over the
        (P, Q) pieces of `side`: row i has no more entries than dim, nor than
        the entries of the rows of Q that row i of P reaches."""
        out = 0
        for left, right in side:
            ends = np.zeros(left.rows.nnz + 1, dtype=np.int64)
            np.cumsum(np.diff(right.full.indptr)[left.rows.indices], out=ends[1:])
            out = out + ends[left.rows.indptr[1:]] - ends[left.rows.indptr[:-1]]
        return int(np.minimum(out, dim).sum())

    def commutator(pairs, deg: int) -> sp.csr_matrix:
        """Representative rows of the sum of [P, Q] over the (P, Q) pieces of
        `pairs`, whose degrees sum to deg + 1."""
        swapped = [(q, p) for p, q in pairs]    # rows of Q with full P
        stacked = [pairs] if reps == dim else [pairs, swapped]
        products = 2 * reach(pairs) if reps == dim else reach(pairs) + reach(swapped)
        admit(max(sum(_csr_bytes(p.rows) + _csr_bytes(q.full) for p, q in side) for side in stacked)
              + products * (2 * entry + 9) + 3 * (reps + 1) * idx, deg)
        first = _stacked_product(pairs)
        second = _graded_adjoint(first, deg + 1) if reps == dim else _stacked_product(swapped)
        out = first - second
        del first, second
        return _prune(out)

    bern = bernoulli_numbers(n_orders + 1)
    y_piece = _Piece(y[basis.reps], y)
    z = [None, _Piece(s[basis.reps], s)]    # z[m] holds the degree-m graded piece Z~_m
    table: dict[tuple[int, int], _Piece] = {}

    def t_entry(k: int, d: int):
        if k == 0:
            return z[1] if d == 0 else None
        return table.get((k, d))

    def operands(k: int, deg: int) -> list:
        """(Z~_m, T(k-1, deg-m)) pairs of the table entry T(k, deg)."""
        pairs = ((z[m], t_entry(k - 1, deg - m)) for m in range(1, deg - k + 2))
        return [(left, right) for left, right in pairs if right is not None]

    def formed(deg: int) -> list:
        """The k of the table entries T(k, deg) to form.  T(deg, deg) is
        ad_s^deg(s) = 0, and at the last order only the right-hand side reads
        the entries, so those with B_k = 0 are skipped."""
        return [k for k in range(1, deg) if deg < n_orders or bern[k] != 0]

    def read_later(k: int, deg: int) -> bool:
        """Whether a later order reads T(k, deg) as a right operand."""
        return any(k + 1 in formed(later) for later in range(deg + 1, n_orders + 1))

    for deg in range(1, n_orders + 1):
        for k in formed(deg):
            pairs = operands(k, deg)
            if pairs:
                table[(k, deg)] = piece(commutator(pairs, deg), deg, read_later(k, deg))
        rhs = commutator([(z[deg], y_piece)], deg)
        addends = [(float(bern[k]) / factorial(k), table[(k, deg)].rows) for k in range(1, deg + 1)
                   if bern[k] != 0 and (k, deg) in table]
        admit(3 * (rhs.nnz + sum(rows.nnz for _, rows in addends)) * entry + 3 * (reps + 1) * idx, deg)
        for coeff, rows in addends:
            rhs = rhs + coeff * rows
        z.append(piece(_prune(rhs * (1.0 / (deg + 1))), deg, deg < n_orders))
        del rhs, addends

    table.clear()
    if n_orders:
        # each term takes over its piece's index arrays
        admit(sum(full_entries(p.rows) for p in z[2:]) * np.dtype(complex).itemsize + TERM_BYTES * n_orders
              + (0 if z[-1].full is not None else expansion_bytes(z[-1].rows)), n_orders)
    terms = [s]
    for n in range(1, n_orders + 1):
        p, z[n + 1] = z[n + 1], None    # each piece is released as its term is made
        full = p.full if p.full is not None else _expand(p.rows, basis, images)
        term = sp.csr_matrix((full.data.astype(complex), full.indices, full.indptr), shape=full.shape)
        term.data *= (-1j) ** n
        terms.append(term)
        del p, full, term
    return BchSeries(terms, len(images) - 1, reps)


# ---------------------------------------------------------------------------
# Projected norms, augmented Hamiltonians, decay estimate
# ---------------------------------------------------------------------------


def _frobenius_sq(mat) -> float:
    return float(np.sum(np.abs(mat.data) ** 2))


def _block_norms(mat, orbit_positions: np.ndarray) -> tuple[float, float, float]:
    """Squared Frobenius norms of the (orbit|orbit), (rest|orbit) and
    (rest|rest) blocks of a dense or sparse matrix."""
    mat = sp.csr_matrix(mat)
    orb = np.asarray(orbit_positions, dtype=int)
    cols = mat.tocsc()[:, orb]
    col_sq = _frobenius_sq(cols)
    block_sq = _frobenius_sq(cols.tocsr()[orb])
    row_sq = _frobenius_sq(mat[orb])
    total_sq = _frobenius_sq(mat)
    orbit_sq = block_sq
    leak_sq = max(col_sq - block_sq, 0.0)
    generic_sq = max(total_sq - col_sq - row_sq + block_sq, 0.0)
    return orbit_sq, leak_sq, generic_sq


@dataclass
class NormProfile:
    """Normalized Frobenius norms of each series term split by the orbit
    projector: within the orbit (per orbit state), orbit-to-generic leakage,
    and generic-to-generic."""

    orders: np.ndarray
    orbit_norm: np.ndarray
    leakage_norm: np.ndarray
    generic_norm: np.ndarray


def norm_profile(series: BchSeries, orbit_positions) -> NormProfile:
    orb = np.asarray(sorted(orbit_positions), dtype=int)
    l = len(orb)
    n_eff = series.terms[0].shape[0]
    orders = np.arange(series.max_order + 1)
    orbit, leak, generic = [], [], []
    for term in series.terms:
        orbit_sq, leak_sq, generic_sq = _block_norms(term, orb)
        orbit.append(np.sqrt(orbit_sq) / l)
        leak.append(np.sqrt(leak_sq) / np.sqrt(l * n_eff))
        generic.append(np.sqrt(generic_sq) / n_eff)
    return NormProfile(orders, np.array(orbit), np.array(leak), np.array(generic))


def augmented_hamiltonian(series: BchSeries, order: int):
    """Partial sum C_0 + ... + C_order."""
    if order > series.max_order:
        raise ValueError(f"series only holds orders up to {series.max_order}")
    out = series.terms[0]
    for n in range(1, order + 1):
        out = out + series.terms[n]
    return out


@dataclass
class DecayEstimate:
    rate: float


def fgr_rate(series: BchSeries, orbit_positions, chain_length: int, bandwidth: float) -> DecayEstimate:
    """Golden-rule decay rate from the second-order orbit-to-generic coupling:
    2 pi (2 N_eff / (L Delta)) |leakage(C_2)|^2 / (N_eff l)."""
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive (got {bandwidth})")
    if series.max_order < 2:
        raise ValueError("decay estimate needs the series through order 2")
    orb = np.asarray(sorted(orbit_positions), dtype=int)
    l = len(orb)
    n_eff = series.terms[0].shape[0]
    _, leak_sq, _ = _block_norms(series.terms[2], orb)
    rate = 2.0 * np.pi * (2.0 * n_eff / (chain_length * bandwidth)) * leak_sq / (n_eff * l)
    return DecayEstimate(float(rate))
