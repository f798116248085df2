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
anti-Hermitian for even n, so a commutator of pieces whose degrees sum to d
costs one product: [P, Q] = PQ - (-1)^d (PQ)^dagger.  The series term is
C_n = i Z_{n+1} = (-i)^n Z~_{n+1}, and C_0 = A~ + B~ is the closed form.

Parity.  Real layers (float64, as `hamiltonian.build_hamiltonian`
assembles pxp, pxp-nophase and qmbs-c) run the recursion in float64.  Then
every Z~_n is real, C_n is exactly real for even n and exactly imaginary for
odd n, and each product moves half the bytes of a complex one.

Stacked products.  A table entry T(k, d) = sum_m [Z~_m, T(k-1, d-m)] is
formed as one product hstack(Z~_m) @ vstack(T(k-1, d-m)), one graded
adjoint and one prune.  Every operand is held in CSR form, whatever kind
of matrix the caller passes: the Floquet-Magnus terms are local, so they
stay sparse.  Entries below SPARSE_PRUNE of the largest magnitude are
dropped from each table entry and each piece to stop noise fill-in.  The
entries of the last order are read only by its right-hand side, so those
whose B_k is zero (odd k >= 3) are not formed.

Pre-flight.  Before each order the series is admitted against the
available memory: the CSR pieces it holds, plus the order's deg + 1 new
pieces and three in-flight products, plus the two stacked operands of the
largest table entry it forms, must fit, else ResourceLimitError is raised
before the order allocates.  Fill-in grows the pieces from order to order,
so each new piece is sized as the largest piece held times the growth of
that largest piece over the last order, at most a full CSR matrix.  Real
pieces count at their float64 size.  The held pieces are already resident;
counting them again keeps a margin as large as the series held.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np
import scipy.sparse as sp

from . import dynamics
from .tolerances import SPARSE_PRUNE

MAX_ORDER = 12


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
    mat = mat.tocsr()
    if mat.nnz:
        cut = SPARSE_PRUNE * np.abs(mat.data).max()
        mat.data[np.abs(mat.data) < cut] = 0.0
        mat.eliminate_zeros()
    return mat


def _csr_bytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _commutator(prod, degree: int) -> sp.csr_matrix:
    """[P, Q] from prod = PQ, for graded pieces whose degrees sum to `degree`.

    The caller hands over prod: it is released before the prune."""
    adjoint = prod.T.tocsr()
    np.conjugate(adjoint.data, out=adjoint.data)
    out = prod + adjoint if degree % 2 else prod - adjoint
    del prod, adjoint
    return _prune(out)


@dataclass
class BchSeries:
    """Series terms C_0..C_N over a fixed basis subset."""

    terms: list

    @property
    def max_order(self) -> int:
        return len(self.terms) - 1


def bch_terms(a, b, n_orders: int) -> BchSeries:
    """Compute C_0..C_{n_orders} for the two layer Hamiltonians a and b.

    a and b may be dense arrays or sparse matrices; the terms are CSR, in
    float64 for C_0 of real layers and complex otherwise.  Raises
    ResourceLimitError before an order that would not fit in memory.
    """
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("layer matrices must be square and of equal shape")
    if n_orders < 0 or n_orders > MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}]")

    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    # Enforce exact Hermiticity of the layers.
    x = (0.5 * (a + a.getH())).tocsr()
    y = (0.5 * (b + b.getH())).tocsr()
    s = x + y

    bern = bernoulli_numbers(n_orders + 1)
    z = [None, s]          # z[m] holds the degree-m graded piece Z~_m
    table: dict[tuple[int, int], object] = {}

    def t_entry(k: int, d: int):
        if k == 0:
            return s if d == 0 else None
        return table.get((k, d))

    def operands(k: int, deg: int) -> list:
        """(Z~_m, T(k-1, deg-m)) pairs of the table entry T(k, deg)."""
        pairs = ((z[m], t_entry(k - 1, deg - m)) for m in range(1, deg - k + 2))
        return [(left, right) for left, right in pairs if right is not None]

    def formed(deg: int) -> list:
        """The k of the table entries T(k, deg) to form: at the last order
        only the right-hand side reads them, so those with B_k = 0 are skipped."""
        return [k for k in range(1, deg + 1) if deg < n_orders or bern[k] != 0]

    dim = x.shape[0]
    full = dim * (dim * (x.data.itemsize + x.indices.itemsize) + x.indptr.itemsize)
    largest = None
    for deg in range(1, n_orders + 1):
        held = [_csr_bytes(piece) for piece in (x, y, *z[1:], *table.values())]
        growth = max(held) / largest if largest else 1.0
        largest = max(held)
        piece = min(max(growth, 1.0) * largest, full)
        stacked = max(sum(_csr_bytes(p) + _csr_bytes(q) for p, q in operands(k, deg)) for k in formed(deg))
        need = sum(held) + (deg + 4) * piece + stacked
        dynamics.admit(need, f"series order {deg} needs about", "lower the order or use a smaller subspace")
        for k in formed(deg):
            pairs = operands(k, deg)
            if pairs:
                table[(k, deg)] = _commutator(
                    sp.hstack([p for p, _ in pairs], format="csr") @ sp.vstack([q for _, q in pairs], format="csr"),
                    deg + 1,
                )
        rhs = _commutator(z[deg] @ y, deg + 1)
        for k in range(1, deg + 1):
            coeff = bern[k]
            if coeff == 0:
                continue
            entry = t_entry(k, deg)
            if entry is None:
                continue
            rhs = rhs + (float(coeff) / factorial(k)) * entry
        z.append(_prune(rhs * (1.0 / (deg + 1))))

    table.clear()
    terms = [s] + [(-1j) ** n * z[n + 1] for n in range(1, n_orders + 1)]
    return BchSeries(terms)


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
