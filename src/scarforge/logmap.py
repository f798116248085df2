"""Exact local Hamiltonians h0 = i log(U0) from permutation gates.

The log is taken cycle by cycle: a cycle of length l with accumulated phase
angle Phi contributes eigenvectors with eigenphases (Phi + 2 pi m)/l, each
mapped to its principal value in (-pi, pi].  This keeps exp(-i h0) equal to
the gate exactly and pins every eigenvalue of h0 inside the principal strip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import PermutationGate, gate_matrix, gate_order, phase_product, phased_cycles
from .tolerances import CUT_GUARD, DEPENDENCE_RTOL, RECONSTRUCTION_TOL


class NonPeriodicGateError(ValueError):
    """The gate has no finite order: a cycle's phase product is not a root
    of unity of order at most the search bound."""


def wrap_angle(theta):
    """Map an angle to the half-open principal interval (-pi, pi].

    Angles within 1e-12 above the cut still count as +pi: eigenphase
    arithmetic can land one ulp past pi (e.g. 2*pi*26/52 rounds high), and
    flipping such a value to -pi would shift an eigenvalue by a full turn.
    Genuine eigenphases of the gates handled here are separated by far more
    than the guard.
    """
    wrapped = theta - 2.0 * np.pi * np.ceil((theta - np.pi - CUT_GUARD) / (2.0 * np.pi))
    return np.minimum(wrapped, np.pi)


def cycle_eigenphases(phi, l: int) -> np.ndarray:
    """beta_m = (phi + 2 pi m) / l, m = 0..l-1: the eigenphases of a phased
    cycle of length l whose full-turn phase has angle phi."""
    return (phi + 2.0 * np.pi * np.arange(l)) / l


def cycle_eigenvectors(walk, phi) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and eigenvectors of a phased cycle of length l.

    walk[k] is the phase picked up on the way to the k-th value of the cycle
    and phi the angle of the full-turn phase.  Row m of the (l, l) amplitude
    array, over the values in walk order, is the eigenvector with eigenphase
    beta_m: e^{-i k beta_m} walk[k] / sqrt(l).
    """
    l = len(walk)
    betas = cycle_eigenphases(phi, l)
    turns = np.exp(-1j * np.outer(betas, np.arange(l)))
    return betas, phase_product(turns, np.asarray(walk, dtype=complex)) / np.sqrt(l)


@dataclass(frozen=True)
class LocalHamiltonian:
    """Hermitian window Hamiltonian with exp(-i h) equal to the source gate."""

    matrix: np.ndarray


@dataclass(frozen=True)
class PowerDecomposition:
    """Coefficients c_k with sum_k c_k U**k = h0, k = 0..n-1.

    The coefficient vector depends only on the gate order n.
    """

    order: int
    coefficients: np.ndarray
    reconstruction_error: float


@dataclass(frozen=True)
class ClosingRelation:
    """Minimal m with h**m = sum_{k<m} alpha_k h**k."""

    power: int
    alpha: np.ndarray


def principal_log(gate: PermutationGate) -> LocalHamiltonian:
    """Hermitian h0 with exp(-i h0) = gate and eigenvalues in (-pi, pi].

    Walking each cycle accumulates the exact product of table phases; the
    cycle phase angle comes from that product, not from a floating log of
    matrix elements.
    """
    if gate_order(gate) is None:
        raise NonPeriodicGateError(
            "gate has no finite order (accumulated phases are not a root of unity)"
        )
    h = np.zeros((gate.dim, gate.dim), dtype=complex)
    for values, walk, total in phased_cycles(gate.perm, gate.phases):
        block = np.ix_(values, values)
        betas, amplitudes = cycle_eigenvectors(walk, wrap_angle(np.angle(total)))
        for beta, vec in zip(betas, amplitudes):
            h[block] -= wrap_angle(beta) * np.outer(vec, vec.conj())
    return LocalHamiltonian(h)


def decomposition_coefficients(n: int) -> np.ndarray:
    """Coefficient vector (c_0..c_{n-1}) for expressing h0 in gate powers.

    Every cycle contributes the full set of augmented eigenphase angles
    2 pi s / n, so the solve collapses to a single discrete Fourier sum that
    depends only on n; two gates of equal order share one vector.
    """
    s = np.arange(1, n + 1)
    gamma = 2.0 * np.pi * s / n
    gamma_tilde = wrap_angle(gamma)
    k = np.arange(n)
    return -(np.exp(-1j * np.outer(k, gamma)) @ gamma_tilde) / n


def power_decomposition(gate: PermutationGate) -> PowerDecomposition:
    """Decompose h0 = i log(gate) as sum_k c_k gate**k, k = 0..n-1."""
    h = principal_log(gate).matrix
    n = gate_order(gate)
    coeffs = decomposition_coefficients(n)
    u = gate_matrix(gate)
    recon = np.zeros_like(h)
    power = np.eye(gate.dim, dtype=complex)
    for k in range(n):
        recon += coeffs[k] * power
        power = u @ power
    err = float(np.linalg.norm(recon - h))
    if err > RECONSTRUCTION_TOL:
        raise RuntimeError(f"power reconstruction failed, residual {err:.3e}")
    return PowerDecomposition(n, coeffs, err)


def closing_relation(h: LocalHamiltonian, n: int) -> ClosingRelation:
    """Find the minimal m <= n with h**m a combination of lower powers.

    Powers are vectorized and tested for linear dependence incrementally;
    singular directions below 1e-9 of the leading one count as dependent.
    The relation always exists by m = n.
    """
    mat = h.matrix
    dim = mat.shape[0]
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ mat)
    columns = [p.reshape(-1) for p in powers]
    for m in range(1, n + 1):
        basis = np.stack(columns[:m], axis=1)
        target = columns[m]
        alpha, *_ = np.linalg.lstsq(basis, target, rcond=DEPENDENCE_RTOL)
        residual = np.linalg.norm(basis @ alpha - target)
        scale = max(1.0, np.linalg.norm(target))
        if residual < DEPENDENCE_RTOL * scale:
            return ClosingRelation(m, alpha)
    raise RuntimeError(f"no closing relation found up to power {n}")
