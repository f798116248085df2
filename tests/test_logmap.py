import numpy as np
import pytest
import scipy.linalg as la

from conftest import random_phase_gate
from scarforge.gate import gate_matrix, gate_order, identity_gate, parse_gate
from scarforge.logmap import (
    NonPeriodicGateError,
    closing_relation,
    cycle_eigenvectors,
    decomposition_coefficients,
    power_decomposition,
    principal_log,
    wrap_angle,
)


def test_wrap_angle_principal_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    vals = wrap_angle(np.linspace(-20, 20, 101))
    assert np.all(vals > -np.pi - 1e-12) and np.all(vals <= np.pi + 1e-12)


def test_wrap_angle_branch_cut_rounding():
    # one-ulp overshoots of the cut must not flip by a full turn
    assert wrap_angle(np.pi + 1e-15) == pytest.approx(np.pi)
    assert wrap_angle(2 * np.pi * 26 / 52) == pytest.approx(np.pi)
    assert wrap_angle(np.pi + 1e-9) == pytest.approx(-np.pi + 1e-9)


def test_reconstruction_with_branch_cut_eigenphase():
    # a fixed label carrying phase -1 inside an order-52 gate puts one genuine
    # eigenphase exactly on the cut; the coefficient route must agree with the
    # cycle route there
    phases = [1.0] * 16
    phases[0] = -1.0
    g = parse_gate([[2, 3], [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]], phases)
    order = gate_order(g)
    assert order is not None and order % 2 == 0
    d = power_decomposition(g)
    assert d.reconstruction_error < 1e-9


def test_cycle_eigenvectors_match_scalar_formula():
    # reference: e^{-i k beta_m} walk_k / sqrt(l) entry by entry in scalar
    # arithmetic; twelfth-root walk phases are not exact binary fractions,
    # so the array form must round every product as the scalar one does
    rng = np.random.default_rng(3)
    for l in (1, 2, 5, 12):
        walk = np.cumprod(np.exp(2j * np.pi * rng.integers(12, size=l) / 12))
        phi = float(wrap_angle(np.angle(walk[-1])))
        betas, amps = cycle_eigenvectors(walk, phi)
        for m in range(l):
            beta = (phi + 2.0 * np.pi * m) / l
            assert betas[m] == beta
            for k in range(l):
                assert amps[m, k] == np.exp(-1j * k * beta) * walk[k] / np.sqrt(l)


def test_identity_gate_log_is_zero():
    h = principal_log(identity_gate(4)).matrix
    assert np.max(np.abs(h)) == 0


def test_pxp_log_equals_pxp_window(models):
    h = principal_log(models["pxp"].gate).matrix
    I2, X, P = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([0.0, 1.0])
    expected = -np.pi / 2 * np.kron(np.kron(np.kron(P, X), P), I2)
    assert np.max(np.abs(h - expected)) < 1e-12


def test_pxp_log_cubes_to_quarter_pi_squared(models):
    h = principal_log(models["pxp"].gate).matrix
    assert np.max(np.abs(np.linalg.matrix_power(h, 3) - (np.pi**2 / 4) * h)) < 1e-12


def test_principal_log_round_trip_registry(models):
    for m in models.values():
        h = principal_log(m.gate).matrix
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        evals = np.linalg.eigvalsh(h)
        assert np.all(evals > -np.pi - 1e-10) and np.all(evals <= np.pi + 1e-10)
        assert np.max(np.abs(la.expm(-1j * h) - gate_matrix(m.gate))) < 1e-10


def test_principal_log_round_trip_random(rng):
    for _ in range(500):
        g = random_phase_gate(rng)
        h = principal_log(g).matrix
        assert np.max(np.abs(la.expm(-1j * h) - gate_matrix(g))) < 1e-10


def test_principal_log_matches_dense_eigendecomposition(rng):
    # oracle: principal log via Schur decomposition (orthonormal eigenbasis
    # even with degenerate eigenvalues, unlike plain eig)
    for _ in range(20):
        g = random_phase_gate(rng)
        u = gate_matrix(g)
        t, q = la.schur(u, output="complex")
        angles = wrap_angle(np.angle(np.diag(t)))
        angles[angles < -np.pi + 1e-8] += 2 * np.pi  # branch-cut values belong to +pi
        dense_log = -(q * angles) @ q.conj().T
        h = principal_log(g).matrix
        assert np.max(np.abs(h - dense_log)) < 1e-10


def test_non_periodic_gate_raises():
    g = parse_gate([[1, 2]], [np.exp(0.7j)] + [1.0] * 15)
    with pytest.raises(NonPeriodicGateError):
        principal_log(g)


def test_coefficients_pxp(models):
    c = power_decomposition(models["pxp"].gate)
    assert c.order == 4
    expected = np.array(
        [-np.pi / 4, np.pi / 4 + 1j * np.pi / 4, -np.pi / 4, np.pi / 4 - 1j * np.pi / 4]
    )
    assert np.max(np.abs(c.coefficients - expected)) < 1e-12
    assert c.reconstruction_error < 1e-9


def test_coefficients_order_six(models):
    expected = np.array(
        [
            -np.pi / 6,
            np.pi / 6 + 1j * np.pi / (2 * np.sqrt(3)),
            -np.pi / 6 - 1j * np.pi / (6 * np.sqrt(3)),
            np.pi / 6,
            -np.pi / 6 + 1j * np.pi / (6 * np.sqrt(3)),
            np.pi / 6 - 1j * np.pi / (2 * np.sqrt(3)),
        ]
    )
    for name in ("qmbs-a", "qmbs-b", "qmbs-c"):
        c = power_decomposition(models[name].gate)
        assert c.order == 6
        assert np.max(np.abs(c.coefficients - expected)) < 1e-12


def test_coefficients_depend_only_on_order(models):
    assert np.allclose(
        power_decomposition(models["qmbs-a"].gate).coefficients,
        power_decomposition(models["qmbs-b"].gate).coefficients,
    )
    assert np.allclose(decomposition_coefficients(6), decomposition_coefficients(6))


def test_reconstruction_random_orders(rng):
    for _ in range(30):
        g = random_phase_gate(rng)
        c = power_decomposition(g)
        assert c.reconstruction_error < 1e-9


def test_augmented_root_matrix_inverse():
    # the stacked root-of-unity matrix times its adjoint is n * identity
    for n in (2, 3, 4, 6, 8):
        s = np.arange(1, n + 1)
        gamma = 2 * np.pi * s / n
        mat = np.exp(1j * np.outer(gamma, np.arange(1, n + 1)))
        assert np.max(np.abs(mat.conj().T @ mat / n - np.eye(n))) < 1e-12


def test_closing_relation_pxp(models):
    h = principal_log(models["pxp"].gate)
    rel = closing_relation(h, 4)
    assert rel.power == 3
    assert np.max(np.abs(rel.alpha - np.array([0.0, np.pi**2 / 4, 0.0]))) < 1e-9


def test_closing_relation_zero_hamiltonian():
    rel = closing_relation(principal_log(identity_gate(4)), 1)
    assert rel.power == 1
    assert np.max(np.abs(rel.alpha)) < 1e-12


def test_closing_relation_qmbs_a_against_powers(models):
    # oracle: dense matrix powers verify the returned combination directly
    h = principal_log(models["qmbs-a"].gate)
    rel = closing_relation(h, 6)
    powers = [np.eye(16, dtype=complex)]
    for _ in range(rel.power):
        powers.append(powers[-1] @ h.matrix)
    recon = sum(a * p for a, p in zip(rel.alpha, powers[:-1]))
    assert np.max(np.abs(powers[rel.power] - recon)) < 1e-9
    # minimality: lower powers are independent
    for m in range(1, rel.power):
        basis = np.stack([p.reshape(-1) for p in powers[:m]], axis=1)
        alpha, *_ = np.linalg.lstsq(basis, powers[m].reshape(-1), rcond=None)
        assert np.linalg.norm(basis @ alpha - powers[m].reshape(-1)) > 1e-6


def test_power_rank_bounded(models):
    # powers of the window Hamiltonian become linearly dependent by its order
    for name in ("pxp", "qmbs-b"):
        h = principal_log(models[name].gate)
        n = gate_order(models[name].gate)
        powers = [np.eye(16, dtype=complex)]
        for _ in range(n):
            powers.append(powers[-1] @ h.matrix)
        stack = np.stack([p.reshape(-1) for p in powers], axis=1)
        assert np.linalg.matrix_rank(stack, tol=1e-9) <= n
