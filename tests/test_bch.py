from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_bch_terms, random_phase_gate
from scarforge import dynamics
from scarforge.automaton import FloquetCircuit
from scarforge.basis import BasisSubset
from scarforge.bch import (
    BchSeries,
    augmented_hamiltonian,
    bch_terms,
    bernoulli_numbers,
    fgr_rate,
    norm_profile,
)
from scarforge.hamiltonian import build_hamiltonian, krylov_subspace
from scarforge.models import load_model, neel_orbit_states, working_subspace


def test_bernoulli_numbers_exact():
    b = bernoulli_numbers(13)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0 and b[5] == 0 and b[7] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[12] == Fraction(-691, 2730)


@pytest.fixture(scope="module")
def pxp_layers():
    m = load_model("pxp")
    L = 8
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    chain = build_hamiltonian(circuit, sub)
    return chain.a.toarray(), chain.b.toarray(), sub, m


def test_low_orders_match_closed_forms(pxp_layers):
    a, b, _, _ = pxp_layers
    series = bch_terms(a, b, 2)
    assert np.array_equal(series.term(0).toarray(), a + b)
    comm = a @ b - b @ a
    assert np.max(np.abs(series.term(1).toarray() + 0.5j * comm)) < 1e-13
    c2 = -(1.0 / 12.0) * ((a @ comm - comm @ a) - (b @ comm - comm @ b))
    assert np.max(np.abs(series.term(2).toarray() - c2)) < 1e-13


def test_commuting_layers_truncate():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([0.5, -1.0, 2.5]).astype(complex)
    series = bch_terms(a, b, 6)
    for n in range(1, 7):
        assert np.max(np.abs(series.term(n))) < 1e-14


def test_scaled_series_matches_dense_log(pxp_layers):
    # oracle: scipy's matrix log inside the convergence region
    a, b, _, _ = pxp_layers
    eps = 0.12
    series = bch_terms(eps * a, eps * b, 10)
    target = 1j * la.logm(la.expm(-1j * eps * a) @ la.expm(-1j * eps * b))
    partial = sum(series.term(n) for n in range(11))
    assert np.max(np.abs(partial - target)) < 1e-9


def test_degree_homogeneity(pxp_layers):
    a, b, _, _ = pxp_layers
    base = bch_terms(a, b, 5)
    scaled = bch_terms(2.0 * a, 2.0 * b, 5)
    for n in range(6):
        assert np.max(np.abs(scaled.term(n) - 2.0 ** (n + 1) * base.term(n))) < 1e-9


def test_terms_are_hermitian(pxp_layers):
    a, b, _, _ = pxp_layers
    series = bch_terms(a, b, 6)
    for n in range(7):
        t = series.term(n)
        assert np.max(np.abs(t - t.conj().T)) < 1e-9


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_series_matches_log_for_random_gates(seed):
    # oracle: scipy's matrix log of the product of the scaled layer
    # propagators, for any gate on the L=8 full space
    gate = random_phase_gate(np.random.default_rng(seed))
    chain = build_hamiltonian(FloquetCircuit(gate, 8, "stride4"), BasisSubset.full_space(8))
    a, b = chain.a.toarray(), chain.b.toarray()
    eps = 0.25 / (np.linalg.norm(a, 2) + np.linalg.norm(b, 2))
    series = bch_terms(eps * a, eps * b, 10)
    target = 1j * la.logm(la.expm(-1j * eps * a) @ la.expm(-1j * eps * b))
    partial = sum(series.term(n).toarray() for n in range(11))
    assert np.max(np.abs(partial - target)) < 1e-9


def _assert_matches_dense_recursion(a, b, n_orders):
    series = bch_terms(a, b, n_orders)
    for n, ref in enumerate(dense_bch_terms(a.toarray(), b.toarray(), n_orders)):
        err = np.linalg.norm(series.term(n).toarray() - ref)
        assert err <= 1e-12 * np.linalg.norm(ref), (n, err)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_series_matches_dense_recursion_for_random_gates(seed):
    # oracle: the anti-Hermitian recursion in dense complex arithmetic, on
    # the L=8 full space of any phased gate, whose layers are complex
    gate = random_phase_gate(np.random.default_rng(seed))
    chain = build_hamiltonian(FloquetCircuit(gate, 8, "stride4"), BasisSubset.full_space(8))
    _assert_matches_dense_recursion(chain.a, chain.b, 6)


@pytest.mark.parametrize("name", ["pxp", "pxp-nophase", "qmbs-a", "qmbs-b", "qmbs-c"])
def test_series_matches_dense_recursion_for_registry_models(models, name):
    model = models[name]
    chain = build_hamiltonian(model.circuit(8), working_subspace(model, 8))
    _assert_matches_dense_recursion(chain.a, chain.b, 6)


@pytest.mark.parametrize("name", ["pxp", "pxp-nophase", "qmbs-c"])
def test_real_layers_give_graded_parity(models, name):
    # real layers: C_n = (-i)^n Z~_{n+1} with Z~ real, so from order 1 on
    # the even terms are real and the odd ones imaginary, exactly; the qmbs-c
    # layers commute on its working subspace, so there every term vanishes
    model = models[name]
    chain = build_hamiltonian(model.circuit(8), working_subspace(model, 8))
    series = bch_terms(chain.a, chain.b, 8)
    for n in range(1, 9):
        term = series.term(n)
        assert (term.nnz == 0) == (name == "qmbs-c"), n
        assert np.all((term.data.imag if n % 2 == 0 else term.data.real) == 0), n


def test_pxp_window_commutator_matrix_elements():
    # the commutator of adjacent window terms moves exactly one adjacent pair
    m = load_model("pxp")
    L = 12
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    chain = build_hamiltonian(circuit, sub)
    series = bch_terms(chain.a, chain.b, 1)
    c1 = series.term(1)
    c1 = c1.toarray() if sp.issparse(c1) else c1
    x = sub.position(int("101111111111", 2))
    y = sub.position(int("110111111111", 2))
    assert abs(c1[y, x] - 1j * np.pi**2 / 8) < 1e-12
    assert abs(c1[x, y] + 1j * np.pi**2 / 8) < 1e-12
    # and it annihilates the protected orbit exactly
    pos = [sub.position(s) for s in neel_orbit_states(m, L)]
    assert np.linalg.norm(c1[:, pos]) < 1e-10


def test_norm_profile_zero_operator():
    sub_dim = 6
    zero = np.zeros((sub_dim, sub_dim), dtype=complex)
    series = BchSeries([zero, zero], 1)
    prof = norm_profile(series, [0, 1])
    assert np.all(prof.orbit_norm == 0)
    assert np.all(prof.leakage_norm == 0)
    assert np.all(prof.generic_norm == 0)


def test_norm_profile_block_accounting(rng):
    dim, l = 12, 3
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    series = BchSeries([mat], 0)
    orb = [0, 4, 7]
    prof = norm_profile(series, orb)
    rest = [i for i in range(dim) if i not in orb]
    orbit_ref = np.linalg.norm(mat[np.ix_(orb, orb)])
    leak_ref = np.linalg.norm(mat[np.ix_(rest, orb)])
    generic_ref = np.linalg.norm(mat[np.ix_(rest, rest)])
    assert prof.orbit_norm[0] == pytest.approx(orbit_ref / l)
    assert prof.leakage_norm[0] == pytest.approx(leak_ref / np.sqrt(l * dim))
    assert prof.generic_norm[0] == pytest.approx(generic_ref / dim)


def test_augmented_hamiltonian_partial_sums(pxp_layers):
    a, b, _, _ = pxp_layers
    series = bch_terms(a, b, 3)
    assert np.array_equal(augmented_hamiltonian(series, 0).toarray(), a + b)
    total = series.term(0) + series.term(1) + series.term(2) + series.term(3)
    assert np.max(np.abs(augmented_hamiltonian(series, 3).toarray() - total.toarray())) < 1e-14
    with pytest.raises(ValueError):
        augmented_hamiltonian(series, 4)


def test_fgr_rate_zero_for_vanishing_coupling():
    dim = 8
    zero = np.zeros((dim, dim), dtype=complex)
    series = BchSeries([zero, zero, zero], 2)
    est = fgr_rate(series, [0, 1], 8, 30.0)
    assert est.rate == 0.0


@pytest.mark.parametrize("bandwidth", [0.0, -3.0])
def test_fgr_rate_refuses_nonpositive_bandwidth(bandwidth):
    zero = np.zeros((8, 8), dtype=complex)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        fgr_rate(BchSeries([zero, zero, zero], 2), [0, 1], 8, bandwidth)


def test_series_refused_before_an_order_that_does_not_fit(monkeypatch):
    # qmbs-a on the 256-state full space: the order-2 admission counts about
    # 2.5 MB and the order-3 one about 9 MB
    model = load_model("qmbs-a")
    chain = build_hamiltonian(model.circuit(8), BasisSubset.full_space(8))
    monkeypatch.setattr(dynamics, "available_bytes", lambda: 4 << 20)
    with pytest.raises(dynamics.ResourceLimitError, match="series order 3 needs"):
        bch_terms(chain.a, chain.b, 8)
    assert bch_terms(chain.a, chain.b, 2).max_order == 2


def test_order_guard():
    a = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        bch_terms(a, a, 13)
    with pytest.raises(ValueError):
        bch_terms(a, np.zeros((3, 3), dtype=complex), 2)
