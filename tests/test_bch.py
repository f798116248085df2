import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_bch_terms, random_phase_gate
from scarforge import bch, dynamics
from scarforge.automaton import FloquetCircuit
from scarforge.basis import BasisSubset, tile_pattern
from scarforge.bch import (
    BchSeries,
    augmented_hamiltonian,
    bch_terms,
    bernoulli_numbers,
    fgr_rate,
    norm_profile,
)
from scarforge.gate import PermutationGate
from scarforge.hamiltonian import LayerMatrix, build_hamiltonian, krylov_subspace
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
    assert np.array_equal(series.terms[0].toarray(), a + b)
    comm = a @ b - b @ a
    assert np.max(np.abs(series.terms[1].toarray() + 0.5j * comm)) < 1e-13
    c2 = -(1.0 / 12.0) * ((a @ comm - comm @ a) - (b @ comm - comm @ b))
    assert np.max(np.abs(series.terms[2].toarray() - c2)) < 1e-13


def test_commuting_layers_truncate():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([0.5, -1.0, 2.5]).astype(complex)
    series = bch_terms(a, b, 6)
    for n in range(1, 7):
        assert np.max(np.abs(series.terms[n])) < 1e-14


def test_scaled_series_matches_dense_log(pxp_layers):
    # oracle: scipy's matrix log inside the convergence region
    a, b, _, _ = pxp_layers
    eps = 0.12
    series = bch_terms(eps * a, eps * b, 10)
    target = 1j * la.logm(la.expm(-1j * eps * a) @ la.expm(-1j * eps * b))
    partial = sum(series.terms[n] for n in range(11))
    assert np.max(np.abs(partial - target)) < 1e-9


def test_degree_homogeneity(pxp_layers):
    a, b, _, _ = pxp_layers
    base = bch_terms(a, b, 5)
    scaled = bch_terms(2.0 * a, 2.0 * b, 5)
    for n in range(6):
        assert np.max(np.abs(scaled.terms[n] - 2.0 ** (n + 1) * base.terms[n])) < 1e-9


def test_terms_are_hermitian(pxp_layers):
    a, b, _, _ = pxp_layers
    series = bch_terms(a, b, 6)
    for n in range(7):
        t = series.terms[n]
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
    partial = sum(series.terms[n].toarray() for n in range(11))
    assert np.max(np.abs(partial - target)) < 1e-9


def _assert_matches_dense_recursion(a, b, n_orders):
    series = bch_terms(a, b, n_orders)
    for n, ref in enumerate(dense_bch_terms(a.toarray(), b.toarray(), n_orders)):
        err = np.linalg.norm(series.terms[n].toarray() - ref)
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
        term = series.terms[n]
        assert (term.nnz == 0) == (name == "qmbs-c"), n
        assert np.all((term.data.imag if n % 2 == 0 else term.data.real) == 0), n


@pytest.mark.parametrize("name", ["pxp", "qmbs-b"])
def test_last_order_skips_zero_bernoulli_entries_exactly(models, name):
    # the last order does not form T(k, N) for B_k = 0 (odd k >= 3); a longer
    # series forms them, and its terms through order N agree bit for bit
    model = models[name]
    chain = build_hamiltonian(model.circuit(8), working_subspace(model, 8))
    longer = bch_terms(chain.a, chain.b, 7)
    for n_orders in (3, 4, 6):
        series = bch_terms(chain.a, chain.b, n_orders)
        for n in range(n_orders + 1):
            term, ref = series.terms[n], longer.terms[n]
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(term, part), getattr(ref, part)), (n_orders, n, part)


def _assert_matches_whole_matrices(chain, n_orders):
    # the representative-row recursion of the tagged layers against the same
    # recursion on untagged dense copies, which runs on every row
    series = bch_terms(chain.a, chain.b, n_orders)
    whole = bch_terms(chain.a.toarray(), chain.b.toarray(), n_orders)
    assert (whole.group_order, whole.rows) == (1, chain.a.shape[0])
    for n, (term, ref) in enumerate(zip(series.terms, whole.terms)):
        err = spla.norm(term - ref)
        assert err <= 1e-12 * spla.norm(ref), (n, err)
    return series


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_representative_rows_match_whole_matrices_on_the_full_space(seed):
    gate = random_phase_gate(np.random.default_rng(seed))
    chain = build_hamiltonian(FloquetCircuit(gate, 8, "stride4"), BasisSubset.full_space(8))
    series = _assert_matches_whole_matrices(chain, 4)
    assert (series.group_order, series.rows) == (2, 136)    # T^4 on 256 states


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), swaps=st.integers(3, 5), pattern=st.integers(0, 15))
def test_representative_rows_match_whole_matrices_on_krylov_subsets(seed, swaps, pattern):
    # a phased gate that swaps a few pairs of window states has a sparse log,
    # and the closure of a seed of period 4 is a T^4-invariant subset of
    # anywhere from one state to nearly all 4096
    rng = np.random.default_rng(seed)
    perm = np.arange(16)
    for x, y in rng.permutation(16).reshape(8, 2)[:swaps]:
        perm[x], perm[y] = y, x
    phases = rng.choice(np.array([1, 1j, -1, -1j]), size=16)
    circuit = FloquetCircuit(PermutationGate(4, tuple(int(v) for v in perm), tuple(phases)), 12, "stride4")
    subset = krylov_subspace(circuit, tile_pattern(format(pattern, "04b"), 12))
    series = _assert_matches_whole_matrices(build_hamiltonian(circuit, subset), 4)
    assert series.group_order in (1, 3)


@pytest.mark.parametrize("name, length", [("pxp", 12), ("pxp-nophase", 12), ("qmbs-a", 8), ("qmbs-b", 12),
                                          ("qmbs-c", 12)])
def test_representative_rows_match_whole_matrices_for_registry_models(models, name, length):
    model = models[name]
    chain = build_hamiltonian(model.circuit(length), working_subspace(model, length))
    series = _assert_matches_whole_matrices(chain, 3)
    assert series.group_order == length // (2 if model.circuit(length).geometry == "stride2" else 4)


def test_matrices_derived_from_a_layer_run_the_trivial_group(models):
    model = models["pxp"]
    chain = build_hamiltonian(model.circuit(12), working_subspace(model, 12))
    assert (chain.a.subset, chain.a.period) == (chain.b.subset, 2)
    tagged = bch_terms(chain.a, chain.b, 3)
    assert (tagged.group_order, tagged.rows) == (6, 60)
    for derived in (1.0 * chain.a, chain.a[np.arange(chain.a.shape[0])], chain.a.toarray()):
        assert getattr(derived, "subset", None) is None
        series = bch_terms(derived, chain.b, 3)
        assert (series.group_order, series.rows) == (1, chain.a.shape[0])
        for term, ref in zip(series.terms, tagged.terms):
            assert spla.norm(term - ref) <= 1e-12 * spla.norm(ref)


def test_false_translation_tag_refused_before_any_product(models, monkeypatch):
    # qmbs-b's stride4 layers commute with T^4, not with T^2, which swaps them
    model = models["qmbs-b"]
    chain = build_hamiltonian(model.circuit(8), BasisSubset.full_space(8))
    layers = [LayerMatrix(m) for m in (chain.a, chain.b)]
    for layer in layers:
        layer.subset, layer.period = chain.a.subset, 2

    def product(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(bch, "_stacked_product", product)
    with pytest.raises(ValueError, match="layer A does not commute with translation by 2 sites"):
        bch_terms(*layers, 2)


def test_pxp_window_commutator_matrix_elements():
    # the commutator of adjacent window terms moves exactly one adjacent pair
    m = load_model("pxp")
    L = 12
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    chain = build_hamiltonian(circuit, sub)
    series = bch_terms(chain.a, chain.b, 1)
    c1 = series.terms[1]
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
    series = BchSeries([zero, zero])
    prof = norm_profile(series, [0, 1])
    assert np.all(prof.orbit_norm == 0)
    assert np.all(prof.leakage_norm == 0)
    assert np.all(prof.generic_norm == 0)


def test_norm_profile_block_accounting(rng):
    dim, l = 12, 3
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    series = BchSeries([mat])
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
    total = series.terms[0] + series.terms[1] + series.terms[2] + series.terms[3]
    assert np.max(np.abs(augmented_hamiltonian(series, 3).toarray() - total.toarray())) < 1e-14
    with pytest.raises(ValueError):
        augmented_hamiltonian(series, 4)


def test_fgr_rate_zero_for_vanishing_coupling():
    dim = 8
    zero = np.zeros((dim, dim), dtype=complex)
    series = BchSeries([zero, zero, zero])
    est = fgr_rate(series, [0, 1], 8, 30.0)
    assert est.rate == 0.0


@pytest.mark.parametrize("bandwidth", [0.0, -3.0])
def test_fgr_rate_refuses_nonpositive_bandwidth(bandwidth):
    zero = np.zeros((8, 8), dtype=complex)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        fgr_rate(BchSeries([zero, zero, zero]), [0, 1], 8, bandwidth)


def test_series_refused_before_an_order_that_does_not_fit(monkeypatch):
    # qmbs-a on the 256-state full space fills in: the largest admission of
    # order 6 counts about 8.9 MiB and that of order 7 about 10.7 MiB, so
    # 10 MiB refuses order 7 before it allocates, and a series to order 6
    # completes
    model = load_model("qmbs-a")
    chain = build_hamiltonian(model.circuit(8), BasisSubset.full_space(8))
    monkeypatch.setattr(dynamics, "available_bytes", lambda: 10 << 20)
    with pytest.raises(dynamics.ResourceLimitError, match="series order 7 needs"):
        bch_terms(chain.a, chain.b, 8)
    assert bch_terms(chain.a, chain.b, 6).max_order == 6


def _traced_admissions(monkeypatch, cap=lambda index: 1 << 50) -> list:
    """Make the index-th admission run against cap(index) less the traced
    current, the memory a process capped there has left.  Returns the list
    of admissions: each one's count, traced level and message, and the
    traced peak since the admission before it."""
    records = []
    admit = dynamics.admit

    def counted(need, what, advice):
        current, peak = tracemalloc.get_traced_memory()
        records.append({"need": need, "level": current, "peak": peak, "what": what})
        tracemalloc.reset_peak()
        admit(need, what, advice)

    monkeypatch.setattr(dynamics, "admit", counted)
    monkeypatch.setattr(dynamics, "available_bytes",
                        lambda: cap(len(records) - 1) - tracemalloc.get_traced_memory()[0])
    return records


def _traced_peak(layers, n_orders: int) -> int:
    tracemalloc.start()
    try:
        bch_terms(*layers, n_orders)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _window_peaks(records: list, end: int) -> list:
    """The traced peak from each admission to the next, or to `end`, the
    peak after the last one."""
    return [record["peak"] for record in records[1:]] + [end]


def test_series_preflight_covers_the_order_it_admits(monkeypatch):
    # qmbs-b on its 1366-state working subspace at L=12 fills in from order
    # to order, and an admission of order 5 holds the traced peak of the
    # series.  With one byte less than the traced growth of that admission
    # left to it, it refuses order 5
    model = load_model("qmbs-b")
    chain = build_hamiltonian(model.circuit(12), working_subspace(model, 12))
    records = _traced_admissions(monkeypatch)
    peaks = _window_peaks(records, _traced_peak((chain.a, chain.b), 5))
    at = int(np.argmax(peaks))
    assert records[at]["what"].startswith("series order 5 ")
    _traced_admissions(monkeypatch, lambda index: peaks[at] - 1 if index == at else 1 << 50)
    with pytest.raises(dynamics.ResourceLimitError, match="series order 5 needs"):
        _traced_peak((chain.a, chain.b), 5)


def _series_layers(name: str, length: int):
    if name == "random":
        circuit = FloquetCircuit(random_phase_gate(np.random.default_rng(2)), length, "stride4")
        subset = BasisSubset.full_space(length)
    else:
        model = load_model(name)
        circuit, subset = model.circuit(length), working_subspace(model, length)
    return build_hamiltonian(circuit, subset)


@pytest.mark.parametrize("name, length, n_orders", [("qmbs-b", 12, 6), ("pxp", 14, 8), ("pxp", 16, 8),
                                                     ("pxp", 18, 2), ("random", 8, 8)])
def test_series_preflight_covers_every_order(monkeypatch, name, length, n_orders):
    # each admission's count is at least the traced growth above its level,
    # up to the next admission or to the end of the series after the last
    # one, for the tagged layers and for untagged copies, which run the
    # trivial group.  The first window starts before `layer_orbits`, which
    # checks tagged layers against translated copies of themselves: before
    # the first admission nothing grows but this harness's bookkeeping
    # (about 1 KB).  pxp's pieces of alternate degree double every other
    # order; the random phased gate's pieces fill the L=8 full space by
    # order 3
    chain = _series_layers(name, length)
    for tagged, layers in ((True, (chain.a, chain.b)), (False, (sp.csr_matrix(chain.a), sp.csr_matrix(chain.b)))):
        records = _traced_admissions(monkeypatch)
        end = _traced_peak(layers, n_orders)
        assert records[0]["peak"] < 4096, (tagged, records[0])
        for record, peak in zip(records, _window_peaks(records, end)):
            assert record["need"] >= peak - record["level"], (tagged, record, peak)


@pytest.mark.parametrize("name, length, n_orders", [("pxp", 14, 8), ("qmbs-b", 12, 6)])
def test_series_that_fits_is_admitted(monkeypatch, name, length, n_orders):
    # with 1.75 times the traced peak of the series as the cap, every
    # admission fits beside what the series holds, as each counts only what
    # it is about to allocate: the series needs about 1.60 (pxp) and 1.31
    # (qmbs-b) times its peak, where a count of everything held needed 2.18
    # and 2.14
    chain = _series_layers(name, length)
    peak = _traced_peak((chain.a, chain.b), n_orders)
    _traced_admissions(monkeypatch, lambda index: int(1.75 * peak))
    _traced_peak((chain.a, chain.b), n_orders)


def test_layers_refused_before_they_are_symmetrised(models, monkeypatch):
    # the admission after the layers' group counts the Hermitian parts of
    # the layers, their sum and their representative rows from the layers'
    # entries: one byte less refuses order 0 before any of them or any
    # product is formed
    model = models["pxp"]
    chain = build_hamiltonian(model.circuit(12), working_subspace(model, 12))
    records = _traced_admissions(monkeypatch)
    _traced_peak((chain.a, chain.b), 2)
    assert records[1]["what"].startswith("series order 0 ") and records[0]["need"] < records[1]["need"]

    def formed(*args, **kwargs):
        raise AssertionError("a layer was symmetrised or a product formed")

    monkeypatch.setattr(dynamics, "available_bytes", lambda: records[1]["need"] - 1)
    monkeypatch.setattr(sp.csr_matrix, "getH", formed)
    monkeypatch.setattr(bch, "_stacked_product", formed)
    with pytest.raises(dynamics.ResourceLimitError, match="series order 0 needs"):
        bch_terms(chain.a, chain.b, 2)


def test_layer_group_refused_before_it_is_built(models, monkeypatch):
    # the first admission counts what `layer_orbits` allocates, for tagged
    # layers the check against their translated copies and the table of the
    # translation's powers: one byte less refuses order 0 before the check
    model = models["pxp"]
    chain = build_hamiltonian(model.circuit(12), working_subspace(model, 12))
    records = _traced_admissions(monkeypatch)
    _traced_peak((chain.a, chain.b), 2)
    assert records[0]["what"].startswith("series order 0 ")

    def reached(*args, **kwargs):
        raise AssertionError("the layers' group was built")

    monkeypatch.setattr(dynamics, "available_bytes", lambda: records[0]["need"] - 1)
    monkeypatch.setattr(bch, "layer_orbits", reached)
    with pytest.raises(dynamics.ResourceLimitError, match="series order 0 needs"):
        bch_terms(chain.a, chain.b, 2)


def test_order_guard():
    a = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        bch_terms(a, a, 13)
    with pytest.raises(ValueError):
        bch_terms(a, np.zeros((3, 3), dtype=complex), 2)
