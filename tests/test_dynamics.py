import functools
import math
import resource
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import antiunitary_gate, near_antiunitary_hamiltonian, random_phase_gate
from scarforge import dynamics, hamiltonian
from scarforge.automaton import FloquetCircuit
from scarforge.basis import BasisSubset, translate_index
from scarforge.dynamics import (
    CHEBYSHEV_BLOCK,
    COMPLEX_BYTES,
    EvolutionResult,
    NormDriftError,
    Propagator,
    ResourceLimitError,
    chebyshev_coefficients,
    chebyshev_degree,
    fidelity_trace,
    first_revival_peak,
    generic_comparison_state,
    local_z_trace,
    pr_trace,
    z_diagonal,
)
from scarforge.hamiltonian import SymmetrySector, build_hamiltonian, krylov_subspace, sector_group
from scarforge.models import load_model, neel_orbit_states, working_subspace
from scarforge.tolerances import ASSEMBLY_PRUNE, CHEBYSHEV_TAIL_TOL

S2_PLUS = SymmetrySector((("S2", 1),))    # the k = 0 sector, the orbits of S2


@pytest.fixture(scope="module")
def pxp_chain():
    m = load_model("pxp")
    L = 12
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    return build_hamiltonian(circuit, sub), sub, m


def test_time_zero_returns_initial(pxp_chain):
    chain, sub, m = pxp_chain
    psi0 = sub.basis_vector(m.orbit_seed(12))
    res = Propagator(chain.h, sub).evolve(psi0, np.arange(0.0, 1.25, 0.5))
    assert np.allclose(res.amplitudes[0], psi0)


def test_norm_conserved(pxp_chain):
    chain, sub, m = pxp_chain
    psi0 = sub.basis_vector(m.orbit_seed(12))
    res = Propagator(chain.h, sub).evolve(psi0, np.arange(0.0, 50.25, 0.5))
    norms = np.linalg.norm(res.amplitudes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_energy_conserved(pxp_chain):
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[sub.position(m.orbit_seed(12))] = 1.0
    res = prop.evolve(psi0, np.arange(0.0, 30.0, 0.5))
    h = chain.h.toarray()
    energies = np.real(np.einsum("ti,ij,tj->t", res.amplitudes.conj(), h, res.amplitudes))
    assert np.max(np.abs(energies - energies[0])) < 1e-8


def test_eigenstate_has_constant_pr(pxp_chain):
    chain, sub, _ = pxp_chain
    prop = Propagator(chain.h, sub)
    vec = prop.modes[:, 3]
    res = prop.evolve(vec.astype(complex), np.arange(0.0, 10.0, 1.0))
    prs = pr_trace(res)
    assert np.max(np.abs(prs - prs[0])) < 1e-10


def _history(sub, *rows) -> EvolutionResult:
    """A history whose rows are the given amplitude vectors."""
    return EvolutionResult(np.array(rows, dtype=complex), sub, 0.0)


def test_participation_ratio_basics(pxp_chain):
    _, sub, _ = pxp_chain
    basis_state = sub.basis_vector(int(sub.states[5]))
    uniform = np.full(sub.size, 1.0 / np.sqrt(sub.size))
    rng = np.random.default_rng(5)
    amps = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
    amps /= np.linalg.norm(amps)
    # one for a basis state, 1/N for the uniform state, and invariant under
    # a global phase and under relabeling
    pr = pr_trace(_history(sub, basis_state, uniform, uniform * np.exp(0.321j), amps,
                           amps[rng.permutation(sub.size)]))
    assert pr[0] == pytest.approx(1.0)
    assert pr[1] == pytest.approx(1.0 / sub.size)
    assert pr[2] == pytest.approx(pr[1])
    assert pr[4] == pytest.approx(pr[3])


def test_fidelity_basics(pxp_chain):
    _, sub, _ = pxp_chain
    a = sub.basis_vector(int(sub.states[0]))
    b = sub.basis_vector(int(sub.states[1]))
    fid = fidelity_trace(_history(sub, a, b, (a + 1j * b) / np.sqrt(2)), int(sub.states[0]))
    assert fid[0] == pytest.approx(1.0)
    assert fid[1] == 0.0
    assert fid[2] == pytest.approx(0.5)


def test_qmbs_c_exact_period_two():
    m = load_model("qmbs-c")
    L = 12
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    chain = build_hamiltonian(circuit, sub)
    prop = Propagator(chain.h, sub)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[sub.position(m.orbit_seed(L))] = 1.0
    times = np.arange(0.5, 60.0, 0.5)
    res = prop.evolve(psi0, times)
    fid = fidelity_trace(res, m.orbit_seed(L))
    # strict period two: f(t + 2) = f(t) for every sampled t
    assert np.max(np.abs(fid[4:] - fid[:-4])) < 1e-8
    pr = pr_trace(res)
    revive = np.isclose(times % 2.0, 0.0)
    assert np.min(pr[revive]) > 1 - 1e-8


def test_norm_drift_abort(pxp_chain, monkeypatch):
    # the dense path is unitary by construction; a non-Hermitian generator
    # slipped into the iterative path must trip the drift guard
    chain, sub, m = pxp_chain
    broken = chain.h.toarray().astype(complex)
    broken[0, 1] += 0.05
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(broken, sub)
    assert prop.method == "iterative"
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[sub.position(m.orbit_seed(12))] = 1.0
    with pytest.raises(NormDriftError):
        prop.evolve(psi0, np.arange(0.0, 20.0, 1.0))


def test_nan_norm_drift_aborts(pxp_chain):
    # an evolution whose norms come back NaN trips the drift guard on both
    # methods, whose histories and norms come from the one writer: a NaN
    # drift compares false with any bound
    chain, sub, m = pxp_chain
    write = Propagator._write

    def nan_norms(self, *args):
        amps, norms, prs = write(self, *args)
        return amps, np.full_like(norms, np.nan), prs

    for guard in (6000, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "DENSE_GUARD", guard)
            prop = Propagator(chain.h, sub)
            mp.setattr(Propagator, "_write", nan_norms)
            with pytest.raises(NormDriftError, match="nan"):
                prop.evolve(sub.basis_vector(m.orbit_seed(12)), np.arange(0.0, 1.0, 0.1))


def test_time_grid_must_increase(pxp_chain):
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(ValueError):
        prop.evolve(psi0, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("guard", [6000, 0], ids=["dense", "chebyshev"])
def test_evolve_refuses_bad_grids_and_starts_before_any_work(pxp_chain, monkeypatch, guard):
    # an empty, non-finite or two-dimensional grid, and a start of the wrong
    # length or with a non-finite amplitude, raise ValueError before the
    # memory check and before any block is built; a NaN or infinite time
    # would give an all-NaN dense history or an endless Chebyshev window loop
    chain, sub, m = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", guard)
    prop = Propagator(chain.h, sub)
    monkeypatch.setattr(dynamics, "admit", lambda *a: pytest.fail("evolve reached the memory check"))
    psi0 = sub.basis_vector(m.orbit_seed(12))
    for times in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0, -np.inf], [], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="time grid"):
            prop.evolve(psi0, times)
    blank = psi0.astype(complex)
    blank[1] = np.nan
    for start in (psi0[:-1], np.append(psi0, 0.0), blank, np.where(psi0 > 0, np.inf, 0.0)):
        with pytest.raises(ValueError, match="initial state"):
            prop.evolve(start, [0.0, 1.0])
    assert len(prop.blocks) == (0 if prop.method == "iterative" else 6)


def test_chebyshev_path_refuses_negative_times(pxp_chain, monkeypatch):
    chain, sub, _ = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(ValueError):
        Propagator(chain.h, sub).evolve(psi0, [-1.0, 0.0, 1.0])


def test_iterative_propagator_matches_dense(pxp_chain, monkeypatch):
    chain, sub, m = pxp_chain
    seed = m.orbit_seed(12)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[sub.position(seed)] = 1.0
    times = np.arange(0.0, 5.0, 0.5)
    dense = Propagator(chain.h, sub).evolve(psi0, times)
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(chain.h, sub)
    assert prop.method == "iterative"
    iterative = prop.evolve(psi0, times)
    assert np.max(np.abs(dense.amplitudes - iterative.amplitudes)) < 1e-8


def test_local_z_trace_eigenstate_constant(pxp_chain):
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    times = np.arange(0.0, 10.0, 1.0)
    # eigenstate input: expectation never moves
    vec = prop.modes[:, 7].astype(complex)
    res = prop.evolve(vec, times)
    z = z_diagonal(sub, 3)
    series = (np.abs(res.amplitudes) ** 2) @ z
    assert np.max(np.abs(series - series[0])) < 1e-10


@pytest.mark.parametrize("site", [0, 13])
def test_z_diagonal_refuses_site_outside_chain(pxp_chain, site):
    _, sub, _ = pxp_chain
    with pytest.raises(ValueError, match=r"site .* outside 1\.\.12"):
        z_diagonal(sub, site)


def test_local_z_trace_wide_window_is_trace_average(pxp_chain):
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    seed = m.orbit_seed(12)
    psi0 = sub.basis_vector(seed)
    res = prop.evolve(psi0, np.arange(0.0, 5.0, 1.0))
    series, z_mc = local_z_trace(prop, psi0, res, 2, energy_window=1e6)
    z = z_diagonal(sub, 2)
    modes = prop.modes    # built on each read: once here, not once per level
    expected = float(np.mean([np.sum(np.abs(modes[:, k]) ** 2 * z) for k in range(sub.size)]))
    assert z_mc == pytest.approx(expected)
    assert series[0] == pytest.approx(z[sub.position(seed)])


def test_local_z_trace_empty_window(pxp_chain):
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    psi0 = sub.basis_vector(m.orbit_seed(12))
    res = prop.evolve(psi0, [0.0, 1.0])
    with pytest.raises(ValueError):
        local_z_trace(prop, psi0, res, 2, energy_window=-1.0)


def test_first_revival_peak_window():
    times = np.arange(0.0, 10.0, 0.1)
    values = np.cos(times) ** 2
    peak = first_revival_peak(times, values, 2.0, 4.5)
    assert peak == pytest.approx(np.cos(np.pi) ** 2, abs=1e-2)
    with pytest.raises(ValueError):
        first_revival_peak(times, values, 20.0, 30.0)


def test_generic_state_is_deterministic_and_coupled():
    m = load_model("qmbs-a")
    L = 12
    sub = working_subspace(m, L)
    chain = build_hamiltonian(m.circuit(L), sub)
    orbit = neel_orbit_states(m, L)
    g = generic_comparison_state(sub, orbit, chain.h)
    assert g == generic_comparison_state(sub, orbit, chain.h)
    assert g not in orbit and g not in (0, (1 << L) - 1)
    col = chain.h.tocsc()[:, sub.position(g)].toarray().ravel()
    col[sub.position(g)] = 0.0
    assert np.linalg.norm(col) > 1e-8
    assert g == int("100000100010", 2)


def test_qmbs_c_exact_revivals_l8():
    # the exact model revives perfectly: on the 16-state L=8 working
    # subspace the orbit seed's participation ratio returns to 1
    m = load_model("qmbs-c")
    sub = working_subspace(m, 8)
    assert sub.size == 2 ** 4
    times = np.arange(0.0, 60.0 + 0.125, 0.25)
    psi0 = sub.basis_vector(m.orbit_seed(8))
    trace = pr_trace(Propagator(build_hamiltonian(m.circuit(8), sub).h, sub).evolve(psi0, times))
    assert trace[times > 10.0].max() > 1 - 1e-8


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("name", ["pxp", "pxp-nophase", "qmbs-c", "qmbs-a", "qmbs-b"])
def test_propagator_dtype_follows_hamiltonian(name, length):
    # pxp, pxp-nophase and qmbs-c assemble a real H up to floating noise and
    # get real modes; qmbs-a and qmbs-b are truly complex and keep complex ones
    m = load_model(name)
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    real = name in ("pxp", "pxp-nophase", "qmbs-c")
    assert (abs(h.imag).max() <= ASSEMBLY_PRUNE) == real
    if (name, length) == ("qmbs-a", 12):
        # the 4096-state full space: its block eigensolve takes about 1.7 s
        # and `modes` another 1.4 s at a 680 MB peak (2 cores), and criterion
        # 09 runs it already, so only its H is checked here
        return
    prop = Propagator(h, sub)
    assert prop.modes.dtype == (np.float64 if real else np.complex128)


def assert_propagator_matches_expm(h, sub, psi0):
    # oracle: scipy's dense matrix exponential at a few times, whichever
    # eigensolve the propagator picked for this H
    prop = Propagator(h, sub)
    assert prop.method == "dense"
    assert np.isrealobj(prop.modes) == bool(np.all(np.abs(np.imag(h)) <= ASSEMBLY_PRUNE))
    assert_evolution_matches_expm(prop, h, psi0, np.array([0.0, 0.37, 2.5, 9.0]))


def assert_evolution_matches_expm(prop, h, psi0, times):
    res = prop.evolve(psi0, times)
    for t, amps in zip(times, res.amplitudes):
        expected = scipy.linalg.expm(-1j * t * h) @ psi0
        assert np.max(np.abs(amps - expected)) < 1e-10


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dense_propagator_matches_expm_for_random_gates(seed):
    # a random phased gate gives a complex H, and its real part is a
    # real-symmetric H on the same space: each example checks both paths
    rng = np.random.default_rng(seed)
    gate = random_phase_gate(rng)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(gate, 8, "stride4"), sub).h.toarray()
    psi0 = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
    psi0 /= np.linalg.norm(psi0)
    assert_propagator_matches_expm(h, sub, psi0)
    assert_propagator_matches_expm(h.real, sub, psi0)


@pytest.mark.parametrize(("name", "length"), [("qmbs-a", 8), ("qmbs-b", 10), ("qmbs-b", 12)])
def test_antiunitary_propagator_matches_expm(name, length):
    # qmbs-a and qmbs-b have Theta = K F: the k = 0 and M/2 blocks are solved
    # in their real basis and rotated back, the blocks k > M/2 come from
    # k < M/2 through F.  Oracles: the action of the matrix exponential of
    # the whole H (scipy's expm_multiply, no blocks) on a random state, which
    # has weight in every block, and eigenpairs from the block vectors
    m = load_model(name)
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    prop = Propagator(h, sub)
    assert sorted(b.momentum for b in prop.blocks) == list(range(prop.order))
    assert [b.basis.rotation is not None for b in prop.blocks] == [2 * b.momentum % prop.order == 0
                                                                   for b in prop.blocks]
    rng = np.random.default_rng(length)
    psi0 = random_state(rng, sub.size)
    times = np.array([0.0, 0.37, 2.5, 9.0])
    for t, amps in zip(times, prop.evolve(psi0, times).amplitudes):
        assert np.max(np.abs(amps - scipy.sparse.linalg.expm_multiply(-1j * t * h.tocsc(), psi0))) < 1e-10
    modes = prop.modes
    assert np.max(np.abs(h @ modes - modes * prop.energies)) < 1e-10
    assert np.max(np.abs(modes.conj().T @ modes - np.eye(sub.size))) < 1e-10


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_antiunitary_propagator_matches_expm_for_random_gates(seed):
    # on the L=8 full space (M = 4): Theta = K F maps k to -k, so k = 0, 1, 2
    # are solved and k = 3 comes from k = 1; k = 0 and 2 are solved real,
    # and block evolution of a random state matches expm
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(antiunitary_gate(rng), 8, "stride4"), sub).h
    assume(abs(h.imag).max() > ASSEMBLY_PRUNE)
    prop = Propagator(h, sub)
    assert [b.momentum for b in prop.blocks] == [0, 1, 3, 2]
    assert [b.basis.rotation is not None for b in prop.blocks] == [True, False, False, True]
    assert_evolution_matches_expm(prop, h.toarray(), random_state(rng, sub.size), np.array([0.37, 2.5]))


def test_propagator_keeps_complex_block_the_rotation_leaves_complex():
    # the k = 2 block of this H passes Theta detection but not the rotated
    # block's imaginary check: it is solved complex, k = 0 real, and
    # evolution still matches expm
    h, sub = near_antiunitary_hamiltonian()
    prop = Propagator(h, sub)
    assert [(b.momentum, b.basis.rotation is not None) for b in prop.blocks] == [
        (0, True), (1, False), (3, False), (2, False)]
    rng = np.random.default_rng(5)
    assert_evolution_matches_expm(prop, h.toarray(), random_state(rng, sub.size), np.array([0.37, 2.5]))


def test_dense_propagator_matches_expm_pxp(pxp_chain):
    chain, sub, m = pxp_chain
    h = chain.h.toarray()
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[sub.position(m.orbit_seed(12))] = 1.0
    assert_propagator_matches_expm(h, sub, psi0)
    rng = np.random.default_rng(12)
    psi0 = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
    assert_propagator_matches_expm(h, sub, psi0 / np.linalg.norm(psi0))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_iterative_propagator_matches_expm_for_random_gates(seed):
    # the iterative path on a truly complex H, forced by lowering the guard,
    # on a grid whose first step starts away from t = 0
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h
    psi0 = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
    psi0 /= np.linalg.norm(psi0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        prop = Propagator(h, sub)
    assert prop.method == "iterative"
    assert_evolution_matches_expm(prop, h.toarray(), psi0, np.array([0.37, 2.5, 9.0]))


def test_history_refused_before_allocation(pxp_chain, monkeypatch):
    # 6001 times x 322 states x 16 bytes of history alone is 31 MB; with
    # 4 MB available the call refuses before building it or any chunk
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    psi0 = sub.basis_vector(m.orbit_seed(12))
    times = np.arange(0.0, 300.025, 0.05)
    monkeypatch.setattr(dynamics, "available_bytes", lambda: 4 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            prop.evolve(psi0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert prop.evolve(psi0, times[:50]).amplitudes.shape == (50, sub.size)


def test_available_bytes_respects_address_space_limit(pxp_chain, monkeypatch):
    # under a finite RLIMIT_AS soft limit the estimate is at most the address
    # space the process may still map, the limit less its VmSize: with 4 MB
    # left, the 31 MB history of a 6001-point grid is refused
    chain, sub, m = pxp_chain
    uncapped = dynamics.available_bytes()
    cap = dynamics._proc_bytes("/proc/self/status", "VmSize:") + (4 << 20)

    def getrlimit(which):
        assert which == resource.RLIMIT_AS
        return cap, resource.RLIM_INFINITY

    monkeypatch.setattr(resource, "getrlimit", getrlimit)
    assert 0 < dynamics.available_bytes() <= 4 << 20 < uncapped
    with pytest.raises(ResourceLimitError, match="GB available"):
        Propagator(chain.h, sub).evolve(sub.basis_vector(m.orbit_seed(12)), np.arange(0.0, 300.025, 0.05))


def test_real_mode_coefficients_make_no_square_temporary(pxp_chain):
    # real block vectors multiply the real and imaginary parts of the start
    # apart, instead of promoting the 322 x 322 vectors to a complex
    # temporary; a Z field on one site breaks S2, so one block holds all of H
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h.toarray() + np.diag(0.3 * z_diagonal(sub, 3)), sub)
    (block,) = prop.blocks
    assert np.isrealobj(block.vectors) and block.vectors.shape == (sub.size, sub.size)
    rng = np.random.default_rng(11)
    basis = sub.basis_vector(m.orbit_seed(12))
    generic = rng.normal(size=sub.size) + 1j * rng.normal(size=sub.size)
    for psi0 in (basis, generic):
        tracemalloc.start()
        try:
            prop.block_coefficients(psi0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sub.size**2 * 8
    assert np.array_equal(prop.block_coefficients(basis)[0], block.vectors.conj().T @ basis)
    assert np.allclose(prop.block_coefficients(generic)[0], block.vectors.conj().T @ generic, rtol=0, atol=1e-12)


def coefficient_tables(half_width, times, windows):
    """Entries of the three tables (the samples' phases and exponents, the
    samples and their FFT; 2.5 of them traced at once) that
    `chebyshev_coefficients` is counted as holding, for as many outputs as
    the longest window has, on the FFT length 2 (K + ceil(x) + 32) of the
    longest span x = a * dt."""
    x = half_width * max(times[hi - 1] - start for start, _, hi in windows)
    longest = max(hi - lo for _, lo, hi in windows)
    return 3 * longest * 2 * (dynamics.chebyshev_degree(x) + math.ceil(x) + 32)


def test_history_and_chebyshev_block_refused_before_allocation(pxp_chain, monkeypatch):
    # a start with weight in every momentum runs in the trivial group's
    # block, built with the propagator.  The call holds the history, the
    # block's Chebyshev vectors and the buffer of their products, its
    # outputs over the longest window, one chunk of that window's unused
    # slot rows (its squared parts), squared moduli and scaled rows, all
    # over the whole space, the longest window's coefficient tables, the
    # writer's slot indices and each time's norm and participation
    # ratio: one entry
    # short of that, it refuses before building any; with exactly that
    # available it runs
    chain, sub, m = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(chain.h, sub)
    assert prop.method == "iterative"
    psi0 = random_state(np.random.default_rng(5), sub.size)
    times = np.arange(0.0, 5.0, 0.05)
    half_width = dynamics.ChebyshevOperator.of(chain.h).half_width
    reach = dynamics.CHEBYSHEV_WINDOW / half_width
    windows = list(dynamics._chebyshev_windows(times, reach))
    longest = max(hi - lo for _, lo, hi in windows)
    assert len(windows) == 4
    rows = min(longest, dynamics.HISTORY_CHUNK // sub.size)
    work = (2 * CHEBYSHEV_BLOCK * sub.size + longest * sub.size + rows * 3 * sub.size
            + coefficient_tables(half_width, times, windows) + sub.size + len(times))
    need = (len(times) * sub.size + work) * COMPLEX_BYTES
    monkeypatch.setattr(dynamics, "available_bytes", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            prop.evolve(psi0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < CHEBYSHEV_BLOCK * sub.size * COMPLEX_BYTES
    monkeypatch.setattr(dynamics, "available_bytes", lambda: need)
    assert prop.evolve(psi0, times).amplitudes.shape == (len(times), sub.size)
    assert prop.blocks == []


@pytest.mark.parametrize("name, length", [("pxp", 12), ("qmbs-b", 12), ("pxp", 16)])
def test_chebyshev_block_peak_within_its_count(name, length, monkeypatch):
    # the Neel start of a fresh iterative propagator runs in its k = 0
    # block; the traced peak of the evolve, the block's construction
    # included, is at most the count it was admitted on.  Without the
    # coefficient tables of the longest window that count read 0.96 of the
    # peak at pxp L=12
    m = load_model(name)
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(h, sub)
    needs = []
    admit = dynamics.admit
    monkeypatch.setattr(dynamics, "admit", lambda need, *a: needs.append(need) or admit(need, *a))
    tracemalloc.start()
    try:
        prop.evolve(sub.basis_vector(m.orbit_seed(length)), np.arange(0.0, 20.0, 0.05))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [b.momentum for b in prop.blocks] == [0]
    assert peak <= needs[0]


def test_history_and_momentum_chunk_refused_before_allocation(pxp_chain, monkeypatch):
    # the dense path holds the history and one time chunk of block work:
    # the writer's (time, plane, slot, orbit) rows, their transform when a
    # momentum other than 0 has weight, and the squared moduli of the
    # chunk's history rows; the cached phase block of every energy set
    # that runs, plus a chunk's own phase block, the one it replaces, its
    # phases and their two real planes; the weights of every run over all
    # orbits and one block's scaled vectors; the writer's slot indices and
    # each time's norm and participation ratio.  A Neel start runs the
    # k = 0 block alone, a real start with weight in every momentum the
    # blocks k <= M/2, each conjugate pair in one run.  One byte short of
    # that, the call refuses before building any of it; with exactly that
    # available it runs, in several chunks, and holds no more than that
    # beyond a few O(dim) index and coefficient arrays
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    assert prop.order == 6
    spread = np.random.default_rng(8).normal(size=sub.size).astype(complex)
    times = np.arange(0.0, 300.025, 0.05)
    orbits = len(prop.group.sizes)
    rows = dynamics.HISTORY_CHUNK // (orbits * prop.order)
    assert 2 * rows < len(times)
    for psi0, runs, gathered in (
        (sub.basis_vector(m.orbit_seed(12)), prop.blocks[:1], orbits),
        (spread / np.linalg.norm(spread), [b for b in prop.blocks if 2 * b.momentum <= prop.order],
         2 * orbits * prop.order),
    ):
        levels = [len(b.energies) for b in runs]
        work = (rows * (gathered + sub.size + sum(levels) + 4 * max(levels)) + (sum(levels) + max(levels)) * orbits
                + sub.size + len(times))
        need = (len(times) * sub.size + work) * COMPLEX_BYTES
        monkeypatch.setattr(dynamics, "available_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                prop.evolve(psi0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(times) * sub.size  # a sixteenth of the history
        monkeypatch.setattr(dynamics, "available_bytes", lambda: need)
        tracemalloc.start()
        try:
            amps = prop.evolve(psi0, times).amplitudes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert amps.shape == (len(times), sub.size)
        assert peak <= need + 64 * sub.size


def test_pr_trace_in_row_chunks_equals_one_reduction(pxp_chain, monkeypatch):
    # a ragged split into 37-row chunks gives the same bits as reducing the
    # whole history at once: for the participation ratios the writer takes
    # along with the norms, and, for a history evolve did not write, for
    # the C-ordered history evolve writes and an F-ordered one alike
    chain, sub, _ = pxp_chain
    monkeypatch.setattr(dynamics, "HISTORY_CHUNK", 37 * sub.size)
    res = Propagator(chain.h, sub).evolve(random_state(np.random.default_rng(3), sub.size), np.arange(0.0, 20.0, 0.05))
    amps = res.amplitudes
    want = np.sum((amps.real**2 + amps.imag**2) ** 2, axis=1)
    assert res.pr is not None and np.array_equal(pr_trace(res), want)
    for amps in (res.amplitudes, np.asfortranarray(res.amplitudes)):
        got = pr_trace(EvolutionResult(amps, sub, res.norm_drift))
        assert np.array_equal(got, np.sum((amps.real**2 + amps.imag**2) ** 2, axis=1))


def test_local_z_trace_microcanonical_from_blocks(pxp_chain):
    # the microcanonical value comes from the block eigenvectors, without
    # building the dim x dim modes, and equals the average over the full
    # eigh's eigenvectors in the window
    chain, sub, m = pxp_chain
    prop = Propagator(chain.h, sub)
    psi0 = sub.basis_vector(generic_comparison_state(sub, neel_orbit_states(m, 12), chain.h))
    res = prop.evolve(psi0, np.arange(0.0, 5.0, 1.0))
    tracemalloc.start()
    try:
        _, z_mc = local_z_trace(prop, psi0, res, 2, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sub.size**2 * 8
    energies, modes = np.linalg.eigh(chain.h.toarray())
    mean_energy = np.sum(np.abs(modes.conj().T @ psi0) ** 2 * energies)
    window = np.abs(energies - mean_energy) <= 0.2
    assert np.count_nonzero(window) > 1
    want = np.mean(z_diagonal(sub, 2) @ np.abs(modes[:, window]) ** 2)
    assert abs(z_mc - want) < 1e-12


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_momentum_blocks_match_full_space_for_random_gates(seed):
    # oracles on the L=8 full space for a random phased gate's complex H and
    # its real part, both of which commute with S2 (order 4): the block
    # spectra together are the full spectrum; block evolution of a random
    # state, over several time chunks, matches expm; the lazily built modes
    # are orthonormal eigenpairs, real for the real H.  A single-site Z field
    # breaks S2, and that H takes the one-block path and still matches expm.
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h.toarray()
    psi0 = random_state(rng, sub.size)
    times = np.array([0.0, 0.37, 2.5, 9.0])
    field = np.diag(0.3 * z_diagonal(sub, 3))
    for dense in (h, h.real):
        prop = Propagator(dense, sub)
        assert prop.order == 4
        levels = np.sort(np.concatenate([b.energies for b in prop.blocks]))
        assert np.max(np.abs(levels - np.linalg.eigvalsh(dense))) < 1e-10
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "HISTORY_CHUNK", 2 * len(prop.group.sizes) * prop.order)
            assert_evolution_matches_expm(prop, dense, psi0, times)
        modes = prop.modes
        assert np.isrealobj(modes) == np.isrealobj(dense)
        assert np.max(np.abs(dense @ modes - modes * prop.energies)) < 1e-10
        assert np.max(np.abs(modes.conj().T @ modes - np.eye(sub.size))) < 1e-10
        broken = Propagator(dense + field, sub)
        assert broken.order == 1 and len(broken.blocks) == 1
        assert_evolution_matches_expm(broken, dense + field, psi0, times)


def test_evolution_reports_norm_drift(pxp_chain):
    # on both methods, for a Neel start and one with weight in every
    # momentum, the reported drift is the history's own, bit for bit: each
    # row's squared moduli, re^2 + im^2, summed pairwise along the row
    chain, sub, m = pxp_chain
    times = np.arange(0.0, 20.0, 0.5)
    for guard in (dynamics.DENSE_GUARD, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "DENSE_GUARD", guard)
            prop = Propagator(chain.h, sub)
        for psi0 in (sub.basis_vector(m.orbit_seed(12)), random_state(np.random.default_rng(3), sub.size)):
            res = prop.evolve(psi0, times)
            amps = np.ascontiguousarray(res.amplitudes)
            norms = np.sqrt(np.sum(amps.real**2 + amps.imag**2, axis=1))
            assert res.norm_drift == np.max(np.abs(norms - np.linalg.norm(psi0)))
            assert 0.0 <= res.norm_drift < 1e-12


def test_history_is_c_ordered_on_both_methods(pxp_chain):
    # both methods write one C-ordered (n_times, dim) history, under the S2
    # group and under the trivial group of an H whose field breaks S2, for a
    # Neel start and one with weight in every momentum
    chain, sub, m = pxp_chain
    times = np.arange(0.0, 5.0, 0.5)
    for h in (chain.h, chain.h + sp.diags(0.3 * z_diagonal(sub, 3))):
        for guard in (dynamics.DENSE_GUARD, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "DENSE_GUARD", guard)
                prop = Propagator(h, sub)
            for psi0 in (sub.basis_vector(m.orbit_seed(12)), random_state(np.random.default_rng(3), sub.size)):
                amps = prop.evolve(psi0, times).amplitudes
                assert amps.shape == (len(times), sub.size) and amps.flags.c_contiguous


def test_chebyshev_degree_tail_within_tolerance():
    # the bound's tail past the chosen degree, summed term by term, and the
    # true Bessel tail both stay within the tolerance
    for x in np.logspace(-3, 3, 61):
        degree = chebyshev_degree(x)
        k = np.arange(degree + 1, degree + 400)
        bound = 2.0 * math.fsum(np.exp(k * math.log(x / 2.0) - scipy.special.gammaln(k + 1.0)))
        assert bound <= CHEBYSHEV_TAIL_TOL
        assert 2.0 * np.sum(np.abs(scipy.special.jv(k, x))) <= CHEBYSHEV_TAIL_TOL
    assert chebyshev_degree(0.0) == 0


def test_chebyshev_degree_refuses_non_finite_arguments():
    # no tail bound holds for NaN or +inf, so no search for a degree may start
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            chebyshev_degree(x)


def test_chebyshev_coefficients_match_bessel_functions():
    # (2 - delta_k0) (-i)^k J_k(x) from one FFT, against scipy's J_k: one
    # x per call at its own degree, and all of them in one call at the
    # degree of the largest, as a window asks for them
    xs = np.array([0.0, 0.05, 1.0, 7.3, 25.0, 31.25])

    def bessel(x, degree):
        k = np.arange(degree + 1)
        return np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4] * scipy.special.jv(k, x)

    for x in xs:
        degree = chebyshev_degree(x)
        assert np.max(np.abs(chebyshev_coefficients(np.array([x]), degree)[0] - bessel(x, degree))) < 1e-14
    degree = chebyshev_degree(xs[-1])
    got = chebyshev_coefficients(xs, degree)
    assert got.shape == (len(xs), degree + 1)
    assert max(np.max(np.abs(row - bessel(x, degree))) for x, row in zip(xs, got)) < 1e-14


def count_phase_blocks(monkeypatch) -> list:
    """Record the level count of every phase block the dense path computes."""
    made = []
    compute = dynamics._phase_block

    def spy(energies, offsets, *out):
        made.append(len(energies))
        return compute(energies, offsets, *out)

    monkeypatch.setattr(dynamics, "_phase_block", spy)
    return made


def test_dense_chunks_with_unequal_offsets_match_expm(pxp_chain, monkeypatch):
    # a grid of two spacings over chunks of 7 times: the chunks of the first
    # spacing reuse the first chunk's phase blocks, those that straddle the
    # change or lie past it compute their own, and every time matches expm
    chain, sub, _ = pxp_chain
    h = chain.h.tocsc()
    prop = Propagator(chain.h, sub)
    psi0 = random_state(np.random.default_rng(21), sub.size)
    times = np.concatenate((np.arange(0.0, 2.1, 0.05), 2.1 + 0.13 * np.arange(21)))
    monkeypatch.setattr(dynamics, "HISTORY_CHUNK", 7 * len(prop.group.sizes) * prop.order)
    made = count_phase_blocks(monkeypatch)
    res = prop.evolve(psi0, times)
    sets = len({id(b.energies) for b in prop.blocks})
    chunks = -(-len(times) // 7)
    assert sets < len(made) < chunks * sets
    for t, amps in zip(times, res.amplitudes):
        assert np.max(np.abs(amps - scipy.sparse.linalg.expm_multiply(-1j * t * h, psi0))) < 1e-12


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dense_arange_grid_over_many_chunks_matches_expm_for_random_gates(seed):
    # a random phased gate's H on the L=8 full space and a 2000-point
    # arange grid in chunks of 37 times: every chunk reuses the first
    # chunk's phase blocks, and sampled times match expm
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h.toarray()
    prop = Propagator(h, sub)
    psi0 = random_state(rng, sub.size)
    times = np.arange(0.0, 100.0, 0.05)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "HISTORY_CHUNK", 37 * len(prop.group.sizes) * prop.order)
        made = count_phase_blocks(mp)
        amps = prop.evolve(psi0, times).amplitudes
    assert len(made) == len({id(b.energies) for b in prop.blocks})
    for i in (*rng.choice(len(times), size=4, replace=False), len(times) - 1):
        assert np.max(np.abs(amps[i] - scipy.linalg.expm(-1j * times[i] * h) @ psi0)) < 1e-11


def test_neel_start_skips_the_momentum_transform_and_matches_expm(pxp_chain, monkeypatch):
    # the Neel state is S2-invariant: only the k = 0 block has weight, its
    # orbit amplitudes are the member amplitudes, the inverse DFT (the one
    # explicit matmul of the dense path beside the product of each chunk's
    # phases with the k = 0 block's weights) never runs, and the history
    # over several chunks matches expm
    chain, sub, m = pxp_chain
    h = chain.h.tocsc()
    prop = Propagator(chain.h, sub)
    psi0 = sub.basis_vector(m.orbit_seed(12))
    assert [b.momentum for b, c in zip(prop.blocks, prop.block_coefficients(psi0)) if np.any(c)] == [0]
    times = np.arange(0.0, 30.0, 0.05)
    monkeypatch.setattr(dynamics, "HISTORY_CHUNK", 97 * len(prop.group.sizes) * prop.order)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(args[1].shape) or matmul(*args, **kwargs))
    amps = prop.evolve(psi0, times).amplitudes
    monkeypatch.undo()
    weights = (len(prop.blocks[0].energies), len(prop.group.sizes))
    assert calls == [weights] * math.ceil(len(times) / 97)
    for i in range(0, len(times), 25):
        assert np.max(np.abs(amps[i] - scipy.sparse.linalg.expm_multiply(-1j * times[i] * h, psi0))) < 1e-12


@functools.lru_cache(maxsize=None)
def oracle_hamiltonian(case: str, seed: int) -> tuple[np.ndarray, BasisSubset]:
    """A registry model's H at L=10 or 12 (real: pxp, pxp-nophase,
    qmbs-c), or a random phased gate's H on the L=8 full space, complex
    ("random") or its real part ("random-real")."""
    if case.startswith("random"):
        sub = BasisSubset.full_space(8)
        h = build_hamiltonian(FloquetCircuit(random_phase_gate(np.random.default_rng(seed)), 8, "stride4"), sub).h
        return (h.real if case == "random-real" else h).toarray(), sub
    name, length = case.rsplit("-", 1)
    m = load_model(name)
    sub = working_subspace(m, int(length))
    return build_hamiltonian(m.circuit(int(length)), sub).h.toarray(), sub


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(["pxp-10", "pxp-12", "pxp-nophase-12", "qmbs-c-12", "random", "random-real"]),
       seed=st.integers(0, 7), real=st.booleans(), rows=st.integers(3, 40))
def test_dense_producer_matches_one_eigh_of_h(case, seed, real, rows):
    # the dense producer against e^{-iHt} psi0 from one eigh of the whole H:
    # a real H with a real start runs one real GEMM per conjugate pair of
    # momenta, any other pair one complex GEMM per block.  The grid changes
    # step, so that chunks of `rows` times past the change do not share the
    # first chunk's offsets.  The history matches to 1e-12, and the
    # participation ratios the writer took with the norms are the history's
    # own, bit for bit
    h, sub = oracle_hamiltonian(case, seed)
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=sub.size) + (0.0 if real else 1j * rng.normal(size=sub.size))
    psi0 = np.asarray(psi0 / np.linalg.norm(psi0), dtype=complex)
    times = np.concatenate((np.arange(0.0, 3.0, 0.05), 3.0 + 0.37 * np.arange(1, 30)))
    prop = Propagator(h, sub)
    assert prop.method == "dense" and prop.order > 1
    assert prop._plan(psi0).real == (real and np.isrealobj(h))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "HISTORY_CHUNK", rows * len(prop.group.sizes) * prop.order)
        res = prop.evolve(psi0, times)
    energies, modes = np.linalg.eigh(h)
    want = (np.exp(-1j * np.multiply.outer(times, energies)) * (modes.conj().T @ psi0)) @ modes.T
    amps = res.amplitudes
    assert np.max(np.abs(amps - want)) < 1e-12
    assert np.array_equal(pr_trace(res), np.sum((amps.real**2 + amps.imag**2) ** 2, axis=1))


@st.composite
def irregular_grids(draw):
    """A grid that starts after t = 0, holds a 1e-3 step next to a step of
    10, and crosses one gap of 60 that spans dozens of Chebyshev windows,
    each of them one recurrence."""
    start = draw(st.floats(0.01, 2.0))
    steps = draw(st.lists(st.sampled_from((1e-3, 0.05, 0.7, 10.0)), min_size=2, max_size=10))
    steps.insert(draw(st.integers(0, len(steps))), 60.0)
    at = draw(st.integers(0, len(steps)))
    steps[at:at] = [1e-3, 10.0, 1e-3]
    return start + np.concatenate(([0.0], np.cumsum(steps)))


def assert_chebyshev_matches_dense(h, sub, psi0, times):
    dense = Propagator(h, sub)
    assert dense.method == "dense"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        chebyshev = Propagator(h, sub)
    assert chebyshev.method == "iterative"
    want = dense.evolve(psi0, times).amplitudes
    got = chebyshev.evolve(psi0, times).amplitudes
    assert np.max(np.abs(got - want)) < 1e-10


def random_state(rng, dim):
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi0 / np.linalg.norm(psi0)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), times=irregular_grids())
def test_chebyshev_matches_dense_for_random_gates(seed, times):
    # a truly complex H on the L=8 full space
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h
    assert_chebyshev_matches_dense(h, sub, random_state(rng, sub.size), times)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), times=irregular_grids())
def test_chebyshev_matches_dense_pxp(pxp_chain, seed, times):
    # the real pxp H at L=12, whose dense path uses real modes
    chain, sub, _ = pxp_chain
    rng = np.random.default_rng(seed)
    assert_chebyshev_matches_dense(chain.h, sub, random_state(rng, sub.size), times)


@pytest.mark.parametrize("end, windows", [(1.2, 1), (1.3, 2)])
def test_chebyshev_last_window_takes_the_rest_of_the_grid(pxp_chain, monkeypatch, end, windows):
    # a grid ending within 1.25 windows of the start is one stretched window
    # instead of a full window and a short one; a little further out, the
    # second window starts at the first one's last output
    chain, sub, _ = pxp_chain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        reach = dynamics.CHEBYSHEV_WINDOW / Propagator(chain.h, sub).whole.chebyshev.half_width
    spans = []
    run_window = dynamics.ChebyshevOperator.window

    def spy(self, psi, dts, out, block):
        spans.append(dts[-1])
        run_window(self, psi, dts, out, block)

    monkeypatch.setattr(dynamics.ChebyshevOperator, "window", spy)
    times = np.linspace(0.0, end * reach, 41)
    assert_chebyshev_matches_dense(chain.h, sub, random_state(np.random.default_rng(7), sub.size), times)
    assert len(spans) == windows
    assert spans[-1] <= dynamics.CHEBYSHEV_STRETCH * reach


def short_period_state(rng, sub, period):
    """A random state on the subset states whose S2 orbit period divides
    `period`: momentum k has weight only when k * period = 0 (mod M), and
    every other momentum is exactly empty."""
    basis, _, _ = sector_group(sub, S2_PLUS)
    slots = np.flatnonzero(period % basis.sizes[basis.orbit] == 0)
    psi0 = np.zeros(sub.size, dtype=complex)
    psi0[slots] = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
    return psi0 / np.linalg.norm(psi0)


def assert_blocks_match_dense(h, sub, psi0, times, momenta):
    """The iterative propagator runs psi0 in the blocks of `momenta` alone,
    and its history matches the dense full-space propagator to 1e-10."""
    dense = Propagator(h, sub)
    assert dense.method == "dense"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        prop = Propagator(h, sub)
    got = prop.evolve(psi0, times)
    assert sorted(b.momentum for b in prop.blocks) == momenta
    assert np.max(np.abs(got.amplitudes - dense.evolve(psi0, times).amplitudes)) < 1e-10
    assert got.norm_drift < 1e-10
    return prop


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from((8, 12)), times=irregular_grids())
def test_momentum_block_chebyshev_matches_dense_for_random_gates(seed, length, times):
    # a truly complex H on the full space (M = 4 or 6) and a start on the
    # orbits of one proper divisor period of M: the blocks of the momenta
    # k with k * period = 0 (mod M) run their own recurrences, gathered in
    # chunks of 7 times, on grids with gaps of dozens of windows
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(length)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), length, "stride4"), sub).h
    order = length // 2
    period = int(rng.choice([p for p in range(1, order) if order % p == 0]))
    momenta = [k for k in range(order) if k * period % order == 0]
    width = len(sector_group(sub, S2_PLUS)[0].sizes) * order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "HISTORY_CHUNK", 7 * width)
        assert_blocks_match_dense(h, sub, short_period_state(rng, sub, period), times, momenta)


@pytest.mark.parametrize("name, length", [
    ("pxp", 12), ("pxp-nophase", 12), ("qmbs-a", 8), ("qmbs-b", 12), ("qmbs-c", 12),
])
def test_momentum_block_chebyshev_matches_dense_for_models(name, length):
    # the Neel state lies in k = 0 alone; a start on the orbits of period
    # M/2 has weight in k = 0 and 2 (real and complex characters alike)
    m = load_model(name)
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    times = np.arange(0.0, 30.0, 0.05)
    assert_blocks_match_dense(h, sub, sub.basis_vector(m.orbit_seed(length)), times, [0])
    order = length // 2
    psi0 = short_period_state(np.random.default_rng(length), sub, order // 2)
    assert_blocks_match_dense(h, sub, psi0, times, [k for k in range(order) if k * (order // 2) % order == 0])


def test_neel_start_builds_the_zero_momentum_block_alone(pxp_chain, monkeypatch):
    # the S2 check is made once, at construction; the k = 0 block on the
    # first Neel evolve, and kept: a second evolve repeats the history bit
    # for bit and checks nothing again
    chain, sub, m = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    checks, built = [], []
    deviation, block = hamiltonian._conjugation_deviation, dynamics.orbit_block
    monkeypatch.setattr(hamiltonian, "_conjugation_deviation", lambda *a: checks.append(len(a[1])) or deviation(*a))
    monkeypatch.setattr(dynamics, "orbit_block", lambda *a: built.append(a[1].size) or block(*a))
    prop = Propagator(chain.h, sub)
    assert checks == [sub.size] and built == [] and prop.order == 6
    psi0 = sub.basis_vector(m.orbit_seed(12))
    times = np.arange(0.0, 20.0, 0.05)
    first = prop.evolve(psi0, times).amplitudes
    assert prop.evolve(psi0, times).amplitudes.tobytes() == first.tobytes()
    zero, _, _ = sector_group(sub, S2_PLUS)
    assert [b.momentum for b in prop.blocks] == [0] and prop.blocks[0].basis.size == zero.size == 60
    assert checks == [sub.size] and built == [60]


@pytest.mark.parametrize("guard", [6000, 0], ids=["dense", "chebyshev"])
def test_propagator_builds_one_orbit_table_and_one_s2_check(pxp_chain, monkeypatch, guard):
    # the constructor calls `sector_group` once, which maps S2 over the
    # subset once and from that one slot map builds the S2 orbit table and
    # checks [H, S2] once; every momentum block of either method, over
    # starts in k = 0, in k = 0, 2, 4, in k = 0, 3 and in every momentum,
    # is derived from that table
    chain, sub, m = pxp_chain
    rng = np.random.default_rng(5)
    starts = [sub.basis_vector(m.orbit_seed(12)), short_period_state(rng, sub, 3),
              short_period_state(rng, sub, 2), random_state(rng, sub.size)]
    monkeypatch.setattr(dynamics, "DENSE_GUARD", guard)
    maps, tables, checks = [], [], []
    translate = hamiltonian.translate_index
    group, deviation = dynamics.sector_group, hamiltonian._conjugation_deviation
    monkeypatch.setattr(hamiltonian, "translate_index", lambda *a: maps.append(a[1]) or translate(*a))
    monkeypatch.setattr(dynamics, "sector_group", lambda *a, **k: tables.append(a) or group(*a, **k))
    monkeypatch.setattr(hamiltonian, "_conjugation_deviation", lambda *a: checks.append(a) or deviation(*a))
    prop = Propagator(chain.h, sub)
    for psi0 in starts:
        prop.evolve(psi0, np.arange(0.0, 2.0, 0.1))
    assert maps == [2] and len(tables) == 1 and len(checks) == 1 and prop.order == 6
    assert sorted(b.momentum for b in prop.blocks) == ([0, 2, 3, 4] if guard == 0 else list(range(6)))


def whole_space_history(h, psi0, times):
    """The whole-space Chebyshev recurrence, window by window along the grid:
    the reference the trivial group's block reproduces bit for bit."""
    op = dynamics.ChebyshevOperator.of(h)
    amps = np.zeros((len(times), len(psi0)), dtype=complex)
    block = np.empty((2, CHEBYSHEV_BLOCK, len(psi0)), dtype=complex)
    psi = psi0
    for start, lo, hi in dynamics._chebyshev_windows(times, dynamics.CHEBYSHEV_WINDOW / op.half_width):
        op.window(psi, times[lo:hi] - start, amps[lo:hi], block)
        psi = amps[hi - 1]
    return amps


def assert_whole_space_recurrence(h, sub, psi0, times):
    """The iterative propagator runs psi0 in the trivial group's block alone,
    builds no momentum block, and repeats the reference byte for byte."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        prop = Propagator(h, sub)
    got = prop.evolve(np.asarray(psi0, dtype=complex), times).amplitudes
    assert got.tobytes() == whole_space_history(h, np.asarray(psi0, dtype=complex), times).tobytes()
    assert prop.blocks == [] and prop.whole.basis.size == sub.size
    return prop


def test_start_in_every_momentum_runs_the_whole_space_recurrence(pxp_chain, monkeypatch):
    # every window runs on the trivial group's block, whose operator is
    # the whole H, and no momentum block is made; the history is the
    # whole-space recurrence's, byte for byte
    chain, sub, _ = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(chain.h, sub)
    ran = []
    window = dynamics.ChebyshevOperator.window
    monkeypatch.setattr(dynamics.ChebyshevOperator, "window", lambda self, *a: ran.append(self) or window(self, *a))
    psi0 = random_state(np.random.default_rng(11), sub.size)
    times = np.arange(0.0, 20.0, 0.05)
    got = prop.evolve(psi0, times).amplitudes
    assert ran and all(op is prop.whole.chebyshev for op in ran)
    assert prop.blocks == [] and prop.whole.basis.size == sub.size and prop.order == 6
    monkeypatch.undo()
    assert got.tobytes() == whole_space_history(chain.h, psi0, times).tobytes()
    assert np.max(np.abs(got - Propagator(chain.h, sub).evolve(psi0, times).amplitudes)) < 1e-10


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), times=irregular_grids())
def test_start_in_every_momentum_repeats_the_whole_space_recurrence_for_random_gates(seed, times):
    # a truly complex H on the L=8 full space, grids with long gaps
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h
    assert_whole_space_recurrence(h, sub, random_state(rng, sub.size), times)


def momentum_projection(sub, psi, order, momenta):
    """sum_k P_k psi over `momenta`, normalized, with P_k = (1/M) sum_j
    e^{2 pi i j k / M} S2^j, numerically."""
    shift = sub.find(translate_index(sub.states, 2, sub.length))
    out = np.zeros(sub.size, dtype=complex)
    for j in range(order):
        out += sum(np.exp(2j * np.pi * j * k / order) for k in momenta) / order * psi
        psi = psi[shift]
    return out / np.linalg.norm(out)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from((8, 12)))
def test_start_projected_onto_two_momenta_builds_their_blocks_alone(seed, length):
    # a random state projected with numpy onto two S2 momenta keeps
    # roundoff in the others, far below MOMENTUM_COMMUTE_TOL: it builds
    # exactly the two blocks and matches the dense propagator
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(length)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), length, "stride4"), sub).h
    order = length // 2
    momenta = sorted(int(k) for k in rng.choice(order, size=2, replace=False))
    psi0 = momentum_projection(sub, random_state(rng, sub.size), order, momenta)
    times = np.arange(0.0, 10.0, 0.05)
    prop = assert_blocks_match_dense(h, sub, psi0, times, momenta)
    kept = np.arange(order) * prop.group.sizes[:, None] % order == 0
    left = np.delete(prop._momentum_sums(psi0) * kept, momenta, axis=1)
    assert np.any(left)    # the other momenta are not exactly empty


def test_momentum_blocks_fall_back_to_the_whole_space():
    # the S2-invariant state 0 on an H whose field breaks S2 by 2e-7, and on
    # a subset that S2 does not preserve, takes the trivial group on both
    # methods: it runs in the whole space and matches expm; the block path
    # would miss the field by about 1e-6
    rng = np.random.default_rng(4)
    full = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), full).h.toarray()
    h += np.diag(1e-7 * z_diagonal(full, 3))
    part = BasisSubset(np.arange(40), 8)
    g = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    times = np.array([0.0, 0.37, 2.5, 9.0])
    for ham, sub in ((h, full), ((g + g.conj().T) / 2, part)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "DENSE_GUARD", 0)
            prop = Propagator(ham, sub)
        assert_evolution_matches_expm(prop, ham, sub.basis_vector(0), times)
        assert prop.order == 1 and prop.blocks == [] and prop.whole.basis is prop.group
        assert Propagator(ham, sub).order == 1    # the dense path's group


def test_history_and_block_windows_refused_before_allocation(pxp_chain, monkeypatch):
    # the block path holds the history, the Chebyshev vectors and product
    # buffer of its largest block, every block's outputs over the longest
    # window, one chunk of that window's slot rows (the k = 0 block's
    # alone, with no transform), squared moduli and scaled block rows, the
    # longest window's coefficient tables, the writer's slot indices and
    # each time's norm and participation ratio, all on the
    # windows of H's interval, which holds the block's.  One entry short, a fresh
    # propagator makes its k = 0 block and refuses before any of the rest;
    # with exactly that available it runs
    chain, sub, m = pxp_chain
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 0)
    prop = Propagator(chain.h, sub)
    psi0 = sub.basis_vector(m.orbit_seed(12))
    times = np.arange(0.0, 5.0, 0.05)
    zero, _, _ = sector_group(sub, S2_PLUS)
    size = zero.size
    half_width = dynamics.ChebyshevOperator.of(chain.h).half_width
    reach = dynamics.CHEBYSHEV_WINDOW / half_width
    windows = list(dynamics._chebyshev_windows(times, reach))
    longest = max(hi - lo for _, lo, hi in windows)
    assert len(windows) == 4
    rows = min(longest, dynamics.HISTORY_CHUNK // (len(zero.sizes) * 6))
    work = (2 * CHEBYSHEV_BLOCK * size + longest * size + rows * (len(zero.sizes) + sub.size + size)
            + coefficient_tables(half_width, times, windows) + sub.size + len(times))
    need = (len(times) * sub.size + work) * COMPLEX_BYTES
    monkeypatch.setattr(dynamics, "available_bytes", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            prop.evolve(psi0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [b.momentum for b in prop.blocks] == [0]
    assert peak < len(times) * sub.size * COMPLEX_BYTES / 4
    monkeypatch.setattr(dynamics, "available_bytes", lambda: need)
    assert prop.evolve(psi0, times).amplitudes.shape == (len(times), sub.size)


def assert_block_intervals_inside_h(h, sub, rng):
    """A start in each momentum alone builds that momentum's block; every
    block's Chebyshev interval lies inside H's, and every block's spectrum,
    solved densely for blocks of at most 600 orbits, inside its interval."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_GUARD", 0)
        prop = Propagator(h, sub)
    psi = random_state(rng, sub.size)
    for k in range(prop.order):
        prop.evolve(momentum_projection(sub, psi, prop.order, [k]), [0.0])
    assert sorted(b.momentum for b in prop.blocks) == list(range(prop.order))
    whole = prop.whole.chebyshev
    slack = 1e-12 * whole.half_width
    for b in prop.blocks:
        op = b.chebyshev
        assert whole.centre - whole.half_width - slack <= op.centre - op.half_width
        assert op.centre + op.half_width <= whole.centre + whole.half_width + slack
        if b.basis.size <= 600:    # the scaled operator 2 (H_k - b) / a has its spectrum in [-2, 2]
            assert np.max(np.abs(np.linalg.eigvalsh(op.scaled.toarray()))) <= 2.0 + 1e-12
    return prop


@pytest.mark.parametrize("name, length", [
    ("pxp", 16), ("pxp-nophase", 16), ("qmbs-a", 12), ("qmbs-b", 16), ("qmbs-c", 16),
])
def test_block_intervals_lie_inside_h_interval_for_models(name, length):
    # each momentum block is H in one sector, so its Gershgorin interval is
    # clipped to H's; the k = 0 block of pxp and qmbs-b is wider unclipped
    m = load_model(name)
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    prop = assert_block_intervals_inside_h(h, sub, np.random.default_rng(length))
    if name in ("pxp", "qmbs-b"):
        zero = dynamics.ChebyshevOperator.of(dynamics.orbit_block(h, prop.blocks[0].basis))
        assert prop.blocks[0].momentum == 0 and zero.half_width > prop.whole.chebyshev.half_width


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from((8, 12)))
def test_block_intervals_lie_inside_h_interval_for_random_gates(seed, length):
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(length)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), length, "stride4"), sub).h
    assert_block_intervals_inside_h(h, sub, rng)


def test_qmbs_b_zero_momentum_block_runs_h_interval_degree():
    # qmbs-b at L=18 (87,382 states) is past the dense limit; the Neel start
    # runs in its k = 0 block, whose Gershgorin half-width 27.08 is clipped
    # to H's 25.02, so the t <= 1 grid is one window of degree 58 (62 on the
    # block's own interval)
    m = load_model("qmbs-b")
    sub = working_subspace(m, 18)
    prop = Propagator(build_hamiltonian(m.circuit(18), sub).h, sub)
    assert prop.method == "iterative"
    degrees = []
    window = dynamics.ChebyshevOperator.window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics.ChebyshevOperator, "window", lambda self, psi, dts, *a: degrees.append(
            chebyshev_degree(self.half_width * dts[-1])) or window(self, psi, dts, *a))
        res = prop.evolve(sub.basis_vector(m.orbit_seed(18)), np.arange(0.0, 1.025, 0.05))
    assert [b.momentum for b in prop.blocks] == [0]
    assert prop.blocks[0].chebyshev.half_width == pytest.approx(25.02, abs=0.01)
    assert degrees == [58] and res.norm_drift < 1e-12


@pytest.mark.parametrize("start", ["neel", "random"])
def test_chebyshev_steps_longer_than_a_window_match_dense(pxp_chain, monkeypatch, start):
    # a step of 2 exceeds pxp L=12's window of about 1.3: every window holds
    # one output and is one recurrence across the whole step, in the k = 0
    # block (Neel) and in the whole space (random), and both match dense
    chain, sub, m = pxp_chain
    psi0 = sub.basis_vector(m.orbit_seed(12)) if start == "neel" else random_state(np.random.default_rng(9), sub.size)
    times = np.arange(0.0, 40.0 + 1.0, 2.0)
    spans = []
    window = dynamics.ChebyshevOperator.window
    monkeypatch.setattr(dynamics.ChebyshevOperator, "window",
                        lambda self, psi, dts, *a: spans.append(len(dts)) or window(self, psi, dts, *a))
    assert_chebyshev_matches_dense(chain.h, sub, psi0, times)
    assert 2.0 > dynamics.CHEBYSHEV_WINDOW / dynamics.ChebyshevOperator.of(chain.h).half_width
    assert spans == [1] * (len(times) - 1) + [spans[-1]] and sum(spans) == len(times)
