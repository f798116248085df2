"""Acceptance gate: every module-level reference number at its stated tolerance.

Each test prints one `[criterion NN] name: PASS` line when its assertions
hold; a failure surfaces as a normal pytest failure for that criterion.
Heavy shared objects (the order-8 series on the 2207-state chain, the
symmetry-sector spectra) are built once per session.
"""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from scarforge.basis import BasisSubset, tile_pattern, window_bit_shifts
from scarforge.bch import augmented_hamiltonian, bch_terms, fgr_rate, norm_profile
from scarforge.dynamics import (
    Propagator,
    fidelity_trace,
    first_revival_peak,
    generic_comparison_state,
    local_z_trace,
    pr_trace,
)
from scarforge.hamiltonian import (
    SymmetrySector,
    build_hamiltonian,
    krylov_subspace,
    project_sector,
)
from scarforge.logmap import power_decomposition, principal_log
from scarforge.models import (
    expected_krylov_dimension,
    load_model,
    neel_orbit_states,
    working_subspace,
)
from scarforge.rules import SearchConstraints, rule_report, search_models
from scarforge.spectral import analyze_spectrum, flagged_tower_energies, r_statistic


def report(num, name, ok=True):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def pxp16():
    """PXP chain at L=16 with the series through order 8 (shared by 6, 7, 11)."""
    m = load_model("pxp")
    length = 16
    circuit = m.circuit(length)
    subset = krylov_subspace(circuit, m.orbit_seed(length))
    chain = build_hamiltonian(circuit, subset)
    series = bch_terms(chain.a, chain.b, 8)
    orbit = neel_orbit_states(m, length)
    positions = [subset.position(s) for s in orbit]
    return m, chain, subset, series, positions


def evolve_basis_state(hamiltonian, subset, seed, times):
    prop = Propagator(hamiltonian, subset)
    psi0 = np.zeros(subset.size, dtype=complex)
    psi0[subset.position(seed)] = 1.0
    return prop, prop.evolve(psi0, times)


def test_criterion_01_rule_ratios():
    length = 12
    expected = {"qmbs-a": (70, 350), "qmbs-b": (246, 350), "qmbs-c": (350, 350)}
    for name, ratio in expected.items():
        m = load_model(name)
        rep = rule_report(m.circuit(length), neel_orbit_states(m, length), 6, "I")
        assert rep.ratio == ratio
    pxp = load_model("pxp")
    rep = rule_report(pxp.circuit(length), neel_orbit_states(pxp, length), 3, "II")
    assert rep.ratio == (38, 48)
    report(1, "rule ratios 70/350, 246/350, 350/350, 38/48")


def test_criterion_02_decomposition_coefficients():
    pxp = power_decomposition(load_model("pxp").gate)
    expected4 = np.array(
        [-np.pi / 4, np.pi / 4 + 1j * np.pi / 4, -np.pi / 4, np.pi / 4 - 1j * np.pi / 4]
    )
    assert pxp.order == 4
    assert np.max(np.abs(pxp.coefficients - expected4)) < 1e-12
    assert pxp.reconstruction_error < 1e-9
    expected6 = np.array(
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
        dec = power_decomposition(load_model(name).gate)
        assert dec.order == 6
        assert np.max(np.abs(dec.coefficients - expected6)) < 1e-12
        assert dec.reconstruction_error < 1e-9
    report(2, "window decomposition coefficients at 1e-12")


def test_criterion_03_pxp_identities():
    h = principal_log(load_model("pxp").gate).matrix
    eye2, x_op, p_op = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([0.0, 1.0])
    pxp_window = -np.pi / 2 * np.kron(np.kron(np.kron(p_op, x_op), p_op), eye2)
    assert np.max(np.abs(h - pxp_window)) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(h, 3) - (np.pi**2 / 4) * h)) < 1e-12
    report(3, "pxp window form and cubic closing identity at 1e-12")


def test_criterion_04_effective_dimensions():
    targets = {("pxp", 16): 2207, ("qmbs-a", 12): 4096, ("qmbs-b", 12): 1366, ("qmbs-c", 12): 64}
    for (name, length), want in targets.items():
        m = load_model(name)
        assert expected_krylov_dimension(name, length) == want
        assert working_subspace(m, length).size == want
        if name != "qmbs-a":
            sub = krylov_subspace(m.circuit(length), m.orbit_seed(length))
            assert sub.size == want
    report(4, "closed-form effective dimensions equal the constructed bases")


def _assemble_low_order_reference(subset, length):
    """The closed-form first three series orders, built from spin operators."""
    eye2 = np.eye(2)
    x_op = np.array([[0.0, 1.0], [1.0, 0.0]])
    z_op = np.diag([1.0, -1.0])
    p_op = np.diag([0.0, 1.0])
    sp_op = np.array([[0.0, 0.0], [1.0, 0.0]])
    sm_op = np.array([[0.0, 1.0], [0.0, 0.0]])

    def kron(*ops):
        out = np.array([[1.0 + 0j]])
        for op in ops:
            out = np.kron(out, op)
        return out

    def add_window(target, local, site, width):
        shifts = window_bit_shifts(site, width, length)
        for pos, state in enumerate(subset.states):
            state = int(state)
            value = 0
            for t, b in enumerate(shifts):
                value |= ((state >> b) & 1) << (width - 1 - t)
            column = local[:, value]
            for vp in np.nonzero(np.abs(column) > 1e-14)[0]:
                out = state
                for t, b in enumerate(shifts):
                    bit = (int(vp) >> (width - 1 - t)) & 1
                    out = (out & ~(1 << b)) | (bit << b)

                target[subset.position(out), pos] += column[vp]

    ref = np.zeros((subset.size, subset.size), dtype=complex)
    pi = np.pi
    for site in range(1, length + 1):
        sign = 1.0 if site % 2 == 1 else -1.0
        add_window(ref, (-pi / 2 + pi**3 / 96) * kron(p_op, x_op, p_op), site, 3)
        add_window(
            ref,
            1j * pi**2 / 8 * sign * (kron(p_op, sp_op, sm_op, p_op) - kron(p_op, sm_op, sp_op, p_op)),
            site,
            4,
        )
        add_window(
            ref,
            -(pi**3 / 192) * (kron(p_op, x_op, p_op, z_op) + kron(z_op, p_op, x_op, p_op)),
            site,
            4,
        )
        add_window(
            ref,
            (pi**3 / 48) * (kron(p_op, sp_op, sm_op, sp_op, p_op) + kron(p_op, sm_op, sp_op, sm_op, p_op)),
            site,
            5,
        )
    return ref


def test_criterion_05_low_order_closed_forms():
    m = load_model("pxp")
    length = 12
    circuit = m.circuit(length)
    subset = krylov_subspace(circuit, m.orbit_seed(length))
    chain = build_hamiltonian(circuit, subset)
    series = bch_terms(chain.a, chain.b, 2)
    computed = augmented_hamiltonian(series, 2)
    computed = computed.toarray() if sp.issparse(computed) else computed
    reference = _assemble_low_order_reference(subset, length)
    assert np.max(np.abs(computed - reference)) < 1e-9

    c1 = series.terms[1]
    c1 = c1.toarray() if sp.issparse(c1) else c1
    positions = [subset.position(s) for s in neel_orbit_states(m, length)]
    assert np.linalg.norm(c1[:, positions]) < 1e-10

    # amplitude ratio of the flip-with-sign window to the bare flip window,
    # isolated by matrix elements that differ only in the spectator spins
    x1 = int("111111111111", 2)
    y1 = int("110111111111", 2)
    x2 = int("111101111111", 2)
    y2 = int("110101111111", 2)
    m1 = computed[subset.position(y1), subset.position(x1)]
    m2 = computed[subset.position(y2), subset.position(x2)]
    ratio = abs(m1 - m2) / (2 * abs(m2))
    assert abs(ratio - 0.129) < 0.001
    report(5, "low-order closed forms, vanishing orbit coupling, 0.129 ratio")


def test_criterion_06_golden_rule_rate(pxp16):
    _, _, subset, series, positions = pxp16
    estimate = fgr_rate(series, positions, 16, 30.0)
    assert 0.05 < estimate.rate < 0.2
    report(6, f"golden-rule decay rate {estimate.rate:.3f} within a factor two of 0.1")


def test_criterion_07_nonmonotone_leakage(pxp16):
    _, _, _, series, positions = pxp16
    profile = norm_profile(series, positions)
    leak = profile.leakage_norm
    candidates = np.arange(2, 9)
    n_star = int(candidates[np.argmin(leak[2:9])])
    assert 4 <= n_star <= 8
    assert leak[8] > leak[n_star]

    m = load_model("qmbs-c")
    length = 12
    circuit = m.circuit(length)
    subset = krylov_subspace(circuit, m.orbit_seed(length))
    chain = build_hamiltonian(circuit, subset)
    series_c = bch_terms(chain.a, chain.b, 6)
    pos = [subset.position(s) for s in neel_orbit_states(m, length)]
    profile_c = norm_profile(series_c, pos)
    assert np.max(profile_c.leakage_norm[1:]) < 1e-10
    report(7, f"leakage dips at order {n_star} then grows; exact model never leaks")


def test_criterion_08_exact_revivals():
    m = load_model("qmbs-c")
    length = 12
    circuit = m.circuit(length)
    subset = krylov_subspace(circuit, m.orbit_seed(length))
    chain = build_hamiltonian(circuit, subset)
    times = np.arange(1, 151) * 2.0
    _, result = evolve_basis_state(chain.h, subset, m.orbit_seed(length), times)
    assert np.min(pr_trace(result)) > 1 - 1e-8

    full = BasisSubset.full_space(length)
    chain_full = build_hamiltonian(circuit, full)
    refs = [tile_pattern("10", length), tile_pattern("01", length)]
    analysis = analyze_spectrum(chain_full.h, full, refs)
    towers = flagged_tower_energies(analysis)
    assert len(towers) == length // 2 + 1
    assert np.max(np.abs(np.diff(towers) - np.pi)) < 1e-9
    report(8, "perfect period-two revivals and a pi-spaced flagged tower")


def test_criterion_09_scaling_scan():
    times = np.arange(0.0, 300.0 + 0.025, 0.05)
    window = times > 10.0
    for length in (8, 12, 16):
        m = load_model("pxp")
        circuit = m.circuit(length)
        subset = krylov_subspace(circuit, m.orbit_seed(length))
        chain = build_hamiltonian(circuit, subset)
        _, result = evolve_basis_state(chain.h, subset, m.orbit_seed(length), times)
        pr_min = float(pr_trace(result)[window].min())
        assert 1 / 3 < pr_min * subset.size < 3

    for name in ("qmbs-a", "qmbs-b"):
        m = load_model(name)
        length = 12
        subset = working_subspace(m, length)
        chain = build_hamiltonian(m.circuit(length), subset)
        orbit = neel_orbit_states(m, length)
        prop = Propagator(chain.h, subset)
        seed_psi = np.zeros(subset.size, dtype=complex)
        seed_psi[subset.position(m.orbit_seed(length))] = 1.0
        neel_pr = pr_trace(prop.evolve(seed_psi, times))[window]
        generic = generic_comparison_state(subset, orbit, chain.h)
        gen_psi = np.zeros(subset.size, dtype=complex)
        gen_psi[subset.position(generic)] = 1.0
        generic_pr = pr_trace(prop.evolve(gen_psi, times))[window]
        assert generic_pr.min() < 5.0 / subset.size
        assert neel_pr.max() > 20.0 / subset.size
    report(9, "participation-ratio extrema track the effective dimensions")


def test_criterion_10_sector_spectra_and_gap_ratios(rng):
    sector = SymmetrySector((("S2", 1), ("USM", 1)))
    expectations = (("qmbs-a", 16, 4115), ("qmbs-b", 18, 4863))
    for name, length, count in expectations:
        m = load_model(name)
        subset = working_subspace(m, length)
        chain = build_hamiltonian(m.circuit(length), subset)
        projected, basis = project_sector(chain.h, subset, sector)
        assert basis.size == count
        eigenvalues = np.linalg.eigvalsh(projected)
        assert len(eigenvalues) == count
        mean_r = r_statistic(eigenvalues).mean
        assert 0.50 <= mean_r <= 0.56

    poisson = np.mean(
        [r_statistic(np.sort(rng.uniform(0, 1, 2000))).mean for _ in range(500)]
    )
    assert abs(poisson - 0.386) <= 0.01
    # GOE spectra from the Dumitriu-Edelman tridiagonal beta = 1 model (J. Math.
    # Phys. 43, 5830 (2002)): diagonal N(0, 1), off-diagonals chi_{n-1}, ...,
    # chi_1 over sqrt(2), whose eigenvalues have the law of those of
    # (g + g^T) / 2 for a Gaussian g
    goe_means = []
    for _ in range(100):
        diag = rng.normal(size=1000)
        off = np.sqrt(rng.chisquare(np.arange(999, 0, -1)) / 2.0)
        evals = la.eigvalsh_tridiagonal(diag, off)
        goe_means.append(r_statistic(evals[250:750]).mean)
    goe = float(np.mean(goe_means))
    assert abs(goe - 0.531) <= 0.01
    report(10, f"sector spectra sized 4115/4863 with gap ratios in the level-repulsion band")


def revival_envelope(times, trace, start, period, count):
    peaks = [
        first_revival_peak(times, trace, start + k * period, start + (k + 1) * period)
        for k in range(count)
    ]
    return float(np.mean(peaks))


def test_criterion_11_augmented_revivals(pxp16):
    m, _, subset, series, _ = pxp16
    seed = tile_pattern("01", 16)
    times = np.arange(0.0, 36.0, 0.02)
    envelopes = {}
    for order in (0, 2, 4, 8):
        h_aug = augmented_hamiltonian(series, order)
        _, result = evolve_basis_state(h_aug, subset, seed, times)
        fid = fidelity_trace(result, seed)
        envelopes[order] = revival_envelope(times, fid, 3.0, 3.2, 10)
    assert envelopes[2] > envelopes[0]
    assert envelopes[4] > envelopes[2]
    assert envelopes[8] < envelopes[4]

    m_a = load_model("qmbs-a")
    length = 8
    subset_a = working_subspace(m_a, length)
    chain_a = build_hamiltonian(m_a.circuit(length), subset_a)
    series_a = bch_terms(chain_a.a, chain_a.b, 4)
    seed_a = m_a.orbit_seed(length)
    times_a = np.arange(0.0, 22.0, 0.02)
    env_a = {}
    for order in range(5):
        h_aug = augmented_hamiltonian(series_a, order)
        _, result = evolve_basis_state(h_aug, subset_a, seed_a, times_a)
        env_a[order] = revival_envelope(times_a, fidelity_trace(result, seed_a), 1.0, 2.2, 9)
    for order in range(1, 5):
        assert env_a[order] < env_a[0]
    report(11, "series-corrected revivals strengthen to order four, collapse at eight")


def test_criterion_12_phase_ablation():
    length = 12
    peaks = {}
    for name in ("pxp", "pxp-nophase"):
        m = load_model(name)
        circuit = m.circuit(length)
        subset = krylov_subspace(circuit, m.orbit_seed(length))
        chain = build_hamiltonian(circuit, subset)
        seed = tile_pattern("01", length)
        times = np.arange(0.0, 8.0, 0.02)
        _, result = evolve_basis_state(chain.h, subset, seed, times)
        peaks[name] = first_revival_peak(times, fidelity_trace(result, seed), 1.5, 4.8)
    assert peaks["pxp"] > peaks["pxp-nophase"]
    report(12, f"phased revival {peaks['pxp']:.3f} beats phase-free {peaks['pxp-nophase']:.3f}")


def test_criterion_13_search_reproduction():
    results = search_models(SearchConstraints())
    by_cycles = {r.cycles: r for r in results}
    for name, satisfied in (("qmbs-a", 70), ("qmbs-b", 246), ("qmbs-c", 350)):
        cycles = tuple(tuple(c) for c in load_model(name).gate.label_cycles())
        hit = by_cycles[cycles]
        assert (hit.satisfied, hit.total) == (satisfied, 350)
        assert hit.orbit_is_cycle
    assert results[0].satisfied == 350
    report(13, "search recovers all tabulated gates with exact rule counts")


def test_criterion_14_prethermal_trace_qualitative():
    # local-spin deviations from the microcanonical value outlast the
    # participation-ratio relaxation of a generic state
    m = load_model("pxp")
    length = 12
    subset = working_subspace(m, length)
    chain = build_hamiltonian(m.circuit(length), subset)
    generic = generic_comparison_state(subset, neel_orbit_states(m, length), chain.h)
    prop = Propagator(chain.h, subset)
    times = np.arange(0.0, 300.0, 0.1)
    psi0 = np.zeros(subset.size, dtype=complex)
    psi0[subset.position(generic)] = 1.0
    result = prop.evolve(psi0, times)
    pr = pr_trace(result)
    z_series, z_mc = local_z_trace(prop, psi0, result, 2, 0.4)
    deviation = np.abs(z_series - z_mc) ** 2
    early = (times > 5.0) & (times < 30.0)
    late = times > 150.0
    # many-body relaxation completes early ...
    assert np.mean(pr[early]) < 5.0 / subset.size
    # ... while the local spin still deviates from the microcanonical value
    # and loses less than a factor five of that memory over ten times longer
    assert np.mean(deviation[early]) > 0.01
    assert np.mean(deviation[late]) > 0.2 * np.mean(deviation[early])
    report(14, "local spin memory outlasts participation-ratio relaxation")
