"""Local commutation rules on orbit states, their counting, and model search.

A rule instance takes three consecutive windows of the circuit (sites p,
p + d, p + 2d with d the window spacing, so the middle window belongs to the
other layer) and powers (s1, s2, s3), and asks whether applying the middle
window's power before or after the two outer powers gives the same result on
an orbit state.  Type I uses gate powers and is an exact yes/no on basis
states; type II uses window-Hamiltonian powers and is scored by the residual
norm of the two resulting vectors.

Instances are enumerated once per translation-equivalence class: shifting a
rule by any lattice translation that maps window positions to window
positions, while mapping the orbit state to an orbit state, reproduces the
same instance.  Fully alternating orbit states therefore contribute a single
site per state, which keeps the totals independent of the chain length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .automaton import FloquetCircuit, apply_floquet_index
from .basis import translate_index, window_bit_shifts
from .gate import PermutationGate, apply_gate_index, permutation_order

PHASE_TOL = 1e-10
TYPE2_TOL = 1e-9


@dataclass(frozen=True)
class RuleInstance:
    """One nontrivial commutation rule: kind 'I' or 'II', first-window site,
    powers (s1, s2, s3) with s2 on the middle window, and the orbit state."""

    kind: str
    site: int
    powers: tuple[int, int, int]
    state_index: int


@dataclass
class RuleReport:
    kind: str
    satisfied: int
    total: int
    residuals: list[float] | None = None

    @property
    def ratio(self) -> tuple[int, int]:
        return (self.satisfied, self.total)

    def to_json(self) -> dict:
        data = {"kind": self.kind, "satisfied": self.satisfied, "total": self.total}
        if self.residuals is not None:
            data["residuals"] = self.residuals
        return data


def count_relevant_rules(l: int, n: int, translation_invariant: bool, length: int) -> int:
    """Nontrivial rule count: s2 != 0 and (s1, s3) != (0, 0).

    Orbits of fully alternating states need one site per state; otherwise
    every second site contributes.
    """
    per_site = (n - 1) * (n * n - 1)
    if translation_invariant:
        return l * per_site
    return l * per_site * (length // 2)


def _power_triples(n: int):
    return [
        (s1, s2, s3)
        for s1, s2, s3 in itertools.product(range(n), repeat=3)
        if s2 != 0 and (s1 != 0 or s3 != 0)
    ]


def _state_site_classes(circuit: FloquetCircuit, orbit_states) -> list[tuple[int, int]]:
    """Representatives (state, first-window site) modulo lattice translations."""
    length = circuit.length
    stride = circuit.site_stride
    sites = circuit.window_sites
    state_set = set(int(s) for s in orbit_states)
    shifts = [a for a in range(0, length, stride)]
    seen = set()
    reps = []
    for state in sorted(state_set):
        for site in sites:
            if (state, site) in seen:
                continue
            reps.append((state, site))
            for a in shifts:
                image = translate_index(state, a, length)
                if image in state_set:
                    target = (site - 1 + a) % length + 1
                    seen.add((image, target))
    return reps


def enumerate_rule_instances(
    circuit: FloquetCircuit, orbit_states, n: int, kind: str = "I"
) -> list[RuleInstance]:
    """All nontrivial rule instances for the orbit, one per equivalence class."""
    triples = _power_triples(n)
    return [
        RuleInstance(kind, site, powers, state)
        for state, site in _state_site_classes(circuit, orbit_states)
        for powers in triples
    ]


def _rule_sites(circuit: FloquetCircuit, first_site: int) -> tuple[int, int, int]:
    d = circuit.site_stride
    length = circuit.length
    return (
        first_site,
        (first_site - 1 + d) % length + 1,
        (first_site - 1 + 2 * d) % length + 1,
    )


def _apply_power(gate, index, phase, site, length, power):
    for _ in range(power):
        index, ph = apply_gate_index(gate, index, site, length)
        phase *= ph
    return index, phase


def check_type1(circuit: FloquetCircuit, state_index: int, rule: RuleInstance) -> bool:
    """Exact check: both orders must give the same basis state and phase."""
    gate = circuit.gate
    length = circuit.length
    s1, s2, s3 = rule.powers
    left, middle, right = _rule_sites(circuit, rule.site)

    x, ph = _apply_power(gate, state_index, 1.0 + 0.0j, middle, length, s2)
    x, ph = _apply_power(gate, x, ph, right, length, s3)
    x, ph = _apply_power(gate, x, ph, left, length, s1)

    y, qh = _apply_power(gate, state_index, 1.0 + 0.0j, right, length, s3)
    y, qh = _apply_power(gate, y, qh, left, length, s1)
    y, qh = _apply_power(gate, y, qh, middle, length, s2)

    return x == y and abs(ph - qh) < PHASE_TOL


def _apply_h_power(vec: dict, h: np.ndarray, site: int, width: int, length: int, power: int) -> dict:
    shifts = window_bit_shifts(site, width, length)
    columns = [
        [(vp, h[vp, v]) for vp in range(h.shape[0]) if abs(h[vp, v]) > 1e-14]
        for v in range(h.shape[1])
    ]
    for _ in range(power):
        out: dict[int, complex] = {}
        for x, amp in vec.items():
            v = 0
            for t, b in enumerate(shifts):
                v |= ((x >> b) & 1) << (width - 1 - t)
            for vp, element in columns[v]:
                y = x
                for t, b in enumerate(shifts):
                    bit = (vp >> (width - 1 - t)) & 1
                    y = (y & ~(1 << b)) | (bit << b)
                out[y] = out.get(y, 0.0) + amp * element
        vec = out
    return vec


def check_type2(
    circuit: FloquetCircuit,
    h_local: np.ndarray,
    state_index: int,
    rule: RuleInstance,
    tol: float = TYPE2_TOL,
) -> float:
    """Residual two-norm between the two orderings of window-Hamiltonian powers."""
    width = circuit.gate.width
    length = circuit.length
    s1, s2, s3 = rule.powers
    left, middle, right = _rule_sites(circuit, rule.site)

    lhs = {state_index: 1.0 + 0.0j}
    lhs = _apply_h_power(lhs, h_local, middle, width, length, s2)
    lhs = _apply_h_power(lhs, h_local, right, width, length, s3)
    lhs = _apply_h_power(lhs, h_local, left, width, length, s1)

    rhs = {state_index: 1.0 + 0.0j}
    rhs = _apply_h_power(rhs, h_local, right, width, length, s3)
    rhs = _apply_h_power(rhs, h_local, left, width, length, s1)
    rhs = _apply_h_power(rhs, h_local, middle, width, length, s2)

    keys = set(lhs) | set(rhs)
    sq = sum(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) ** 2 for k in keys)
    return float(np.sqrt(sq))


def rule_report(
    circuit: FloquetCircuit,
    orbit_states,
    n: int,
    kind: str = "I",
    h_local: np.ndarray | None = None,
    tol: float = TYPE2_TOL,
) -> RuleReport:
    """Count satisfied rules over all inequivalent instances of the orbit."""
    instances = enumerate_rule_instances(circuit, orbit_states, n, kind)
    if kind == "I":
        satisfied = sum(
            1 for r in instances if check_type1(circuit, r.state_index, r)
        )
        return RuleReport("I", satisfied, len(instances))
    if h_local is None:
        from .logmap import principal_log

        h_local = principal_log(circuit.gate).matrix
    residuals = [check_type2(circuit, h_local, r.state_index, r, tol) for r in instances]
    satisfied = sum(1 for r in residuals if r < tol)
    return RuleReport("II", satisfied, len(instances), residuals)


# ---------------------------------------------------------------------------
# Exhaustive search over trailing-qubit-trivial permutation gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConstraints:
    """Search setup: the power range n of the rules, the order filter
    (permutation order must divide `order`), the chain length the rules are
    evaluated on, and whether the seed orbit must be an actual 2-cycle."""

    order: int = 6
    rule_powers: int = 6
    length: int = 8
    require_orbit_cycle: bool = False


@dataclass(frozen=True)
class SearchResult:
    cycles: tuple[tuple[int, ...], ...]
    satisfied: int
    total: int
    order: int
    orbit_is_cycle: bool

    def to_json(self) -> dict:
        return {
            "permutation_cycles": [list(c) for c in self.cycles],
            "satisfied": self.satisfied,
            "total": self.total,
            "order": self.order,
            "orbit_is_cycle": self.orbit_is_cycle,
        }


def lift_three_qubit_permutation(perm3) -> PermutationGate:
    """Embed a permutation of the 8 three-qubit values as a width-4 gate that
    leaves the trailing qubit untouched."""
    perm = [0] * 16
    for v3 in range(8):
        for b in range(2):
            perm[2 * v3 + b] = 2 * perm3[v3] + b
    return PermutationGate(4, tuple(perm), (1.0 + 0.0j,) * 16)


def _perm_order(perm3) -> int:
    seen = [False] * len(perm3)
    out = 1
    for start in range(len(perm3)):
        if seen[start]:
            continue
        l, v = 0, start
        while not seen[v]:
            seen[v] = True
            v = perm3[v]
            l += 1
        out = out * l // gcd(out, l)
    return out


def _neel_orbit_is_cycle(circuit: FloquetCircuit, seed: int) -> bool:
    partner = translate_index(seed, 1, circuit.length)
    x, _ = apply_floquet_index(circuit, seed)
    if x != partner:
        return False
    y, _ = apply_floquet_index(circuit, partner)
    return y == seed


class _FastScorer:
    """Vectorized type-I rule counter for phase-free width-4 gates.

    The fully alternating orbit needs only the rule triple anchored at site 1,
    whose three windows cover sites 1..8; on an 8-site chain the gate actions
    become permutation tables over 256 words, and all power triples evaluate
    by fancy indexing.  Results agree with `rule_report` instance by instance.
    """

    LENGTH = 8

    def __init__(self, n_powers: int):
        triples = np.array(_power_triples(n_powers), dtype=np.int64).reshape(-1, 3)
        self.s1, self.s2, self.s3 = triples[:, 0], triples[:, 1], triples[:, 2]
        self.n_powers = n_powers
        self.idx = np.arange(256, dtype=np.int64)
        self.states = (0b10101010, 0b01010101)

    def score(self, perm16: np.ndarray) -> int:
        if len(self.s1) == 0:
            return 0
        tables = []
        for shift in (4, 2, 0):
            window = (self.idx >> shift) & 0xF
            table = (self.idx & ~(0xF << shift)) | (perm16[window] << shift)
            powers = np.empty((self.n_powers, 256), dtype=np.int64)
            powers[0] = self.idx
            for s in range(1, self.n_powers):
                powers[s] = table[powers[s - 1]]
            tables.append(powers)
        p1, p3, p5 = tables
        satisfied = 0
        for x in self.states:
            lhs = p1[self.s1, p5[self.s3, p3[self.s2, x]]]
            rhs = p3[self.s2, p1[self.s1, p5[self.s3, x]]]
            satisfied += int(np.sum(lhs == rhs))
        return satisfied


def _search_chunk(args):
    start, stop, constraints = args
    from .basis import tile_pattern

    length = constraints.length
    seed = tile_pattern("10", length)
    scorer = _FastScorer(constraints.rule_powers) if length == _FastScorer.LENGTH else None
    total_rules = 2 * len(_power_triples(constraints.rule_powers))
    results = []
    chunk = itertools.islice(itertools.permutations(range(8)), start, stop)
    for perm3 in chunk:
        if constraints.order % _perm_order(perm3) != 0:
            continue
        gate = lift_three_qubit_permutation(perm3)
        circuit = FloquetCircuit(gate, length, "stride4")
        is_cycle = _neel_orbit_is_cycle(circuit, seed)
        if constraints.require_orbit_cycle and not is_cycle:
            continue
        if scorer is not None:
            perm16 = np.asarray(gate.perm, dtype=np.int64)
            satisfied, total = scorer.score(perm16), total_rules
        else:
            orbit_states = [seed, translate_index(seed, 1, length)]
            report = rule_report(circuit, orbit_states, constraints.rule_powers, "I")
            satisfied, total = report.satisfied, report.total
        results.append(
            SearchResult(
                tuple(tuple(c) for c in gate.label_cycles()),
                satisfied,
                total,
                permutation_order(gate),
                is_cycle,
            )
        )
    return results


def search_models(constraints: SearchConstraints = SearchConstraints(), workers: int = 1) -> list[SearchResult]:
    """Exhaustively score the 8! trailing-qubit-trivial phase-free gates.

    Gates whose permutation order does not divide the order filter are
    skipped; survivors are ranked by satisfied rules (descending), ties broken
    by the lexicographic rank of the underlying permutation, so the output is
    deterministic and independent of the worker count.
    """
    total = 40320
    if workers <= 1:
        results = _search_chunk((0, total, constraints))
    else:
        import multiprocessing as mp

        bounds = np.linspace(0, total, workers * 4 + 1, dtype=int)
        chunks = [(int(a), int(b), constraints) for a, b in zip(bounds[:-1], bounds[1:])]
        with mp.Pool(workers) as pool:
            results = [r for chunk in pool.map(_search_chunk, chunks) for r in chunk]
    order_key = {res.cycles: i for i, res in enumerate(results)}
    return sorted(results, key=lambda r: (-r.satisfied, order_key[r.cycles]))
