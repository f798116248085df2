"""Local commutation rules on orbit states, their counting, and model search.

A rule instance takes three consecutive windows of the circuit (sites p,
p + d, p + 2d with d the window spacing, so the middle window belongs to the
other layer) and powers (s1, s2, s3), and asks whether applying the middle
window's power before or after the two outer powers gives the same result on
an orbit state.  Type I uses gate powers and is an exact yes/no on basis
states; type II uses window-Hamiltonian powers and is scored by the residual
norm of the two resulting vectors.

Both kinds are evaluated on span words: the m = min(2d + w, L) bits from the
rule's first site on (the whole ring when L < 2d + w).  The three windows act
on no other bit, so the rest of the chain is a spectator that both orderings
leave as it was: their results agree on the chain exactly when they agree on
the span word, and differ by a vector of the same norm.  Gate powers become
index and phase tables over the 2^m words, window-Hamiltonian powers sparse
operators on the 2^m words read off the same tables, and every instance of
a report is evaluated at once.

Instances are enumerated once per translation-equivalence class: shifting a
rule by any lattice translation that maps window positions to window
positions, while mapping the orbit state to an orbit state, reproduces the
same instance.  Fully alternating orbit states therefore contribute a single
site per state, which keeps the totals independent of the chain length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import dynamics
from .automaton import FloquetCircuit
from .basis import set_window, tile_pattern, translate_index, window_value
from .gate import identity_gate
from .logmap import principal_log
from .tolerances import ASSEMBLY_PRUNE, RULE_PHASE_TOL, SEARCH_NODE_GUARD, TYPE2_TOL


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


def enumerate_rule_instances(circuit: FloquetCircuit, orbit_states, n: int) -> tuple[np.ndarray, ...]:
    """All nontrivial rule instances for the orbit, one per equivalence class:
    int64 arrays of the orbit state, the first-window site and the powers
    (s1, s2, s3), s2 on the middle window, one row per instance."""
    classes = np.array(_state_site_classes(circuit, orbit_states), dtype=np.int64).reshape(-1, 2)
    triples = np.array(_power_triples(n), dtype=np.int64).reshape(-1, 3)
    states, sites = np.repeat(classes, len(triples), axis=0).T
    return states, sites, np.tile(triples, (len(classes), 1))


def _span(circuit: FloquetCircuit) -> tuple[int, int, int]:
    """Window stride, window width and span word length m of the rules."""
    stride, width = circuit.site_stride, circuit.gate.width
    return stride, width, min(2 * stride + width, circuit.length)


@lru_cache(maxsize=None)
def _layout(stride: int, width: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The left, middle and right rule windows on the 2^m span words: every
    word's window value, every word with that window zeroed, and every window
    value placed into an empty word."""
    words = np.arange(1 << m, dtype=np.int64)
    sites = [1 + k * stride for k in range(3)]
    layout = (
        np.array([window_value(words, s, width, m) for s in sites]),
        np.array([set_window(words, s, width, m, 0) for s in sites]),
        np.array([set_window(0, s, width, m, np.arange(1 << width)) for s in sites]),
    )
    for table in layout:
        table.flags.writeable = False   # shared by every caller through the cache
    return layout


def _span_words(circuit: FloquetCircuit, states: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Span word of each (state, first-window site) pair."""
    return window_value(states, sites, _span(circuit)[2], circuit.length)


def _type1_hits(layout, perms: np.ndarray, phases: np.ndarray | None, words, powers) -> np.ndarray:
    """hits[g, i]: whether both orderings of gate g's powers give instance i
    the same word and phase; rows of `perms` and `phases` (None when all are
    one) are the gate tables.  Each ordering is a tree grown from every
    distinct span word, one level of all n powers per window in turn."""
    values, cleared, spread = layout
    g, d, dim = len(perms), perms.shape[1], values.shape[1]
    n = int(powers.max(initial=0)) + 1
    k3 = np.arange(3)[:, None]
    moved = spread[k3, perms[:, None, :]].reshape(g, 3 * d)    # value v's image set into window k
    step = (cleared.ravel() | moved[:, (values + d * k3).ravel()]).ravel()
    phase = None if phases is None else phases[:, values.ravel()].ravel()
    base = np.arange(0, 3 * g * dim, 3 * dim)[:, None]          # gate g's (3, dim) step table
    starts, at = np.unique(words, return_inverse=True)

    def tree(order):
        x = np.repeat(starts[None], g, axis=0)
        p = None if phase is None else np.ones(x.shape, dtype=complex)
        for k in order:    # node [s_last, ..., s_first, gate, word]
            x = np.repeat(x[None], n, axis=0)
            p = None if p is None else np.repeat(p[None], n, axis=0)
            for s in range(1, n):
                i = base + k * dim + x[s - 1]
                x[s] = step[i]
                if p is not None:
                    p[s] = p[s - 1] * phase[i]
        return x, p

    lx, lp = tree((1, 2, 0))    # middle, right, left: node [s1, s3, s2]
    rx, rp = tree((2, 0, 1))    # right, left, middle: node [s2, s1, s3]
    agree = lx == rx.transpose(1, 2, 0, 3, 4)
    if phase is not None:
        agree &= np.abs(lp - rp.transpose(1, 2, 0, 3, 4)) < RULE_PHASE_TOL
    s1, s2, s3 = powers.T
    return agree[s1, s3, s2, :, at].T


def _ordered_products(block: np.ndarray, column: np.ndarray, steps, n: int) -> np.ndarray:
    """Each instance's start column under op^e for the (op, e) of `steps` in
    turn, e one power per instance; all n powers of the block are formed."""
    for op, exps in steps:
        stack = [block]
        for _ in range(1, n):
            stack.append(op @ stack[-1])
        column = exps * block.shape[1] + column
        block = np.hstack(stack)
    return block[:, column]


def _span_operators(layout, h_local: np.ndarray) -> list[sp.csr_matrix]:
    """`h_local` on the left, middle and right rule windows, as CSR over the
    span words with sorted column indices: row t holds h_local[vp, v], for
    vp the window value of t, at the word t with v in that window.  Entries
    at or below ASSEMBLY_PRUNE are dropped.  These are the operators
    `hamiltonian.window_sum` builds on the full space of span words, read
    off the `_layout` tables."""
    values, cleared, spread = layout
    keep = np.abs(h_local) > ASSEMBLY_PRUNE
    dim = values.shape[1]
    ops = []
    for k in range(3):
        t, v = np.nonzero(keep[values[k]])
        cols = cleared[k, t] | spread[k, v]
        order = np.lexsort((cols, t))
        indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1)[values[k]])))
        ops.append(sp.csr_matrix((h_local[values[k, t], v][order], cols[order], indptr), shape=(dim, dim)))
    return ops


def _type2_residuals(circuit: FloquetCircuit, h_local: np.ndarray, words, powers) -> np.ndarray:
    """Two-norm of the difference of both orderings of window-Hamiltonian powers."""
    left, middle, right = _span_operators(_layout(*_span(circuit)), h_local)
    n = int(powers.max(initial=0)) + 1
    starts, column = np.unique(words, return_inverse=True)
    block = np.zeros((left.shape[0], len(starts)), dtype=complex)
    block[starts, np.arange(len(starts))] = 1.0
    s1, s2, s3 = powers.T
    lhs = _ordered_products(block, column, ((middle, s2), (right, s3), (left, s1)), n)
    rhs = _ordered_products(block, column, ((right, s3), (left, s1), (middle, s2)), n)
    return np.linalg.norm(lhs - rhs, axis=0)


def rule_outcomes(circuit: FloquetCircuit, instances, kind: str = "I",
                  h_local: np.ndarray | None = None) -> np.ndarray:
    """Per-instance result for the (states, sites, powers) arrays of
    `enumerate_rule_instances`: whether a type-I rule holds, or the residual
    norm of a type-II rule (window Hamiltonian `h_local`, default the gate's
    principal log)."""
    if kind not in ("I", "II"):
        raise ValueError(f"rule kind must be I or II (got {kind!r})")
    states, sites, powers = (np.asarray(a, dtype=np.int64) for a in instances)
    words = _span_words(circuit, states, sites)
    if kind == "I":
        phases = np.array([circuit.gate.phases], dtype=complex)
        phases = phases if np.any(phases != 1) else None    # a phase-free gate keeps every phase at one
        return _type1_hits(_layout(*_span(circuit)), np.array([circuit.gate.perm]), phases, words, powers)[0]
    if h_local is None:
        h_local = principal_log(circuit.gate).matrix
    return _type2_residuals(circuit, h_local, words, powers)


def rule_report(circuit: FloquetCircuit, orbit_states, n: int, kind: str = "I",
                h_local: np.ndarray | None = None) -> RuleReport:
    """Count satisfied rules over all inequivalent instances of the orbit."""
    instances = enumerate_rule_instances(circuit, orbit_states, n)
    outcomes = rule_outcomes(circuit, instances, kind, h_local)
    if kind == "I":
        return RuleReport("I", int(outcomes.sum()), len(outcomes))
    residuals = outcomes.tolist()
    return RuleReport("II", sum(1 for r in residuals if r < TYPE2_TOL), len(outcomes), residuals)


# ---------------------------------------------------------------------------
# Exhaustive search over trailing-qubit-trivial permutation gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConstraints:
    """Search setup: the order filter (permutation order must divide
    `order`) and whether the seed orbit must be an actual 2-cycle.  Rules use
    the powers below `order`: a surviving gate repeats them at every higher
    power."""

    order: int = 6
    require_orbit_cycle: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"search order must be at least 1 (got {self.order})")


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


def lift_three_qubit_permutation(perm3) -> np.ndarray:
    """Embed permutations of the 8 three-qubit values (the last axis) as
    width-4 permutation tables that leave the trailing qubit untouched."""
    perm3 = np.asarray(perm3, dtype=np.int64)
    return (2 * perm3[..., None] + np.arange(2)).reshape(*perm3.shape[:-1], 16)


def _cycle_walk(perms3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """walk[g, v, t] = perm_g^t(v) for t = 0..8, from one array walk over
    all powers of the stack, and the length of the cycle through each v,
    both in the stack's dtype."""
    walk = np.empty((*perms3.shape, 9), dtype=perms3.dtype)
    walk[:, :, 0] = np.arange(8)
    lengths = np.zeros(perms3.shape, dtype=perms3.dtype)
    for t in range(1, 9):
        walk[:, :, t] = np.take_along_axis(perms3, walk[:, :, t - 1], axis=1)
        lengths[(lengths == 0) & (walk[:, :, t] == walk[:, :, 0])] = t
    return walk, lengths


def _cycle_labels(walk: np.ndarray, lengths: np.ndarray) -> list:
    """Label cycles of each lifted gate of a `_cycle_walk`: every nontrivial
    cycle of the three-qubit permutation once per trailing bit."""
    first = (walk.min(axis=2) == np.arange(8)) & (lengths > 1)    # started where phased_cycles starts
    odd, even = (2 * walk[first] + 1).tolist(), (2 * walk[first] + 2).tolist()
    cycles = [(tuple(o[:k]), tuple(e[:k])) for o, e, k in zip(odd, even, lengths[first].tolist())]
    ends = np.cumsum(first.sum(axis=1)).tolist()
    return [sum(cycles[a:b], ()) for a, b in zip([0] + ends, ends)]


# Gates scored per kernel call: the power trees of a block stay a few MB,
# where much larger blocks cost more memory and run no faster.
_GATE_BLOCK = 128


def _search_cost(probe: FloquetCircuit, neel: np.ndarray, order: int, gates: int) -> tuple[int, int]:
    """Bytes a search of this order holds at once, and the power-tree nodes
    it visits scoring `gates` gates: two trees of order^3 nodes per gate and
    distinct span word.  The bytes are one gate block's two int64 trees and
    their agreement mask, and per rule instance seven int64 columns (state,
    site, three powers, span word and its index), the block's hit flags and
    the Python power triple (72 bytes) it is listed from."""
    states, sites = np.array(_state_site_classes(probe, neel.tolist()), dtype=np.int64).T
    trees = order ** 3 * len(np.unique(_span_words(probe, states, sites)))
    rows = len(states) * (order - 1) * (order * order - 1)
    need = (2 * 8 + 1) * trees * _GATE_BLOCK + rows * (7 * 8 + _GATE_BLOCK + 72)
    return need, 2 * trees * gates


def _search_block(perms, walk, lengths, is_cycle, probe, words, powers) -> list[SearchResult]:
    """Search rows for one block of lifted permutation tables, with the rows
    of their `_cycle_walk` and whether their Neel orbit is a 2-cycle, in
    block order."""
    satisfied = _type1_hits(_layout(*_span(probe)), perms, None, words, powers).sum(axis=1)
    orders = np.lcm.reduce(lengths, axis=1).tolist()
    scored = zip(_cycle_labels(walk, lengths), satisfied.tolist(), orders, is_cycle.tolist())
    return [SearchResult(cycles, hits, len(words), order, cycle) for cycles, hits, order, cycle in scored]


def search_models(constraints: SearchConstraints = SearchConstraints(), workers: int = 1) -> list[SearchResult]:
    """Exhaustively score the 8! trailing-qubit-trivial phase-free gates.

    Gates whose permutation order does not divide the order filter are
    skipped, and with `require_orbit_cycle` gates whose Neel orbit is no
    2-cycle; survivors are ranked by satisfied rules (descending), ties kept
    in the lexicographic enumeration order of the underlying permutations, so
    the output is deterministic.  Rules are scored at L = 8, the stride4
    rule span, which gives every longer chain's ratios.  The rule instances
    on the alternating orbit do not depend on the gate: their span words and
    powers are built once, and the survivors are scored on them in
    fixed-size blocks, one array pass per block.  A search whose
    `_search_cost` visits more than SEARCH_NODE_GUARD tree nodes, or holds
    more bytes than are available, raises ResourceLimitError after these
    filters and before the instances are listed.  The search runs in this process;
    `workers` is accepted for callers that still pass it and must be 1.
    """
    if workers != 1:
        raise ValueError(f"the search runs in one process (got workers={workers})")
    length = 8
    probe = FloquetCircuit(identity_gate(4), length, "stride4")
    neel = np.array([tile_pattern(p, length) for p in ("10", "01")])
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(8))), np.int8).reshape(-1, 8)
    # the order filter: a permutation's order is the lcm of its cycle lengths
    walk, lengths = _cycle_walk(perms)
    keep = constraints.order % np.lcm.reduce(lengths, axis=1, dtype=np.int64) == 0
    perms, walk, lengths = lift_three_qubit_permutation(perms[keep]), walk[keep], lengths[keep]
    x, rows = np.repeat(neel[None], len(perms), axis=0), np.arange(len(perms))[:, None]
    for site in probe.first_layer_sites + probe.second_layer_sites:    # one period of the whole stack
        x = set_window(x, site, 4, probe.length, perms[rows, window_value(x, site, 4, probe.length)])
    is_cycle = np.all(x == neel[::-1], axis=1)    # the two Neel states swap
    if constraints.require_orbit_cycle:
        perms, walk, lengths, is_cycle = (a[is_cycle] for a in (perms, walk, lengths, is_cycle))
    what = f"search order {constraints.order} needs about"
    need, nodes = _search_cost(probe, neel, constraints.order, len(perms))
    if nodes > SEARCH_NODE_GUARD:
        raise dynamics.ResourceLimitError(
            f"{what} {nodes:.2g} power-tree nodes, above the bound of {SEARCH_NODE_GUARD:.0e}; lower the order")
    dynamics.admit(need, what, "lower the order")
    states, sites, powers = enumerate_rule_instances(probe, neel.tolist(), constraints.order)
    words = _span_words(probe, states, sites)
    blocks = [slice(i, i + _GATE_BLOCK) for i in range(0, len(perms), _GATE_BLOCK)]
    scored = [_search_block(perms[b], walk[b], lengths[b], is_cycle[b], probe, words, powers) for b in blocks]
    return sorted((r for block in scored for r in block), key=lambda r: -r.satisfied)
