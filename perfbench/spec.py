"""Workload sizes, the memory pre-flight, and the Baseline cross-walk.

Nothing here imports numpy or scarforge, so the launcher can refuse a
mis-sized workload before it starts an interpreter that would allocate.
Sizes are the acceptance dimensions; the workloads check that the library
builds exactly these.
"""

from __future__ import annotations

import os

COMPLEX_BYTES = 16
# The CLI revivals default grid: t from 0 to 300 in steps of 0.05.
DEFAULT_GRID_POINTS = 6001
SERIES_ORDER = 8

# "rep_s": nominal seconds of one repetition on a 2-vCPU x86-64 host, which
# sets how many repetitions a run makes;
# "dense": (dim, how many dim x dim complex matrices are alive at once);
# "history": (output times, dim) of one stored amplitude history.  The dense
# series keeps C_0..C_N, the graded pieces Z_1..Z_{N+1}, the N(N+1)/2
# nested-commutator table entries, and five working copies of A and B.
WORKLOADS = {
    "series-pxp14": {
        "models": ("pxp",),
        "rep_s": 6.6,
        "dense": [(843, 2 * (SERIES_ORDER + 1) + SERIES_ORDER * (SERIES_ORDER + 1) // 2 + 5)],
        "history": [],
    },
    "revivals-pxp16": {
        "models": ("pxp",),
        "rep_s": 15.7,
        "dense": [(2207, 2)],  # the dense copy of H and its eigenvectors
        "history": [(DEFAULT_GRID_POINTS, 2207)],
    },
    "krylov-qmbsb18": {
        "models": ("qmbs-b",),
        "rep_s": 12.5,
        "dense": [(4863, 1)],  # the projected S2+1,USM+1 sector matrix
        "history": [(21, 87382)],  # t <= 1, dt 0.05
    },
    "rules-search": {
        "models": ("qmbs-a", "qmbs-b", "qmbs-c", "pxp"),
        "rep_s": 4.9,
        "dense": [],
        "history": [],
    },
}

# ROADMAP Baseline rows each workload reproduces.
REPRODUCES = {
    "series-pxp14": [
        "criterion 06/07/11 fixture, order-8 series on the dense path "
        "(pxp L=14, 843 states: the same branch as the 2207-state fixture)",
    ],
    "revivals-pxp16": [
        "pxp L=16 revival of the criterion 09 scaling scan: dense eigh of 2207 "
        "and the 6001-point CLI default grid",
    ],
    "krylov-qmbsb18": [
        "qmbs-b L=18 working subspace / assembly / sector projection",
        "qmbs-b L=18 revivals, iterative path: time per output step",
    ],
    "rules-search": [
        "search (8! gates) / type-I+II rule ratios",
    ],
}


def repetitions(workload: str, seconds: float) -> int:
    """Repetitions a run of `seconds` makes: fixed by the arguments, not by how
    fast this run goes, so two runs do the same work and count the same operations."""
    return max(1, int(seconds / WORKLOADS[workload]["rep_s"]))


class MemoryRefusal(RuntimeError):
    """A configuration would hold more bytes than the machine has available."""


def held_bytes(dense=(), history=()) -> int:
    """Computed bytes of the dense matrices and amplitude histories held."""
    total = sum(dim * dim * COMPLEX_BYTES * count for dim, count in dense)
    total += sum(n_times * dim * COMPLEX_BYTES for n_times, dim in history)
    return total


def available_bytes() -> int:
    """The kernel's MemAvailable estimate, else total physical memory."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def preflight(dense=(), history=()) -> int:
    """Bytes the configuration holds; raises MemoryRefusal above what is available."""
    need = held_bytes(dense, history)
    have = available_bytes()
    if need > have:
        raise MemoryRefusal(
            f"configuration holds {need / 1e9:.2f} GB, {have / 1e9:.2f} GB available"
        )
    return need


def not_run() -> list[tuple[str, str]]:
    """Baseline rows deliberately left out of every check, with the reason."""
    grid = (DEFAULT_GRID_POINTS, 87382)
    try:
        preflight(history=[grid])
        verdict = "fits here, but"
    except MemoryRefusal as exc:
        verdict = f"refused by the pre-flight ({exc});"
    return [
        ("Tier-1 suite, 514 s",
         "one run is 514 s and every check repeats each workload 22 times"),
        ("qmbs-b L=18 sector eigvalsh of 4863 levels, 31 s",
         "would triple krylov-qmbsb18; the projection that feeds it is timed"),
        ("qmbs-b L=18 revivals on the CLI default grid (6001 x 87382 amplitudes)",
         f"{verdict} at 184 ms per step the grid is about 1100 s"),
    ]
