"""Time evolution, revival traces, and local-observable diagnostics.

`Propagator(h, subset).evolve(psi0, times)` is the one way to evolve a
state.  The propagator decides its group once, at construction, from one
call of `hamiltonian.sector_group`, the one place that builds the group.
When the subset is invariant under S2 (translation by two sites, of order
M = L / gcd(L, 2)) and [H, S2] is at most MOMENTUM_COMMUTE_TOL, the group is
S2: its orbits, with their sizes and the S2 power taking each slot to its
representative, are the S2 = +1 sector basis (`group`), built once, and each
of the M momentum blocks of H takes its basis from it
(`hamiltonian.momentum_basis`; Sandvik, arXiv:1101.3281).  Otherwise the
group is the trivial one, of order 1, and its single block is the whole H.
`evolve` runs three steps on both methods.  Its plan (`_plan`) takes the
orbit sums of psi0 in every momentum from one DFT over the S2 powers of
each orbit, and pairs each occupied block with the coefficients of psi0 in
it; a momentum is occupied when the norm of psi0's part in it exceeds
MOMENTUM_COMMUTE_TOL ||psi0||, so an S2-invariant start such as the Neel
state touches the k = 0 block alone.  The method's producer evolves the
blocks one chunk of times after another into the time-major slot rows of
one writer (`_write`), which brings their amplitudes on the orbit
representatives back to the subset slots, through one inverse DFT over the
momenta of each orbit, batched over the chunk's times and skipped when only
k = 0 has weight (`_OrbitGather`), with one np.take per chunk into a
C-ordered (n_times, dim) history.  In one pass over each chunk it squares
the moduli for each time's norm and sums their squares for its
participation ratio, which `pr_trace` returns without reading the history.

The two methods differ in how a block evolves.  `dense_fits` is the one
dense limit, read by the propagator, by `spectral.analyze_spectrum` and by
the `rstat` and `revivals --site` commands.

Within it, the propagator diagonalizes every block once and evaluates
e^{-iHt} exactly on the whole time grid.  A float64 H
(`hamiltonian.build_hamiltonian` assembles pxp, pxp-nophase and qmbs-c as
real) is propagated as real.  When H has an antiunitary symmetry Theta = K P
(`hamiltonian.find_antiunitary`: complex conjugation K for a real H, with a
spin flip for qmbs-a and qmbs-b), the k = 0 and M/2 blocks are solved as
real-symmetric matrices in the real basis of Theta and their vectors
rotated back to the orbit sums.  As P commutes with S2, Theta then maps the
k block to the -k block, and only the momenta k <= M/2 are solved: the -k
vectors are the complex conjugates of the k vectors, with rows permuted and
signed by P.  Over chunks of the time grid, each occupied block maps the
chunk's phases through its eigenvectors, scaled by psi0's coefficients, in
one matrix product straight into the writer's rows; every chunk of an
evenly spaced grid shares one phase block (`_dense_rows`).  For a real H and
a real psi0, the -k block's vectors and coefficients are the conjugates of
the k block's, so with W = vectors diag(coefficients) and Z the phases,
[Re W; Im W] Z gives A and B with Y_k = A + iB and Y_-k = A - iB: one real
product per conjugate pair of momenta, half the flops of two complex ones,
and a real inverse DFT (2 cos(theta) A - 2 sin(theta) B).  `energies` are
sorted over all blocks (`level_order` sorts the blocks' levels taken in
turn); `modes`, the eigenvectors in the subset basis (real for a real H,
from sqrt(2) Re and sqrt(2) Im of a momentum pair), are built on each read.

Above the limit, each block expands e^{-iHt} in Chebyshev polynomials of
its rescaled operator (H - b)/a (Tal-Ezer and Kosloff, J. Chem. Phys. 81,
3967 (1984)), where [b - a, b + a] is the block's Gershgorin interval
clipped to H's: a momentum block is H in one sector, so its spectrum lies
inside H's interval as well.  A start that occupies some momenta but not
all runs in the momentum blocks it occupies, each built on first use as the
CSR `hamiltonian.orbit_block`, and kept.  A start that occupies every
momentum, and every start under the trivial group, runs in the trivial
group's block, whose operator is the whole H, built with the propagator.
The windows depend on the grid and H alone: output times are grouped into
windows of a*dt <= CHEBYSHEV_WINDOW for H's half-width a, the last one
stretched to end the grid, and every window holds at least one output, so a
gap longer than a window is one recurrence.  As every block's interval lies
inside H's, each block runs one three-term recurrence per window from its
orbit-sum state and reads every output time in it off the same Chebyshev
vectors (dense output; `_chebyshev_rows`).  Their coefficients come from
one FFT (`chebyshev_coefficients`) and the products are added with numpy's
matmul, so the path loads neither scipy.special nor scipy's BLAS; the
degree (`chebyshev_degree`) leaves a tail of at most CHEBYSHEV_TAIL_TOL per
window.  The trivial group's block adds its outputs into the history rows
themselves.

Before allocating, `evolve` refuses a call whose amplitude history and
working set (one chunk of the writer's recombination; beside it one time
chunk of the dense block evolution with the cached phase blocks and the
runs' weights, or for the Chebyshev blocks the vectors and the buffer of
their products, every block's outputs over the longest window and that
window's coefficient tables) would not fit in the available memory.  The
writer's and the dense producer's arrays come from one allocation
(`_Scratch`).  Unitarity is monitored along every trace, the worst drift is
reported in the result, and drift beyond NORM_DRIFT_ABORT, or NaN, aborts.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .basis import BasisSubset, bit_of
from .hamiltonian import (
    SectorBasis,
    find_antiunitary,
    momentum_basis,
    momentum_kept,
    orbit_block,
    orbit_images,
    sector_block,
    sector_group,
    trivial_basis,
)
from .tolerances import (
    CHEBYSHEV_TAIL_TOL,
    COUPLING_TOL,
    DENSE_GUARD,
    MOMENTUM_COMMUTE_TOL,
    NORM_DRIFT_ABORT,
)

DEFAULT_DT = 0.05
DEFAULT_TMAX = 300.0
COMPLEX_BYTES = 16
CHEBYSHEV_WINDOW = 25.0  # largest a*dt one Chebyshev recurrence covers
CHEBYSHEV_STRETCH = 1.25  # the last window stretches this many windows to end the grid
CHEBYSHEV_BLOCK = 16     # Chebyshev vectors added into the history per matrix product
HISTORY_CHUNK = 1 << 19  # complex entries of one time chunk of working arrays over the history


class NormDriftError(RuntimeError):
    """Evolved state lost unit norm beyond the abort threshold."""


class ResourceLimitError(RuntimeError):
    """A call would exceed the dense dimension guard or the available memory."""


def dense_fits(levels: int) -> bool:
    """Whether a dense eigensolve of `levels` levels is admitted: at most DENSE_GUARD."""
    return levels <= DENSE_GUARD


def _proc_bytes(path: str, key: str) -> int | None:
    """The `key: N kB` line of a /proc file in bytes, or None; read unbuffered,
    as the series admits, and so reads this, before each of its allocations."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = b"\n" + fh.read()
    except OSError:
        return None
    at = text.find(b"\n" + key.encode())
    return None if at < 0 else int(text[at + 1 + len(key):].split(None, 1)[0]) * 1024


def available_bytes() -> int:
    """The kernel's MemAvailable estimate, else total physical memory; under
    a finite RLIMIT_AS soft limit, at most that limit less this process's
    VmSize, the address space it may still map."""
    have = _proc_bytes("/proc/meminfo", "MemAvailable:")
    if have is None:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    if cap != resource.RLIM_INFINITY:
        have = min(have, cap - (_proc_bytes("/proc/self/status", "VmSize:") or 0))
    return have


def admit(need: int, what: str, advice: str) -> None:
    """Raise ResourceLimitError when `need` bytes exceed `available_bytes()`,
    which already excludes this process's memory: `need` is what the caller
    is about to allocate, not what it holds."""
    have = available_bytes()
    if need > have:
        raise ResourceLimitError(f"{what} {need / 1e9:.3g} GB, {have / 1e9:.2f} GB available; {advice}")


@dataclass(frozen=True)
class EvolutionResult:
    """The amplitude history of one evolved state over the subset basis."""

    amplitudes: np.ndarray  # shape (n_times, dim)
    subset: BasisSubset
    norm_drift: float  # worst | ||psi(t)|| - ||psi0|| | along the trace
    pr: np.ndarray | None = None  # sum_x |psi_x(t)|^4 of each row, taken by the writer


def _chunk_rows(width: int) -> int:
    """Time points per chunk when each one spans `width` entries."""
    return max(1, HISTORY_CHUNK // width)


def _by_rows(amps: np.ndarray, reduce) -> np.ndarray:
    """reduce(rows) of a history, one chunk of rows at a time, so that no
    temporary of the history's size is made."""
    out = np.empty(len(amps))
    step = _chunk_rows(amps.shape[1])
    for lo in range(0, len(amps), step):
        out[lo:lo + step] = reduce(amps[lo:lo + step])
    return out


def _adjoint_times(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """vectors^dagger @ psi, with no copy of the vectors: real vectors
    multiply the real and imaginary parts of psi separately, complex ones
    take the conjugate of conj(psi) @ vectors."""
    if np.isrealobj(vectors):
        return vectors.T @ psi.real + 1j * (vectors.T @ psi.imag)
    return np.conj(psi.conj() @ vectors)


def chebyshev_degree(x: float) -> int:
    """Degree K whose dropped tail 2 sum_{k>K} |J_k(x)| is at most
    CHEBYSHEV_TAIL_TOL, by the bound |J_k(x)| <= (x/2)^k / k!: the smallest
    K for which the estimate below certifies it.

    Past k > x/2 - 1 the bound's terms shrink at least geometrically, by
    q = (x/2) / (K + 2) from the first dropped one on, so the tail is at most
    2 (x/2)^(K+1) / (K+1)! / (1 - q).  Worked in logarithms, so any finite x fits.
    """
    if not math.isfinite(x):
        raise ValueError(f"Chebyshev degree of a non-finite argument {x}")
    if x <= 0.0:
        return 0
    half = x / 2.0
    log_tol = math.log(CHEBYSHEV_TAIL_TOL)
    k = 1  # the first dropped index, K + 1
    while True:
        q = half / (k + 1)
        if q < 1.0:
            log_tail = math.log(2.0 / (1.0 - q)) + k * math.log(half) - math.lgamma(k + 1)
            if log_tail <= log_tol:
                return k - 1
        k += 1


def _fft_points(x: float, degree: int) -> int:
    """n = 2 (degree + ceil(x) + 32), the FFT length of `chebyshev_coefficients`
    for a largest argument x."""
    return 2 * (degree + math.ceil(x) + 32)


def chebyshev_coefficients(x: np.ndarray, degree: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k = 0..degree, one row per x >= 0.

    By the Jacobi-Anger expansion e^{-ix cos(theta)} = sum_k (-i)^k J_k(x)
    e^{ik theta}, these are the Fourier coefficients of e^{-ix cos(theta)},
    doubled for k >= 1.  One FFT on n = `_fft_points(max x, degree)` points
    reads them off: a coefficient of index k <= degree picks up aliases of
    index at least n - degree > 2 max x + 64 apart, where |J| is far below
    double precision.  Making the (len(x), n) samples and their FFT holds
    up to 2.5 such tables at once.
    """
    x = np.asarray(x, dtype=float)
    n = _fft_points(float(np.max(x)), degree)
    samples = np.exp(-1j * np.multiply.outer(x, np.cos((2.0 * np.pi / n) * np.arange(n))))
    coeff = np.fft.fft(samples, axis=-1)[..., :degree + 1] / n
    coeff[..., 1:] *= 2.0
    return coeff


def _phase_block(energies: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{-iE tau} as an (n_offsets, n_levels) array, one row per time, in `out` if given."""
    base = np.empty((len(offsets), len(energies)), dtype=complex) if out is None else out
    base.real = 0.0
    np.multiply.outer(offsets, -energies, out=base.imag)
    return np.exp(base, out=base)


def _chebyshev_windows(times: np.ndarray, reach: float):
    """(start, lo, hi) for each Chebyshev window along a grid of times >= 0.

    A window runs one recurrence from the state at `start` and reads the
    outputs times[lo:hi]: those up to `reach` after its start, and at least
    the first, or the rest of the grid when that ends within
    CHEBYSHEV_STRETCH windows.  The next window starts at its last output,
    so a longer gap is one recurrence to the output that ends it.
    """
    start, i = 0.0, 0
    while i < len(times):
        if times[-1] - start <= CHEBYSHEV_STRETCH * reach:
            stop = len(times)
        else:
            stop = max(i + 1, int(np.searchsorted(times, start + reach, side="right")))
        yield start, i, stop
        start, i = times[stop - 1], stop


@dataclass(frozen=True)
class ChebyshevOperator:
    """2 (H - b) / a, the operator of the recurrence T_{k+1} = 2X T_k - T_{k-1},
    for the Gershgorin interval [b - a, b + a] of a Hermitian H, clipped to
    the interval of `bound`, the operator of a matrix whose spectrum holds H's."""

    scaled: sp.csr_matrix
    centre: float
    half_width: float

    @classmethod
    def of(cls, hamiltonian, bound: ChebyshevOperator | None = None) -> ChebyshevOperator:
        h = sp.csr_matrix(hamiltonian, dtype=complex)
        # Gershgorin: every eigenvalue of a Hermitian H lies in [b - a, b + a]
        diag = h.diagonal()
        radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
        lo, hi = np.min(diag.real - radius), np.max(diag.real + radius)
        if bound is not None:
            lo, hi = max(lo, bound.centre - bound.half_width), min(hi, bound.centre + bound.half_width)
        centre = float(hi + lo) / 2.0
        half_width = float(hi - lo) / 2.0 or 1.0  # H = b: any a > 0 bounds it
        scaled = ((h - centre * sp.identity(h.shape[0], dtype=complex, format="csr"))
                  * (2.0 / half_width)).tocsr()
        return cls(scaled, centre, half_width)

    def window(self, psi, dts, out, block):
        """out[j] += e^{-iH dts[j]} psi for increasing dts within one (stretched) window.

        e^{-iHt} = e^{-ibt} sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k((H - b)/a).
        block[0] holds CHEBYSHEV_BLOCK Chebyshev vectors T_k psi, filled in
        turn; each time it is full, one matrix product of the coefficient
        columns with it, into block[1] for CHEBYSHEV_BLOCK output times at a
        time, adds those terms to every output time of the window.
        """
        degree = chebyshev_degree(self.half_width * dts[-1])
        coeff = chebyshev_coefficients(self.half_width * dts, degree)
        coeff *= np.exp(-1j * self.centre * dts)[:, None]
        vectors, work = block
        rows = len(vectors)

        def add(lo, hi):
            for j in range(0, len(out), rows):
                part = out[j:j + rows]
                np.matmul(coeff[j:j + rows, lo:hi], vectors[: hi - lo], out=work[:len(part)])
                part += work[:len(part)]

        vectors[0] = psi
        for k in range(1, degree + 1):
            r = k % rows
            if r == 0:
                add(k - rows, k)
            if k == 1:
                np.multiply(self.scaled @ psi, 0.5, out=vectors[1])
            else:
                vectors[r] = self.scaled @ vectors[r - 1] - vectors[r - 2]
        add(degree - degree % rows, degree + 1)


@dataclass(frozen=True)
class MomentumBlock:
    """H in one momentum sector of a group: an S2 momentum, or the one
    sector of the trivial group, the whole H.

    `orbits` numbers each block column among all orbits of the group.  A
    dense propagator keeps the sector's eigenpairs: `vectors` holds the
    sector eigenvectors as amplitudes on the orbit representatives, the
    block eigenvectors with row r divided by sqrt(sizes[r]).  An iterative
    one keeps the block's own `chebyshev` operator in the orbit-sum basis.
    """

    momentum: int
    basis: SectorBasis
    orbits: np.ndarray
    energies: np.ndarray | None = None
    vectors: np.ndarray | None = None
    chebyshev: ChebyshevOperator | None = None

    def slot_amplitudes(self, slots, vectors: np.ndarray | None = None) -> np.ndarray:
        """Amplitudes of `vectors` (default the block's own) on the subset
        slots: sign[x] vectors[orbit[x]] on slot x, 0 where its orbit is dropped."""
        vectors = self.vectors if vectors is None else vectors
        orbit = self.basis.orbit[slots]
        return np.where((orbit >= 0)[:, None], self.basis.sign[slots, None] * vectors[orbit], 0.0)


class _Scratch:
    """The working arrays of one evolve, carved in turn from one allocation.
    As one block, the allocator maps it on its own and returns it to the
    system when the evolve ends; the same arrays made one by one would come
    from its heap, which keeps freed blocks below its trim threshold
    resident beside the next history."""

    def __init__(self, entries: int):
        self.free = np.empty(entries, dtype=complex)

    def take(self, shape, dtype=complex, zero: bool = False) -> np.ndarray:
        size = math.prod(shape)
        entries = -(-size * np.dtype(dtype).itemsize // COMPLEX_BYTES)
        block, self.free = self.free[:entries], self.free[entries:]
        out = block.view(dtype)[:size].reshape(shape)
        if zero:
            out.fill(0)
        return out


class _OrbitGather:
    """The amplitudes of every subset slot from the orbit amplitudes of the
    momentum blocks of a group of order M, one chunk of at most `rows` times
    at a time.  `group` is the group's momentum-0 sector basis: its orbits,
    their sizes and the S2 power taking each slot to its representative.

    `momenta[t, p, s, r]` holds, at the chunk's t-th time, the rows that the
    block in slot s, of momentum `slots[s]`, has on the representative of
    orbit r.  Complex rows have one plane p.  Real rows (`real`, for a real
    H and a real start) have two, the real and the imaginary part: a
    self-conjugate momentum (k = 0 or M/2) holds its own rows, and a
    conjugate pair, whose rows are Y_k = A + iB and Y_-k = A - iB, holds A
    in the slot of k and B in the slot of -k.  The inverse DFT over the slot
    axis, one matmul batched over the chunk's times and planes, gives for
    each orbit the amplitude of the member that S2^j takes to the
    representative at index j: sum_k e^{2 pi i jk/M} Y_k, which on a pair
    is 2 cos(theta) A - 2 sin(theta) B, so real rows take a real transform.
    When only momentum 0 has weight, `slots` is [0]: every member carries
    its orbit's amplitude and the DFT is skipped.  One np.take of the
    chunk's contiguous rows then writes its history rows.
    """

    def __init__(self, order: int, group: SectorBasis, slots, real: bool, rows: int, scratch: _Scratch):
        orbits = len(group.sizes)
        self.real = real
        shape = (rows, 2 if real else 1, len(slots), orbits)
        self.momenta = scratch.take(shape, float if real else complex, zero=True)
        self.spectrum, self.dft, members = self.momenta, None, group.orbit
        if len(slots) > 1:
            self.spectrum = scratch.take(shape, self.momenta.dtype)
            members = group.shift * orbits + group.orbit
            k = np.asarray(slots)
            dft = np.exp((2j * np.pi / order) * (np.multiply.outer(np.arange(order), k) % order))
            # 1 on a self-conjugate momentum, 2 cos(theta) on the A and -2 sin(theta) on the B of a pair
            pair = (k > 0) & (2 * k != order)
            self.dft = np.where(2 * k > order, 2.0 * dft.imag, np.where(pair, 2.0, 1.0) * dft.real) if real else dft
        # real rows interleave the entries of the two planes into complex amplitudes
        self.members = (members[:, None] + [0, len(slots) * orbits]).ravel() if real else members

    def fill(self, slot: int, rows: np.ndarray, weights: np.ndarray) -> None:
        """rows @ weights into `momenta` in place, from `slot` on: `rows`
        holds one row per time and plane of the chunk's first times, and
        each group of `orbits` columns of `weights` fills one slot."""
        width = weights.shape[1] // self.momenta.shape[3]
        n = len(rows) // self.momenta.shape[1]
        np.matmul(rows, weights, out=self.momenta[:n, :, slot:slot + width].reshape(len(rows), -1))

    def emit(self, out: np.ndarray) -> None:
        """The (n, dim) history rows `out` from the first n times of `momenta`."""
        n = len(out)
        if self.dft is not None:
            shape = (-1, *self.momenta.shape[2:])
            np.matmul(self.dft, self.momenta[:n].reshape(shape), out=self.spectrum[:n].reshape(shape))
        np.take(self.spectrum[:n].reshape(n, -1), self.members, axis=1, out=out.view(self.momenta.dtype), mode="clip")

    def moduli(self, out: np.ndarray, mod: np.ndarray, emitted: bool) -> None:
        """re^2 + im^2 of each entry of the history rows `out`, into `mod`,
        squared in place in a spent buffer: after `emit`, in the cells of
        the rows it took `out` from, then taken to the slots as `out` was;
        else, when the trivial group's block wrote `out` and the slot rows
        are unused, in them."""
        n = len(out)
        if not emitted:
            parts = np.square(out.view(float), out=self.momenta.reshape(-1).view(float)[:2 * out.size].reshape(n, -1))
            np.add(parts[:, 0::2], parts[:, 1::2], out=mod)
            return
        rows = self.spectrum[:n].reshape(n, -1).view(float)
        half = rows.shape[1] // 2
        np.square(rows, out=rows)
        real, imag = (rows[:, :half], rows[:, half:]) if self.real else (rows[:, 0::2], rows[:, 1::2])
        np.add(real, imag, out=real)
        cells = self.members[0::2] if self.real else 2 * self.members    # each slot's real part in `rows`
        np.take(rows, cells, axis=1, out=mod, mode="clip")


class _Plan(NamedTuple):
    """What one evolve runs (`Propagator._plan`): the order and momentum-0
    sector basis of its group, the momentum of each slot of the writer's
    `_OrbitGather`, whether its rows are real, and its runs, each a block,
    the slot its rows fill and the coefficients of psi0 in it."""

    order: int
    group: SectorBasis
    slots: list
    real: bool
    runs: list


class Propagator:
    """Reusable e^{-iHt} evaluator over one subset; dense where `dense_fits`."""

    def __init__(self, hamiltonian, subset: BasisSubset):
        dim = hamiltonian.shape[0]
        if dim != subset.size:
            raise ValueError("Hamiltonian dimension does not match subset")
        self.method = "dense" if dense_fits(dim) else "iterative"
        self.subset = subset
        h = sp.csr_matrix(hamiltonian)
        try:
            group, images, (dev,) = sector_group(subset, mats=(h,))
        except ValueError:  # the subset is not S2-invariant
            dev = math.inf
        # the trivial group when S2 does not apply: one block, the whole H
        symmetric = dev <= MOMENTUM_COMMUTE_TOL
        self.order = len(images) - 1 if symmetric else 1
        self.group = group if symmetric else trivial_basis(dim)
        self.blocks = []
        if self.method == "dense":
            self.real = np.isrealobj(h)
            theta = find_antiunitary(h, subset)
            name, slots, _ = theta
            paired = name is not None    # Theta maps momentum k to -k
            for k in range(self.order // 2 + 1 if paired else self.order):
                basis = momentum_basis(self.group, self.order, k)
                block, basis = sector_block(orbit_block(h, basis), basis, theta)
                energies, vectors = np.linalg.eigh(block)
                if basis.rotation is not None:
                    vectors = basis.rotation @ vectors    # the real eigenvectors in orbit sums
                orbits, scaled = self.group.orbit[basis.reps], vectors / np.sqrt(basis.sizes)[:, None]
                self.blocks.append(MomentumBlock(k, basis, orbits, energies, scaled))
                # Theta carries the k block's vectors to the -k block's: the
                # conjugate of the vector row of P(r), times its sign, is row r
                # (for a real H, P(r) = r and that sign is 1).  Kept next to the
                # k block, so that evolve computes their shared phase block once
                if paired and 0 < 2 * k < self.order:
                    image, phase = orbit_images(basis, slots)
                    partner = (phase[:, None] * scaled[image]).conj()
                    self.blocks.append(MomentumBlock(self.order - k, replace(basis, sign=basis.sign.conj()),
                                                     orbits, energies, partner))
            levels = np.concatenate([b.energies for b in self.blocks])
            self.level_order = np.argsort(levels, kind="stable")
            self.energies = levels[self.level_order]
        else:
            self.energies = None
            # the trivial group's block, the whole H; the momentum blocks
            # are built from H on the first start that occupies each
            self.hamiltonian = h
            trivial = self.group if self.order == 1 else trivial_basis(dim)
            self.whole = MomentumBlock(0, trivial, trivial.reps, chebyshev=ChebyshevOperator.of(h))
            self.reach = CHEBYSHEV_WINDOW / self.whole.chebyshev.half_width    # the window of every block

    @property
    def modes(self) -> np.ndarray | None:
        """Eigenvectors of H in the subset basis, one column per entry of
        `energies`, built from the blocks on each read and not kept.  Real H
        has real modes: of a conjugate pair of momenta k < M/2 and M - k, the
        first contributes sqrt(2) Re and the second sqrt(2) Im of its vectors."""
        if self.method != "dense":
            return None
        dim = self.subset.size
        modes = np.zeros((dim, dim), dtype=float if self.real else complex)
        start = 0
        for b in self.blocks:
            slots = np.flatnonzero(b.basis.orbit >= 0)
            vecs = b.slot_amplitudes(slots)
            if self.real and np.iscomplexobj(vecs):
                vecs = math.sqrt(2.0) * (vecs.real if 2 * b.momentum < self.order else vecs.imag)
            modes[slots, start:start + len(b.energies)] = vecs
            start += len(b.energies)
        return modes[:, self.level_order]

    def evolve(self, initial: np.ndarray, times) -> EvolutionResult:
        """The history of `initial` over `times`; a bad grid or start raises ValueError before any work."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not len(times) or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be a non-empty 1-D array of finite, strictly increasing times")
        if self.method != "dense" and np.any(times < 0.0):
            raise ValueError("the Chebyshev path evolves forward from t = 0 only")
        psi0 = np.asarray(initial, dtype=complex)
        if psi0.shape != (self.subset.size,) or not np.all(np.isfinite(psi0)):
            raise ValueError(f"initial state must hold {self.subset.size} finite amplitudes")
        plan = self._plan(psi0)
        work, scratch, rows = self._work_entries(times, plan)
        admit((len(times) * self.subset.size + work) * COMPLEX_BYTES, "evolution holds", "shorten the time grid")
        amps, norms, prs = self._write(times, rows, plan, _Scratch(scratch))
        drift = float(np.max(np.abs(norms - np.linalg.norm(psi0))))
        if not drift <= NORM_DRIFT_ABORT:    # a NaN drift aborts too
            raise NormDriftError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ABORT}")
        return EvolutionResult(amps, self.subset, drift, prs)

    def _momentum_parts(self, psi0: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The orbit sums of psi0 (`_momentum_sums`) and the momenta it occupies.

        psi0's part in momentum k has the orbit-sum coefficients
        sums[r, k] / sqrt(p) on the orbits of period p it keeps
        (`momentum_kept`).  k is occupied when the norm of that part exceeds
        MOMENTUM_COMMUTE_TOL ||psi0||, so that roundoff left in a momentum
        by a numerical projection does not count as weight.
        """
        sums = self._momentum_sums(psi0)
        kept = momentum_kept(self.group.sizes, self.order, np.arange(self.order))
        weight = np.sqrt(np.sum(np.abs(sums) ** 2 / self.group.sizes[:, None], axis=0, where=kept))
        cut = MOMENTUM_COMMUTE_TOL * np.linalg.norm(psi0)
        return sums, [k for k in range(self.order) if weight[k] > cut]

    def _plan(self, psi0: np.ndarray) -> _Plan:
        """The group psi0 runs in and the blocks it occupies there (see the
        module docstring), each with the coefficients of psi0 in it:
        eigen-coefficients on the dense path, orbit-sum states on the
        Chebyshev path, psi0 itself in the trivial group's Chebyshev block.
        A Chebyshev momentum block is built on first use and kept.

        A dense block's rows fill the slot of its place in `blocks`, a
        Chebyshev block's the slot of its momentum.  For a real H and a real
        psi0 the rows are real (`_OrbitGather`): the block of -k, 2k > M, is
        the conjugate of the block of k next to it, with conjugate
        coefficients, so it has no run of its own, and the run of k, for
        either of them occupied, fills both slots."""
        sums, occupied = self._momentum_parts(psi0)
        if self.method == "dense":
            real = self.real and not np.any(psi0.imag)
            runs = []
            for slot, b in enumerate(self.blocks):
                k = b.momentum
                paired = real and 0 < 2 * k < self.order and self.order - k in occupied
                if (k in occupied or paired) and not (real and 2 * k > self.order):
                    runs.append((b, slot, _adjoint_times(b.vectors, sums[b.orbits, k])))
            return _Plan(self.order, self.group, [b.momentum for b in self.blocks], real, runs)
        if not 0 < len(occupied) < self.order:
            return _Plan(1, self.whole.basis, [0], False, [(self.whole, 0, psi0)])
        built = {b.momentum: b for b in self.blocks}
        for k in occupied:
            if k not in built:
                basis = momentum_basis(self.group, self.order, k)
                operator = ChebyshevOperator.of(orbit_block(self.hamiltonian, basis), self.whole.chebyshev)
                built[k] = MomentumBlock(k, basis, self.group.orbit[basis.reps], chebyshev=operator)
                self.blocks.append(built[k])
        runs = [(built[k], k, sums[built[k].orbits, k] / np.sqrt(built[k].basis.sizes)) for k in occupied]
        return _Plan(self.order, self.group, list(range(self.order)), False, runs)

    def _work_entries(self, times: np.ndarray, plan: _Plan) -> tuple[int, int, int]:
        """Complex entries held beside the history by the plan (`_plan`),
        those of them taken from one `_Scratch`, and the times of one chunk
        of rows: at most the grid on the dense path, the longest window on
        the Chebyshev path.

        The scratch holds the writer's slot rows of every orbit for one
        chunk (two real entries count as one complex one), their transform
        unless only momentum 0 has weight, and the chunk's squared moduli
        (counted one entry each); beside it, the writer's slot indices and
        each time's norm and participation ratio.  On the dense path the
        scratch also holds the cached phase block of every distinct energy
        set of the runs, a chunk's phases and their real and imaginary
        planes for the largest set, one block's scaled vectors and every
        run's weights over all orbits; beside it, a chunk's own phase block
        and the one it replaces.
        Chebyshev: the vectors and the buffer of their products for the
        largest block, every block's outputs of the longest window, one
        block's scaled rows of a chunk, and three coefficient tables of
        `chebyshev_coefficients` (the samples' real phases and complex
        exponents, then the samples and their FFT: 2.5 tables traced at
        once) for as many outputs as the longest window holds, on the FFT
        length of H's interval over the longest span.
        """
        order, group, slots, _, runs = plan
        orbits, dim = len(group.sizes), self.subset.size
        if self.method == "dense":
            rows = min(len(times), _chunk_rows(orbits * order))
            sets = {id(b.energies): len(b.energies) for b, _, _ in runs}
            largest = max(sets.values())
            scratch = rows * (sum(sets.values()) + 2 * largest) + (sum(len(b.energies) for b, _, _ in runs) + largest) * orbits
            work = 2 * rows * largest
        else:
            windows = list(_chebyshev_windows(times, self.reach))
            longest = max(hi - lo for _, lo, hi in windows)
            rows = min(longest, _chunk_rows(orbits * order))
            sizes = [b.basis.size for b, _, _ in runs]
            x = self.whole.chebyshev.half_width * max(times[hi - 1] - start for start, _, hi in windows)
            work = (2 * CHEBYSHEV_BLOCK * max(sizes) + longest * sum(sizes) + rows * max(sizes)
                    + 3 * longest * _fft_points(x, chebyshev_degree(x)))
            scratch = 0
        gathered = orbits * len(slots) * 2 if any(b.momentum for b, _, _ in runs) else orbits
        scratch += rows * (gathered + dim)
        # the writer's int64 slot indices and those of the moduli, and the norms and participation ratios
        return work + scratch + dim + len(times), scratch, rows

    def _momentum_sums(self, psi0: np.ndarray) -> np.ndarray:
        """sum_{x in r} conj(chi_k(x)) psi0[x] for every orbit r (rows) and
        momentum k (columns), from one DFT over the S2 power of each slot."""
        split = np.zeros((len(self.group.sizes), self.order), dtype=complex)
        split[self.group.orbit, self.group.shift] = psi0
        return np.fft.fft(split, axis=1)

    def block_coefficients(self, psi0: np.ndarray) -> list[np.ndarray]:
        """Coefficients of psi0 in the eigenvectors of each momentum block,
        from its orbit sums (`_momentum_sums`)."""
        sums = self._momentum_sums(psi0)
        return [_adjoint_times(b.vectors, sums[b.orbits, b.momentum]) for b in self.blocks]

    def _write(self, times, rows, plan: _Plan, scratch: _Scratch):
        """The history, (n_times, dim) and C-ordered, and its norms and
        participation ratios, for both methods.  The method's producer, given
        an `_OrbitGather` of chunks of `rows` times, fills its slot rows for
        one chunk after another, and it writes each chunk's history rows;
        the trivial group's Chebyshev block writes them itself.  In one pass
        over each chunk's rows, the squares of their real and imaginary
        parts are added into the squared moduli; each row sums them
        pairwise for its norm, and their squares for its participation
        ratio, as `pr_trace` does."""
        dim = self.subset.size
        transform = any(b.momentum for b, _, _ in plan.runs)
        gather = _OrbitGather(plan.order, plan.group, plan.slots if transform else [0], plan.real, rows, scratch)
        amps = np.zeros((len(times), dim), dtype=complex)    # the trivial block adds into it
        norms, prs = np.empty(len(times)), np.empty(len(times))
        moduli = scratch.take((rows, dim), float)
        if self.method == "dense":
            produce = self._dense_rows(times, plan.runs, gather, scratch)
        else:
            produce = self._chebyshev_rows(times, plan.runs, gather, amps)
        for lo, hi, gathered in produce:
            out, n = amps[lo:hi], hi - lo
            if gathered:
                gather.emit(out)
            mod = moduli[:n]
            gather.moduli(out, mod, gathered)
            norms[lo:hi] = np.sqrt(np.add.reduce(mod, axis=1))
            prs[lo:hi] = np.add.reduce(np.square(mod, out=mod), axis=1)
        return amps, norms, prs

    def _dense_rows(self, times, runs, gather, scratch):
        """The dense producer: chunks of the writer's rows, run by run.

        Each run's block takes e^{-iEt} on a chunk as e^{-iE t_0} e^{-iE
        tau}, tau = t - t_0 the offsets from the chunk's first time.  The
        phase block e^{-iE tau} is computed once per energy set for the
        first chunk's offsets and reused by every chunk whose own offsets
        match them to within 2 ulp of max|t| (every evenly spaced grid); any
        other chunk computes its own.  Times e^{-iE t_0}, it gives the
        chunk's phases Z, one row per time, shared by the runs of one energy
        set, the two blocks of a conjugate pair among them.  A run's rows
        are Z W^T, with W = vectors diag(coefficients) over all orbits of the
        group (zero on those the block drops), made once per call, in one
        GEMM straight into the writer's slots.  Real rows take the real and
        imaginary planes of Z, one row each, and the real W, or for a pair
        [Re W, Im W], whose products are the pair's A and B: one real GEMM
        of half the flops of the two complex ones.
        """
        rows, real = len(gather.momenta), gather.real
        orbits = gather.momenta.shape[3]

        def weights(b, coeff):
            pair = real and 0 < 2 * b.momentum < self.order
            scaled = np.multiply(b.vectors, coeff, out=product[:len(b.vectors), :len(coeff)]).T
            w = scratch.take((len(b.energies), 2 if pair else 1, orbits), float if real else complex, zero=True)
            w[:, 0, b.orbits] = scaled.real if real else scaled
            if pair:
                w[:, 1, b.orbits] = scaled.imag
            return w.reshape(len(b.energies), -1)

        first = times[:rows] - times[0]
        slack = 2.0 * np.spacing(np.max(np.abs(times)))
        sets = {id(b.energies): b.energies for b, _, _ in runs}
        cached = {key: _phase_block(e, first, scratch.take((rows, len(e)))) for key, e in sets.items()}
        largest = max(len(e) for e in sets.values())
        phases, product = scratch.take((rows, largest)), scratch.take((orbits, largest))
        planes = scratch.take((rows, 2, largest), float) if real else None
        runs = [(b, slot, weights(b, coeff)) for b, slot, coeff in runs]
        for lo in range(0, len(times), rows):
            t = times[lo:lo + rows]
            n, offsets = len(t), t - t[0]
            reuse = np.max(np.abs(offsets - first[:n])) <= slack
            energies = None
            for b, slot, w in runs:
                if b.energies is not energies:
                    energies, m = b.energies, len(b.energies)
                    base = cached[id(energies)][:n] if reuse else _phase_block(energies, offsets)
                    z = np.multiply(base, np.exp(-1j * t[0] * energies), out=phases[:n, :m])
                    if real:
                        np.copyto(planes[:n, :, :m], z.view(float).reshape(n, m, 2).transpose(0, 2, 1))
                        z = planes[:n, :, :m].reshape(2 * n, m)
                gather.fill(slot, z, w)
            yield lo, lo + n, True

    def _chebyshev_rows(self, times, runs, gather, amps):
        """The Chebyshev producer: windows in each run's block, each
        window's outputs in chunks of the writer's rows.

        Each block carries its orbit-sum state from window to window and runs
        its own recurrence on its own interval; the windows are H's, whose
        interval holds every block's, so that every block covers each of them
        in one recurrence.  A momentum block's outputs, divided by the square
        roots of its orbit sizes, are its rows.  The trivial group's block
        adds its outputs into the history rows themselves, as the
        whole-space recurrence does, and leaves the writer's slots unused.
        """
        rows = len(gather.momenta)
        buffer = np.empty(2 * CHEBYSHEV_BLOCK * max(b.basis.size for b, _, _ in runs), dtype=complex)
        whole = runs[0][0] is self.whole
        scales = [1.0 / np.sqrt(b.basis.sizes) for b, _, _ in runs]
        states = [state for _, _, state in runs]
        for start, lo, hi in _chebyshev_windows(times, self.reach):
            dts = times[lo:hi] - start
            outs = []
            for j, (b, _, _) in enumerate(runs):
                out = amps[lo:hi] if whole else np.zeros((hi - lo, b.basis.size), dtype=complex)
                block = buffer[:2 * CHEBYSHEV_BLOCK * b.basis.size].reshape(2, CHEBYSHEV_BLOCK, -1)
                b.chebyshev.window(states[j], dts, out, block)
                states[j] = out[-1].copy()
                outs.append(out)
            for c in range(lo, hi, rows):
                n = min(rows, hi - c)
                if not whole:
                    for (b, slot, _), out, scale in zip(runs, outs, scales):
                        gather.momenta[:n, 0, slot, b.orbits] = out[c - lo:c - lo + n] * scale
                yield c, c + n, not whole


def pr_trace(result: EvolutionResult) -> np.ndarray:
    """Participation ratio sum_x |psi_x(t)|^4 of each history row: the one
    `evolve`'s writer took, which reads no amplitudes again, or for a
    history it did not write, one chunk of rows at a time (`_by_rows`);
    each row sums as one reduction over the whole history would."""
    if result.pr is not None:
        return result.pr
    return _by_rows(result.amplitudes, lambda rows: np.sum((rows.real ** 2 + rows.imag ** 2) ** 2, axis=1))


def fidelity_trace(result: EvolutionResult, ref_index: int) -> np.ndarray:
    col = result.subset.position(ref_index)
    return np.abs(result.amplitudes[:, col]) ** 2


def z_diagonal(subset: BasisSubset, site: int) -> np.ndarray:
    """Z eigenvalues (+1 for bit 0, -1 for bit 1) of the subset states."""
    if not 1 <= site <= subset.length:
        raise ValueError(f"site {site} lies outside 1..{subset.length}")
    return 1.0 - 2.0 * bit_of(subset.states, site, subset.length).astype(float)


def local_z_trace(
    prop: Propagator,
    initial: np.ndarray,
    result: EvolutionResult,
    site: int,
    energy_window: float = 0.4,
) -> tuple[np.ndarray, float]:
    """Expectation series <Z_site(t)> of an evolved trace and its microcanonical average.

    `result` is `prop.evolve(initial, times)`.  The microcanonical value
    averages <Z_site> over eigenstates whose energy lies within +-window/2 of
    the initial state's mean energy.
    """
    if prop.method != "dense":
        raise ValueError("microcanonical comparison needs the dense eigensystem")
    z = z_diagonal(prop.subset, site)
    series = _by_rows(result.amplitudes, lambda rows: (np.abs(rows) ** 2) @ z)

    coeffs = prop.block_coefficients(np.asarray(initial, dtype=complex))
    mean_energy = float(sum(np.sum(np.abs(c) ** 2 * b.energies) for b, c in zip(prop.blocks, coeffs)))
    # <v|Z|v> of a block eigenvector: sum_r |vectors[r, n]|^2 times the sum of z over orbit r
    z_orbit = np.bincount(prop.group.orbit, weights=z)
    z_levels = np.concatenate([
        z_orbit[b.orbits] @ np.abs(b.vectors[:, np.abs(b.energies - mean_energy) <= energy_window / 2.0]) ** 2
        for b in prop.blocks
    ])
    if not len(z_levels):
        raise ValueError("microcanonical window contains no eigenstates")
    return series, float(np.mean(z_levels))


def first_revival_peak(times, values, t_lo: float, t_hi: float) -> float:
    """Largest trace value inside the first-revival window."""
    times = np.asarray(times)
    mask = (times >= t_lo) & (times <= t_hi)
    if not np.any(mask):
        raise ValueError("revival window contains no grid points")
    return float(np.max(np.asarray(values)[mask]))


def generic_comparison_state(subset: BasisSubset, orbit_states, hamiltonian) -> int:
    """Deterministic thermalization probe state.

    Takes the basis state whose diagonal energy sits closest to the subset
    mean, with ties broken toward the middle of the ordered subset and then
    the smaller index; protected-orbit states and states the Hamiltonian
    barely couples are skipped.  Edge-of-band and near-orbit states relax
    anomalously slowly, so a thermalization comparison needs a mid-band,
    mid-list pick; the rule is deterministic for reproducibility.
    """
    orbit = set(int(s) for s in orbit_states)
    h = sp.csc_matrix(hamiltonian)
    diag = np.real(h.diagonal())
    mean_energy = float(np.mean(diag))
    center = subset.size // 2
    order = sorted(
        range(subset.size),
        key=lambda p: (abs(diag[p] - mean_energy), abs(p - center), int(subset.states[p])),
    )
    for pos in order:
        state = int(subset.states[pos])
        if state in orbit:
            continue
        col = h[:, pos].toarray().ravel()
        col[pos] = 0.0
        if np.linalg.norm(col) > COUPLING_TOL:
            return state
    raise ValueError("subset has no coupled non-orbit state")
