"""The (q, p) lattice type, the Wigner and Margenau-Hill quasi-distributions
on it and their momentum moment densities, and the characteristic-function
route to the conditional momentum distribution.

The W local moments of ``moments`` are taken from the Wigner moment
densities, which wigner_moment_densities computes from the correlation
product through one 1D kernel per order, a row block at a time, without
the n x n transform.  The kernel takes a stack of states on one grid
(wigner_moment_density_stack), so that ``dynamics`` checks the snapshots
of a trace a chunk at a time; one state is its one-row case.  The n x n
transforms are the independent phase-space route and the ``distribution``
output: the Wigner transform's moment densities are the oracle for that
kernel, and the Margenau-Hill transform the one that the closed-form MH
densities and the Bayes product are checked against.  The moment
densities of any lattice (W, MH or classical) come from the product of
its values with the columns pgrid^order, a row block at a time
(QuasiDistribution.moment_densities).  This module builds on ``core``
only; the local moments and variances built from these densities live in
``moments``.

Grid conventions
----------------
The Wigner transform is computed from the symmetric correlation product,

    W(q_i, p) = dq/(pi*hbar) * sum_j conj(psi(q_{i+j})) psi(q_{i-j})
                                e^{2 i p j dq / hbar},

whose natural momentum grid has spacing pi*hbar/(n*dq), half the standard
spacing, because the correlation advances in steps of 2*dq.  Both factors
are read from the amplitude padded by n/2 points per side.  For localized
states (edge amplitude below 1e-10) the padding is zeros, so products that
reach outside the window vanish.  Periodic padding instead plants a
sign-alternating ghost copy of the state half a window away, which
cancels the p-marginal on the half-spaced momentum rows; zero-padding keeps
both marginals exact for decayed states.  Constant-modulus states (plane
waves) are genuinely periodic, so for them periodic padding is exact.
Anything else is rejected.

The Margenau-Hill transform lives on the standard momentum grid:

    F_MH(q, p) = Re[ phi(p) conj(psi(q)) e^{i p q/hbar} ] / sqrt(2*pi*hbar).

Both transforms may be negative; each distribution exposes its minimum cell
and a location of it as first-class metadata (QuasiDistribution.min_cell).

Row blocks
----------
The three n x n routes (Wigner, Margenau-Hill, the conditional P_S(p|q))
fill one preallocated float n x n result N2_ROW_BLOCK q rows at a time
(_row_blocks), writing each row once; no n x n complex array is built.
The Bayes check and the lattice moment densities read each row once in
blocks of the same size, as does the lowest-cell check and clip of the
classical bridge (module ``classical``).

* Hermitian half.  The correlation row c_i(s) and the characteristic
  function G(s, q) satisfy x(-s) = conj(x(s)), and at s = +-n/2 the row
  is 0 (zero-padded) or real (wrapped), so half the offsets carry the
  whole row, and one irfft per row over them gives it on the ascending p
  grid.  The conditional takes s = -n/2..0 and flips the sign of every
  other output cell (_hermitian_rows); the moment-density kernel reads
  the same half of the correlation (_correlation_blocks) and multiplies
  it by K.  The Wigner transform takes s = 0..n/2 of the padded
  amplitude rotated by i^P, which puts that sign on the correlation
  itself, so each block is one product and one irfft into the result.
* Root of unity.  On the grid q_j p_k/hbar = q_min p_k/hbar + 2 pi j k/n
  - pi j, so the Margenau-Hill phase factors into a row sign, a column
  phase and omega^(j k), omega = e^{2 pi i/n}: a table of one block's
  rows built once per call times one row of roots of unity per block
  (_margenau_hill_blocks), with no n^2 exponentials or indices.
* One reciprocal per row.  The conditional multiplies a row's shifts by
  1/(2 psi(q)) and zero-fills the rows too small for every cell to stay
  finite (conditional_momentum_S).
* Bayes check.  bayes_product fills rho * P_S into its result and
  compares it with the Margenau-Hill rows block by block, through one
  scratch block per band and NaN-propagating reductions, and checks the
  largest deviation once.  The two pipelines share no step.
* Lattice moments.  QuasiDistribution.moment_densities takes one
  product of a row block with the columns pgrid^order at a time; these
  stay on one thread, where one product of the whole lattice takes the
  threaded BLAS path.
* Row bands.  The Wigner and Margenau-Hill transforms, the conditional,
  the Bayes check and the bridge's clip and divide split their blocks
  into contiguous bands of whole blocks, one per usable core, each of at
  least N2_BAND_ROWS rows (row_bands), and run the bands at once
  (in_row_bands): the first on the caller, each other on a plain thread,
  joined before the route returns.  numpy's ufuncs and FFTs release the
  interpreter lock, so the bands overlap.  The outputs are bitwise the
  same on any number of bands: a block is the same slice of rows on
  whichever band holds it, every cell is computed by the same operations
  from inputs no band writes, into rows no other band writes, and the
  only reductions across bands, the largest deviation of the Bayes check
  and the lowest cell of the bridge, are exact maxima and minima that
  propagate NaN.  Each band allocates its own block buffers; with at
  least N2_BAND_ROWS rows per band their share of the peak stays within
  the per-cell estimates below on any number of cores.  The BLAS
  products (the lattice moments, the W kernel) stay on one thread, as
  OpenBLAS runs its own.

The n x n routes refuse, before any n x n allocation, an n whose estimated
peak memory exceeds N2_MEMORY_BUDGET; the kernel route holds one block of
BLOCK_CELLS / 2 complex cells beyond O(n) and needs no budget.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (NORM_CHECK, NORM_TOL, GridSpec, Wavefunction,
                   momentum_representation, quotient_on, require_normalized)
from .errors import PreconditionError, SelfCheckError, check, failure

WIGNER_EDGE_TOL = 1e-10
BAYES_CELL_TOL = 1e-7

# Budget for the estimated peak of one n x n route: n = 4096 fits for all
# three (0.29 GB for the Margenau-Hill transform, the largest estimate).
N2_MEMORY_BUDGET = 2 ** 30
# Peak bytes per cell: the float result (8) and the temporaries of one row
# block of N2_ROW_BLOCK rows per band, whose share of the cells shrinks as
# n grows.  Rounded up from tracemalloc peaks at n = 256 (11.4, 14.3 and
# 12.4, and 15.4 for the Bayes check, which the Margenau-Hill estimate
# covers; 8.2, 8.6, 8.3 and 8.7 at n = 2048 on one band), so that the
# estimate bounds the peak from n = 256 on.  On the most bands that
# N2_BAND_ROWS allows the peaks were 9.1, 9.8, 9.6 and 10.3 at n = 1024
# (2 bands), 8.7, 9.4, 9.2 and 9.9 at n = 2048 (4) and 8.6, 9.2, 9.1 and
# 9.7 at n = 4096 (8).
WIGNER_BYTES_PER_CELL = 12
MH_BYTES_PER_CELL = 17
CONDITIONAL_BYTES_PER_CELL = 14

# Correlation cells (q rows x n offsets) per block of
# wigner_moment_density_stack, which holds their half s <= 0, 512 KB:
# BLOCK_CELLS // n q rows (32 at n = 2048), or whole rows of a stack of
# small-n states.  Of 2**14..2**19, 2**16 was within 5% of the fastest at
# every n = 512..8192 and on stacks of 33 x 128 and 17 x 256 states; 2**18
# took 1.3 to 1.6 times as long at n >= 2048 (2-vCPU Xeon, 4 MB of L2).
BLOCK_CELLS = 2 ** 16
# q rows per block of the n x n routes: a block of 32 rows stays in cache
# at n = 2048 (1 MB of complex cells), where 256-row blocks of the
# Margenau-Hill table product took 1.5 times as long.
N2_ROW_BLOCK = 32
# Fewest q rows per band of the n x n routes (row_bands), so that below
# n = 1024 they run on the caller's thread alone.  In BENCH_n2_routes.json
# (2-vCPU VM, best of 11 or 31) two bands of 256 rows at n = 512 took
# longer than one on every route (Bayes 3.7 and 4.0 ms against a median
# of 2.9, the bridge 4.3 and 4.1 against 2.8), and two bands of 512 rows
# at n = 1024 took 0.72 to 0.86 of the parent's one-band median.  The
# floor also bounds the number of bands, and so the share of their block
# buffers in the peak memory (above).
N2_BAND_ROWS = 512

# Width, relative to max|values|, of the band above the minimum in which
# QuasiDistribution.min_cell takes the first cell: far above the roundoff
# of the n x n routes (below 2e-15 of the largest cell), far below any
# difference the grid resolves.
MIN_CELL_TIE = 2.0 ** -40


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Real-valued distribution on the (q, p) lattice; may be negative.

    values[i, k] is the cell at (q_i, pgrid[k]); pgrid is ascending with
    spacing dp (pi*hbar/(n*dq) for weyl_wigner and classical,
    2*pi*hbar/(n*dq) for margenau_hill).  A classical density (module
    ``classical``) is nonnegative and normalized.
    """

    kind: str
    grid: GridSpec
    pgrid: np.ndarray
    dp: float
    values: np.ndarray

    def q_marginal(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.dp

    def p_marginal(self) -> np.ndarray:
        return self.values.sum(axis=0) * self.grid.dq

    def min_cell(self) -> tuple[float, float, float]:
        """Minimum cell value and a (q, p) location of it: the first cell
        in row-major order within MIN_CELL_TIE * max|values| of the
        minimum, so that roundoff, between routes or between cells equal
        by symmetry, does not move it."""
        values = self.values
        low = float(values.min())
        near = low + MIN_CELL_TIE * max(float(values.max()), -low)
        i, k = divmod(int(np.argmax(values <= near)), values.shape[1])
        return low, float(self.grid.q[i]), float(self.pgrid[k])

    def moment_densities(self, orders: tuple[int, ...]
                         ) -> tuple[np.ndarray, ...]:
        """sum_k pgrid_k^order values[i, k] dp per order: the densities in
        q of the momentum moments (p^order is the symbol of p_hat^order
        for both kernels, and the variable itself for a classical
        density; order 0 gives the q-marginal), from one product of
        each block of N2_ROW_BLOCK rows with the columns pgrid^order."""
        powers = self.pgrid[:, None] ** np.asarray(orders)
        out = np.empty((len(self.values), len(orders)))
        for _, q in _row_blocks(1, len(out), N2_ROW_BLOCK):
            np.matmul(self.values[q], powers, out=out[q])
        return tuple((out * self.dp).T)


def _require_memory_budget(grid: GridSpec, bytes_per_cell: int,
                           what: str) -> None:
    """PreconditionError if n^2 * bytes_per_cell is over N2_MEMORY_BUDGET."""
    fit = math.isqrt(N2_MEMORY_BUDGET // bytes_per_cell) // 2 * 2
    check("memory budget, estimated peak bytes of the %s at n = %d (%d per "
          "cell)" % (what, grid.n, bytes_per_cell),
          grid.n * grid.n * bytes_per_cell, N2_MEMORY_BUDGET,
          PreconditionError, hint="the largest n that fits is %d" % fit)


def wigner_pgrid(grid: GridSpec) -> tuple[np.ndarray, float]:
    dp = np.pi * grid.hbar / (grid.n * grid.dq)
    return dp * (np.arange(grid.n) - grid.n // 2), dp


def _pad_modes(amps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(wrap, allowed, edge) per amplitude row: the pad mode of the Wigner
    correlation product, periodic (wrap) for a constant-modulus state and
    zeros for a decayed one; whether the row is either; and its edge
    amplitude, which _edge_failure reports for a row that is not."""
    mods = np.abs(amps)
    edge = np.maximum(mods[:, 0], mods[:, -1])
    top = mods.max(axis=1)
    decayed = edge < WIGNER_EDGE_TOL  # out-of-window products are 0
    wrap = ~decayed & (top - mods.min(axis=1) < 1e-10 * top)
    return wrap, decayed | wrap, edge


def _edge_failure(edge: float) -> PreconditionError | None:
    """The error of a row that is not constant-modulus; None if it is
    decayed, its edge amplitude below WIGNER_EDGE_TOL as in _pad_modes."""
    return failure("Wigner edge-decay, |psi| at the window edge", edge,
                   WIGNER_EDGE_TOL, PreconditionError, strict=True,
                   hint="wraparound would corrupt the correlation product")


def _row_blocks(m: int, n: int, rows: int):
    """(r, q) slices covering a stack of m amplitude rows of n points a
    block at a time: `rows` q rows of one stack row, or, when n is at most
    `rows`, whole stack rows, rows // n of them."""
    q_rows = min(rows, n)
    stack_rows = max(1, rows // n)
    for r0 in range(0, m, stack_rows):
        r = slice(r0, min(r0 + stack_rows, m))
        for q0 in range(0, n, q_rows):
            yield r, slice(q0, min(q0 + q_rows, n))


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def row_bands(n: int) -> list[list[slice]]:
    """The q-row slices of _row_blocks(1, n, N2_ROW_BLOCK) split into
    contiguous bands of whole blocks, as even in blocks as they divide:
    one band per usable core, as long as each holds N2_BAND_ROWS rows or
    more (and at most one band per block)."""
    blocks = [q for _, q in _row_blocks(1, n, N2_ROW_BLOCK)]
    count = max(1, min(usable_cores(), len(blocks), n // N2_BAND_ROWS))
    return [blocks[len(blocks) * b // count:len(blocks) * (b + 1) // count]
            for b in range(count)]


def in_row_bands(n: int, band) -> list:
    """[band(blocks) for blocks in row_bands(n)], the bands run at once:
    band 0 on the caller, each other on a thread of its own, started with
    a copy of the caller's context (numpy's error state lives there) and
    joined before this returns.  If any band raises, the first exception
    in band order is raised here, after every band has ended.

    band must write only the rows of its own blocks and call no function
    of the package's public API (a tracer may wrap those, and its span
    stack is the caller's)."""
    bands = row_bands(n)
    results = [None] * len(bands)
    errors = [None] * len(bands)

    def run(b: int) -> None:
        try:
            results[b] = band(bands[b])
        except BaseException as error:  # raised again below, on the caller
            errors[b] = error

    started = []
    try:
        for b in range(1, len(bands)):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, b))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _padded(amps: np.ndarray, wrap: np.ndarray) -> np.ndarray:
    """The amplitude rows padded by n/2 per side, periodically where wrap
    and with zeros elsewhere: padded[r, n/2 + i] = amps[r, i]."""
    m, n = amps.shape
    half = n // 2
    padded = np.zeros((m, 2 * n), dtype=complex)
    padded[:, half:half + n] = amps
    if wrap.any():
        padded[wrap, :half] = amps[wrap, n - half:]
        padded[wrap, half + n:] = amps[wrap, :half]
    return padded


def _windows(padded: np.ndarray) -> np.ndarray:
    """Strided view w of padded rows (_padded) along the last axis:
    w[..., i, n/2 + s] = amps[..., i + s] for the offsets s = -n/2..n/2."""
    n = padded.shape[-1] // 2
    return sliding_window_view(padded, n + 1, axis=-1)[..., :n, :]


def _correlation_blocks(amps: np.ndarray, wrap: np.ndarray, rows: int):
    """(r, q, c) per block of _row_blocks(m, n, rows): the correlation
    rows c[a, b, t] = conj(psi(q_b + s)) psi(q_b - s) of stack row r_a at
    the offsets s = t - n/2 over -n/2..0, padded as _windows pads.  c is
    one buffer, overwritten by the next block."""
    m, n = amps.shape
    half = n // 2
    conjugates = _windows(_padded(np.conj(amps), wrap))
    windows = _windows(_padded(amps, wrap))
    # the first block is the largest
    buffer = np.empty(min(m, max(1, rows // n)) * min(rows, n) * (half + 1),
                      dtype=complex)
    for r, q in _row_blocks(m, n, rows):
        shape = (r.stop - r.start, q.stop - q.start, half + 1)
        c = buffer[:math.prod(shape)].reshape(shape)
        np.multiply(conjugates[r, q, :half + 1], windows[r, q, n:half - 1:-1],
                    out=c)
        yield r, q, c


def _hermitian_rows(blocks, scale: float, out: np.ndarray) -> None:
    """out[q, k] = scale * sum_s x_i(s) e^{2 pi i s (k - n/2)/n} over
    s = -n/2..n/2-1, for each (q, h) of blocks, whose rows h[i, t] =
    x_i(t - n/2), t = 0..n/2, are the half s <= 0 of a Hermitian sequence,
    x_i(-s) = conj(x_i(s)) and x_i(-n/2) real.

    Read with t as the frequency, h is itself the half spectrum of a real
    sequence (t and n - t are the offsets s and -s), so the sum is one
    irfft per row: the factor (-1)^t moves its output by n/2 onto the
    ascending k, which leaves the sign (-1)^(k - n/2).  h is overwritten."""
    n = out.shape[1]
    half = n // 2
    factor = scale * (1.0 - 2.0 * (np.arange(half + 1) % 2))
    for q, h in blocks:
        h *= factor
        rows = out[q]
        np.fft.irfft(h, n, norm="forward", out=rows)
        rows[:, 1 - half % 2::2] *= -1.0


# i^P for P mod 4: a product with it swaps the real and imaginary parts and
# flips signs, so it is exact
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def wigner_transform(psi: Wavefunction) -> QuasiDistribution:
    """Weyl-Wigner distribution of the state on the half-spaced p grid.

    With u(P) = i^P psi(q_{P - n/2}) on the index P of the padded
    amplitude (_padded), conj(u(P + s)) u(P - s) = (-1)^s conj(psi(q + s))
    psi(q - s): the correlation with the factor e^{-i pi s} of the shift
    to p_k = dp (k - n/2) already on it.  Its half s = 0..n/2 is the half
    spectrum of W's row on the ascending k (x(-s) = conj(x(s)), x(n/2)
    real), one irfft per row.  dq/(pi hbar) rides on the conjugated copy.
    """
    require_normalized(psi)
    g = psi.grid
    _require_memory_budget(g, WIGNER_BYTES_PER_CELL, "Wigner transform")
    amps = psi.amp[None, :]
    wrap, allowed, edge = _pad_modes(amps)
    if not allowed[0]:
        raise _edge_failure(edge[0])
    n, half = g.n, g.n // 2
    padded = _padded(amps, wrap)[0]
    padded *= _QUARTER_TURNS[np.arange(2 * n) % 4]
    conjugates = _windows(np.conj(padded) * (g.dq / (np.pi * g.hbar)))
    windows = _windows(padded)
    values = np.empty((n, n))

    def band(blocks):
        buffer = np.empty((min(N2_ROW_BLOCK, n), half + 1), dtype=complex)
        for q in blocks:
            c = buffer[:q.stop - q.start]
            np.multiply(conjugates[q, half:], windows[q, half::-1], out=c)
            np.fft.irfft(c, n, norm="forward", out=values[q])

    in_row_bands(n, band)
    pgrid, dp = wigner_pgrid(g)
    return QuasiDistribution(kind="weyl_wigner", grid=g, pgrid=pgrid,
                             dp=dp, values=values)


def wigner_moment_densities(psi: Wavefunction,
                            orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The momentum moment densities sum_k pgrid_k^order W[i, k] dp of the
    Wigner transform, one per order, without building the transform: the
    one-row case of wigner_moment_density_stack, raising its error."""
    densities, error = wigner_moment_density_stack(psi.amp[None, :], psi.grid,
                                                   orders)
    if error is not None:
        raise error
    return tuple(densities[:, 0])


def wigner_moment_density_stack(amps: np.ndarray, grid: GridSpec,
                                 orders: tuple[int, ...]) -> tuple:
    """Wigner moment densities of a stack of amplitude rows (m, n) on one
    grid: (densities, error), densities[k, r] the density of order
    orders[k] of row r.

    Each row is checked as wigner_moment_densities checks a state, first
    its normalization, then its pad mode (_pad_modes).  densities covers
    the rows before the first that fails, and error is that row's
    PreconditionError (None if none fails), so that a caller checking the
    rows in order can raise it in its place.

    Each density is linear in the correlation row c_i(s) =
    conj(psi(q_{i+s})) psi(q_{i-s}): it is Re(c_i @ K) with the kernel
    K = fftshift(n ifft(ifftshift(pgrid^order))) dp dq/(pi hbar), the
    discrete form of (hbar/2i)^order d^order/dy^order of
    conj(psi(q + y/2)) psi(q - y/2) at y = 0.  As c_i(-s) = conj(c_i(s))
    and K is the transform of a real sequence, the columns s = -n/2+1..-1
    count twice in place of s = 1..n/2-1, leaving s = -n/2..0, the blocks
    of _correlation_blocks.  K is built once and the stack and its
    conjugate padded once per call.  The (row, q) correlation rows go
    BLOCK_CELLS // n at a time, whole rows of the stack together when n^2
    is at most BLOCK_CELLS, so the peak memory is about BLOCK_CELLS / 2
    complex cells beyond the padded stacks and no n x n array is built.
    """
    norms = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1) * grid.dq)
    wrap, allowed, edge = _pad_modes(amps)
    failed = ~(np.abs(norms - 1.0) <= NORM_TOL) | ~allowed
    valid, error = len(amps), None
    if failed.any():
        valid = int(np.argmax(failed))
        error = (failure(NORM_CHECK, abs(norms[valid] - 1.0), NORM_TOL,
                         PreconditionError) or _edge_failure(edge[valid]))
    half = grid.n // 2
    pgrid, dp = wigner_pgrid(grid)
    # K at s = -t is rfft(ifftshift(pgrid^order))[t] for t = 0..n/2
    powers = np.fft.ifftshift(pgrid) ** np.asarray(orders)[:, None]
    K = np.fft.rfft(powers)[:, ::-1] * (dp * grid.dq / (np.pi * grid.hbar))
    K[:, 1:half] *= 2.0
    # Re(K c) = K.real c.real - K.imag c.imag: one real product of the
    # interleaved (real, imag) views of conj(K) and the correlation block
    kernel = np.conj(K).view(float)
    out = np.empty((len(orders), valid, grid.n))
    for r, q, c in _correlation_blocks(amps[:valid], wrap[:valid],
                                       max(1, BLOCK_CELLS // grid.n)):
        block = kernel @ c.reshape(-1, half + 1).view(float).T
        out[:, r, q] = block.reshape(len(orders), *c.shape[:2])
    return out, error


def _margenau_hill_blocks(psi: Wavefunction):
    """Check the state (normalization, then the memory budget) and return
    cells(blocks), the generator of (q, z) per block q of one band of
    row_bands, Re(z) the Margenau-Hill cells of those rows; z is one
    buffer per generator, overwritten by the next block.

    On the grid q_j p_k/hbar = q_min p_k/hbar + 2 pi j k/n - pi j, so
    F_MH[j, k] = Re(a_j b_k omega^(j k)) with a_j = (-1)^j conj(psi_j),
    b_k = phi_k e^{i q_min p_k/hbar}/sqrt(2 pi hbar) and omega =
    e^{2 pi i/n}.  Row r of the block from j0 is a_j T[r] omega^(j0 k),
    from the table T[r, k] = b_k omega^(r k), built once per call, and
    one row of the roots of unity, read from their 1D table at the
    residues j0 k mod n."""
    require_normalized(psi)
    g = psi.grid
    _require_memory_budget(g, MH_BYTES_PER_CELL, "Margenau-Hill transform")
    n = g.n
    a = np.conj(psi.amp)
    a[1::2] *= -1.0
    k = np.arange(n)
    # q_min p_k/hbar = 2 pi (q_min/L) (k - n/2) turns, reduced before the
    # exp (exact for a symmetric window, where q_min/L = -1/2)
    turns = g.q_min / g.length * (k - n // 2)
    b = (momentum_representation(psi)
         * np.exp(2j * np.pi * (turns - np.round(turns)))
         / np.sqrt(2.0 * np.pi * g.hbar))
    omega = np.exp(2j * np.pi * k / n)
    table = omega[np.multiply.outer(np.arange(min(N2_ROW_BLOCK, n)), k) % n]
    table *= b

    def cells(blocks):
        buffer = np.empty_like(table)
        for q in blocks:
            rows = q.stop - q.start
            z = buffer[:rows]
            np.multiply(table[:rows], omega[q.start * k % n], out=z)
            z *= a[q, None]
            yield q, z
    return cells


def margenau_hill_transform(psi: Wavefunction) -> QuasiDistribution:
    """Margenau-Hill distribution on the standard momentum grid."""
    cells = _margenau_hill_blocks(psi)
    g = psi.grid
    values = np.empty((g.n, g.n))

    def band(blocks):
        for q, z in cells(blocks):
            values[q] = z.real

    in_row_bands(g.n, band)
    return QuasiDistribution(kind="margenau_hill", grid=g, pgrid=g.p,
                             dp=g.dp, values=values)


def conditional_momentum_S(psi: Wavefunction) -> np.ndarray:
    """P_S(p|q): discrete inversion of the characteristic function over the
    on-grid tau lattice, rows q, columns ascending standard p.

    Rows are computed wherever |psi(q)| is at least the live-row bound
    below (the Bayes-product identity needs them well below the rho mask);
    the rows under it, exact nodes among them, are zero-filled, matching
    the Margenau-Hill rows there, whose cells are at most
    |psi(q)| max|phi| / sqrt(2 pi hbar).  Row sums satisfy
    sum_k P(p_k|q) dp = 1 (G(0, q) = 1 by construction) up to roundoff
    relative to the row's largest cell, which grows like 1/|psi(q)|.

    G(-s, q) = conj(G(s, q)), so the shifts s = -n/2..0 of the
    periodically padded amplitude carry every row (_hermitian_rows).  Each
    live row takes one reciprocal r = 1/(2 psi(q)) and multiplies by it.

    Live-row bound.  With A = max|psi|, c = dq/(2 pi hbar) and M the
    largest float, a row is live if |psi(q)| >= 2 n max(1, c) max(1, A)/M.
    Then |r| <= M/(4n), each term |psi(q -+ s) r| <= M/(4n), the scaled
    half-spectrum c |G| <= M/(2n), and the row's irfft sum, at most n
    times that, stays below M/2: no cell overflows, so none is inf or
    nan.
    """
    require_normalized(psi)
    g = psi.grid
    _require_memory_budget(g, CONDITIONAL_BYTES_PER_CELL,
                           "conditional momentum distribution")
    n, half = g.n, g.n // 2
    amp = psi.amp
    scale = g.dq / (2.0 * np.pi * g.hbar)
    modulus = np.abs(amp)
    bound = (2.0 * n * max(1.0, scale) * max(1.0, float(modulus.max()))
             / np.finfo(float).max)
    live = modulus >= bound
    reciprocal = quotient_on(live, 0.5, amp)[:, None]  # dead rows zeroed below
    windows = _windows(_padded(amp[None, :], np.ones(1, dtype=bool)))[0]

    def shifts(blocks):
        # x(s) = G(-s, q) = psi(q - s)/(2 psi(q)) + conj(psi(q + s)/(2 psi(q)))
        x = np.empty((min(N2_ROW_BLOCK, n), half + 1), dtype=complex)
        tail = np.empty_like(x)
        for q in blocks:
            h, t = x[:q.stop - q.start], tail[:q.stop - q.start]
            np.multiply(windows[q, :half + 1], reciprocal[q], out=t)
            np.multiply(windows[q, n:half - 1:-1], reciprocal[q], out=h)
            h += np.conjugate(t, out=t)
            yield q, h

    values = np.empty((n, n))
    in_row_bands(n, lambda blocks: _hermitian_rows(shifts(blocks), scale,
                                                   values))
    values[~live] = 0.0
    return values


def bayes_product(psi: Wavefunction,
                  conditional: np.ndarray) -> QuasiDistribution:
    """rho(q) * P_S(p|q) per cell; must reconstruct the Margenau-Hill
    distribution within 1e-7 per cell or the two pipelines have diverged
    (SelfCheckError).  The Margenau-Hill rows are built and compared a
    block at a time, so the reference is never held whole."""
    require_normalized(psi)
    g = psi.grid
    if conditional.shape != (g.n, g.n):
        raise PreconditionError("conditional distribution has wrong shape %s"
                                % (conditional.shape,))
    cells = _margenau_hill_blocks(psi)
    rho = psi.rho()[:, None]
    values = np.empty((g.n, g.n))

    def band(blocks):
        scratch = np.empty((min(N2_ROW_BLOCK, g.n), g.n))
        deviation = 0.0
        for q, z in cells(blocks):
            rows = np.multiply(rho[q], conditional[q], out=values[q])
            d = np.subtract(z.real, rows, out=scratch[:q.stop - q.start])
            deviation = np.maximum(deviation, np.maximum(d.max(), -d.min()))
        return deviation

    # max, min and np.maximum propagate NaN, so a NaN cell in any band
    # fails the check
    deviation = np.maximum.reduce(in_row_bands(g.n, band))
    check("Bayes product, largest cell deviation from the Margenau-Hill "
          "distribution", deviation, BAYES_CELL_TOL, SelfCheckError)
    return QuasiDistribution(kind="margenau_hill", grid=g, pgrid=g.p,
                             dp=g.dp, values=values)
