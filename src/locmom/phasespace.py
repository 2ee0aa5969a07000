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
densities of any lattice (W, MH or classical) come from one product of
its values with the columns pgrid^order (QuasiDistribution.
moment_densities).  This module builds
on ``core`` only; the local moments and variances built from these
densities live in ``moments``.

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
and location as first-class metadata.

Row blocks
----------
The three n x n routes (Wigner, Margenau-Hill, the conditional P_S(p|q))
fill one preallocated float n x n result N2_ROW_BLOCK q rows at a time
(_row_blocks); no n x n complex array is built.

* Hermitian half.  The correlation row c_i(s) and the characteristic
  function G(s, q) satisfy x(-s) = conj(x(s)), and at s = -n/2 the row
  is 0 (zero-padded) or real (wrapped), so the offsets s = -n/2..0 carry
  the whole row, and one irfft per row over them gives it on the
  ascending p grid (_hermitian_rows).  The Wigner transform and the
  moment-density kernel read the same correlation blocks
  (_correlation_blocks); the kernel multiplies them by K, the transform
  irfft's them.
* Root of unity.  On the grid q_j p_k/hbar = q_min p_k/hbar + 2 pi j k/n
  - pi j, so the Margenau-Hill phase factors into a row sign, a column
  phase and omega^(j k mod n), read from a 1D table of omega = e^{2 pi i/n}
  (_margenau_hill_blocks) instead of n^2 complex exponentials.
* One reciprocal per row.  The conditional multiplies a row's shifts by
  1/(2 psi(q)) and zero-fills the rows too small for every cell to stay
  finite (conditional_momentum_S).
* Bayes check.  bayes_product compares rho * P_S with the Margenau-Hill
  rows block by block, reducing with NaN-propagating maxima, and checks
  the largest deviation once; the two pipelines share no step.

The n x n routes refuse, before any n x n allocation, an n whose estimated
peak memory exceeds N2_MEMORY_BUDGET; the kernel route holds
O(ROW_BLOCK * n) and needs no budget.
"""

from __future__ import annotations

import math
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
# block of N2_ROW_BLOCK rows, whose share of the cells shrinks as n grows.
# Rounded up from tracemalloc peaks at n = 256 (10.3, 15.3 and 12.3; 8.2,
# 8.8 and 8.3 at n = 2048), so that the estimate bounds the peak from
# n = 256 on.
WIGNER_BYTES_PER_CELL = 12
MH_BYTES_PER_CELL = 17
CONDITIONAL_BYTES_PER_CELL = 14

# Rows of the correlation product held at once by wigner_moment_density_stack.
ROW_BLOCK = 256
# q rows per block of the n x n routes: a block of 32 rows stays in cache
# at n = 2048 (1 MB of complex cells), where 256-row blocks of the
# Margenau-Hill table product took 1.5 times as long.
N2_ROW_BLOCK = 32


@dataclass(frozen=True)
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

    def total(self) -> float:
        return float(self.values.sum() * self.grid.dq * self.dp)

    def min_cell(self) -> tuple[float, float, float]:
        """Minimum cell value and its (q, p) location."""
        flat = int(np.argmin(self.values))
        i, k = divmod(flat, self.values.shape[1])
        return float(self.values[i, k]), float(self.grid.q[i]), float(self.pgrid[k])

    def moment_densities(self, orders: tuple[int, ...]
                         ) -> tuple[np.ndarray, ...]:
        """sum_k pgrid_k^order values[i, k] dp per order: the densities in
        q of the momentum moments (p^order is the symbol of p_hat^order
        for both kernels, and the variable itself for a classical
        density), from one pass over the lattice."""
        powers = self.pgrid[:, None] ** np.asarray(orders)
        return tuple((self.values @ powers * self.dp).T)


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


def _windows(amps: np.ndarray, wrap: np.ndarray) -> np.ndarray:
    """Strided view w of the amplitude rows padded by n/2 per side,
    periodically where wrap and with zeros elsewhere:
    w[r, i, n/2 + s] = amps[r, i + s] for the offsets s = -n/2..n/2."""
    m, n = amps.shape
    half = n // 2
    padded = np.zeros((m, 2 * n), dtype=complex)
    padded[:, half:half + n] = amps
    if wrap.any():
        padded[wrap, :half] = amps[wrap, n - half:]
        padded[wrap, half + n:] = amps[wrap, :half]
    return sliding_window_view(padded, n + 1, axis=1)[:, :n]


def _correlation_blocks(amps: np.ndarray, wrap: np.ndarray, rows: int):
    """(r, q, c) per block of _row_blocks(m, n, rows): the correlation
    rows c[a, b, t] = conj(psi(q_b + s)) psi(q_b - s) of stack row r_a at
    the offsets s = t - n/2 over -n/2..0, padded as _windows pads.  c is
    one buffer, overwritten by the next block."""
    m, n = amps.shape
    half = n // 2
    windows = _windows(amps, wrap)
    buffer = np.empty(rows * (half + 1), dtype=complex)
    for r, q in _row_blocks(m, n, rows):
        shape = (r.stop - r.start, q.stop - q.start, half + 1)
        c = buffer[:math.prod(shape)].reshape(shape)
        np.conjugate(windows[r, q, :half + 1], out=c)
        c *= windows[r, q, n:half - 1:-1]
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


def wigner_transform(psi: Wavefunction) -> QuasiDistribution:
    """Weyl-Wigner distribution of the state on the half-spaced p grid."""
    require_normalized(psi)
    g = psi.grid
    _require_memory_budget(g, WIGNER_BYTES_PER_CELL, "Wigner transform")
    amps = psi.amp[None, :]
    wrap, allowed, edge = _pad_modes(amps)
    if not allowed[0]:
        raise _edge_failure(edge[0])
    values = np.empty((g.n, g.n))
    _hermitian_rows(((q, c[0]) for _, q, c in
                     _correlation_blocks(amps, wrap, N2_ROW_BLOCK)),
                    g.dq / (np.pi * g.hbar), values)
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
    of _correlation_blocks.  K is built once and the stack padded once
    per call.  The (row, q) correlation rows go ROW_BLOCK at a time, whole
    rows of the stack together when n is at most ROW_BLOCK, so the peak
    memory is O(ROW_BLOCK * n) beyond the padded stack and no n x n array
    is built.
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
    for r, q, c in _correlation_blocks(amps[:valid], wrap[:valid], ROW_BLOCK):
        block = kernel @ c.reshape(-1, half + 1).view(float).T
        out[:, r, q] = block.reshape(len(orders), *c.shape[:2])
    return out, error


def _margenau_hill_blocks(psi: Wavefunction):
    """Check the state (normalization, then the memory budget) and return
    the generator of (q, z) per block of N2_ROW_BLOCK q rows, Re(z) the
    Margenau-Hill cells of those rows; z is fresh per block.

    On the grid q_j p_k/hbar = q_min p_k/hbar + 2 pi j k/n - pi j, so
    F_MH[j, k] = Re(a_j b_k omega^(j k mod n)) with a_j = (-1)^j
    conj(psi_j), b_k = phi_k e^{i q_min p_k/hbar}/sqrt(2 pi hbar) and the
    1D table omega^m = e^{2 pi i m/n}.  The residues of j k are those of
    the block's first row plus the fixed (r k) mod n of its row r, whose
    sum indexes the table laid out over two turns."""
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
    omega = np.tile(np.exp(2j * np.pi * np.arange(n) / n), 2)
    residues = np.multiply.outer(np.arange(min(N2_ROW_BLOCK, n)), k) % n

    def blocks():
        for _, q in _row_blocks(1, n, N2_ROW_BLOCK):
            z = omega[residues[:q.stop - q.start] + q.start * k % n]
            z *= b
            z *= a[q, None]
            yield q, z
    return blocks()


def margenau_hill_transform(psi: Wavefunction) -> QuasiDistribution:
    """Margenau-Hill distribution on the standard momentum grid."""
    blocks = _margenau_hill_blocks(psi)
    g = psi.grid
    values = np.empty((g.n, g.n))
    for q, z in blocks:
        values[q] = z.real
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
    windows = _windows(amp[None, :], np.ones(1, dtype=bool))[0]

    def blocks():
        # x(s) = G(-s, q) = psi(q - s)/(2 psi(q)) + conj(psi(q + s)/(2 psi(q)))
        x = np.empty((min(N2_ROW_BLOCK, n), half + 1), dtype=complex)
        tail = np.empty_like(x)
        for _, q in _row_blocks(1, n, N2_ROW_BLOCK):
            h, t = x[:q.stop - q.start], tail[:q.stop - q.start]
            np.multiply(windows[q, :half + 1], reciprocal[q], out=t)
            np.multiply(windows[q, n:half - 1:-1], reciprocal[q], out=h)
            h += np.conjugate(t, out=t)
            yield q, h

    values = np.empty((n, n))
    _hermitian_rows(blocks(), scale, values)
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
    blocks = _margenau_hill_blocks(psi)
    values = psi.rho()[:, None] * conditional
    deviation = 0.0
    for q, z in blocks:
        # np.max and np.maximum propagate NaN, so a NaN cell fails the check
        deviation = np.maximum(deviation, np.max(np.abs(values[q] - z.real)))
    check("Bayes product, largest cell deviation from the Margenau-Hill "
          "distribution", deviation, BAYES_CELL_TOL, SelfCheckError)
    return QuasiDistribution(kind="margenau_hill", grid=g, pgrid=g.p,
                             dp=g.dp, values=values)
