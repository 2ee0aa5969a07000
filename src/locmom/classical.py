"""Classical phase-space reference: local moments, observable distributions,
Bayes' rule, and the exact classical variance decomposition.

A classical density is a phasespace.QuasiDistribution of kind "classical"
that is a genuine (nonnegative, normalized) probability density F(q, p),
on the same (q, p) lattice as the Wigner transform so that the Gaussian
bridge comparison is a pointwise array comparison.  All classical local
variances are nonnegative, which is the structural contrast with the
quantum definitions.

An observable a(q, p) is an array that broadcasts to the lattice.
classical_local_moment is the general n x n route for any a.  The bridge
reads P(q) and the densities of p and p^2 off the lattice in one pass,
as the quantum side reads its moments (QuasiDistribution.
moment_densities, a row block at a time, order 0 the q-marginal), with
no n x n temporary.  wigner_as_classical finds the lowest cell of the
transform it has just built and clips it in place in one pass of
N2_ROW_BLOCK rows at a time, then renormalizes it.  Masks, quotients and
the decomposition go through the same core layer as the quantum
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile,
                   VarianceDecomposition, Wavefunction, local_quotients,
                   split_total_variance, support_mask, variance_profile)
from .errors import PreconditionError, check
from .moments import MOMENT_ORDER_CAP
from .phasespace import (N2_ROW_BLOCK, QuasiDistribution, wigner_pgrid,
                         wigner_transform)
from .states import Gaussian, StateRecipe, synthesize

BIN_SUPPORT_EPS = 1e-12

# Depth below zero down to which wigner_as_classical clips Wigner cells.
WIGNER_CLIP_TOL = 1e-9


@dataclass(frozen=True)
class ObservableDistribution:
    """Histogram realization of P(a), P(a,q) and P(a|q).

    edges are right-open bins with the top edge closed; out-of-range values
    (possible only below the support threshold) are clipped into the end
    bins, so the total mass is preserved exactly.  joint[b, j] is the
    density P(a_b, q_j); conditional rows are defined only where mask[j].
    """

    edges: np.ndarray
    centers: np.ndarray
    da: float
    joint: np.ndarray
    marginal: np.ndarray
    conditional: np.ndarray
    mask: np.ndarray


def _check_density(F: QuasiDistribution) -> None:
    check("classical density, depth of its lowest cell below zero",
          -F.values.min(), 0.0, PreconditionError)
    check("classical density, |total - 1|", abs(F.total() - 1.0), 1e-10,
          PreconditionError)


def gaussian_density(grid: GridSpec, mean_q: float, mean_p: float,
                     sigma_q: float, sigma_p: float,
                     corr: float = 0.0) -> QuasiDistribution:
    """Bivariate Gaussian F(q, p) on the Wigner lattice, renormalized on the
    grid (the lattice sum of a well-resolved Gaussian is already exact to
    roundoff)."""
    if not (sigma_q > 0 and sigma_p > 0):
        raise PreconditionError("sigma_q and sigma_p must be positive")
    if not -1.0 < corr < 1.0:
        raise PreconditionError("correlation must lie in (-1, 1)")
    pgrid, dp = wigner_pgrid(grid)
    dq_ = (grid.q - mean_q)[:, None] / sigma_q
    dp_ = (pgrid - mean_p)[None, :] / sigma_p
    quad = (dq_ ** 2 - 2.0 * corr * dq_ * dp_ + dp_ ** 2) / (2.0 * (1.0 - corr ** 2))
    values = np.exp(-quad)
    values /= values.sum() * grid.dq * dp
    return QuasiDistribution(kind="classical", grid=grid, pgrid=pgrid, dp=dp,
                             values=values)


def momentum_variable(F: QuasiDistribution) -> np.ndarray:
    """a(q, p) = p on the lattice of F, a read-only broadcast of pgrid."""
    return np.broadcast_to(F.pgrid[None, :], F.values.shape)


def position_variable(F: QuasiDistribution, g: np.ndarray) -> np.ndarray:
    """a(q, p) = g(q), p-independent, a read-only broadcast of g."""
    return np.broadcast_to(np.asarray(g, dtype=float)[:, None],
                           F.values.shape)


def _densities(F: QuasiDistribution, a: np.ndarray,
               orders: tuple[int, ...]) -> list[np.ndarray]:
    """sum_k a^k F dp per order k: the densities in q of a's moments."""
    return [(a ** k * F.values).sum(axis=1) * F.dp for k in orders]


def _local_moments(F: QuasiDistribution, a: np.ndarray,
                   orders: tuple[int, ...], eps_factor: float) -> tuple:
    _check_density(F)
    return local_quotients(F.grid, F.q_marginal(), _densities(F, a, orders),
                           eps_factor)


def classical_local_moment(F: QuasiDistribution, a: np.ndarray, order: int,
                           eps_factor: float = DEFAULT_MASK_EPS) -> RealProfile:
    """n-th conditional moment of a given q: (sum_k a^n F dp) / P(q)."""
    if not 1 <= order <= MOMENT_ORDER_CAP:
        raise PreconditionError("moment order must be in 1..%d, got %d"
                                % (MOMENT_ORDER_CAP, order))
    return _local_moments(F, a, (order,), eps_factor)[0]


def classical_local_variance(F: QuasiDistribution, a: np.ndarray,
                             eps_factor: float = DEFAULT_MASK_EPS) -> RealProfile:
    """Conditional variance of a given q; a true variance, nonnegative."""
    return variance_profile(*_local_moments(F, a, (1, 2), eps_factor))


def observable_distribution(F: QuasiDistribution, a: np.ndarray,
                            bin_count: int,
                            eps_factor: float = DEFAULT_MASK_EPS
                            ) -> ObservableDistribution:
    """Histogram P(a), P(a,q), P(a|q): each lattice cell deposits F*dq*dp
    into the bin containing a(q_j, p_k).

    Bin centers span the support-weighted range of a (cells with
    F < 1e-12 * max F are ignored when choosing the range, then clipped
    into the end bins), so the resolution follows the occupied region
    rather than extreme a-values of negligible weight.  Sampled observables
    take values on a lattice of their own (a = p is quantized in steps of
    dp); when the requested bins would under-resolve that value lattice,
    the count of lattice values per bin oscillates and the histogram
    density picks up O(1) jitter.  The bin width is therefore snapped to an
    integer multiple of the detected value quantum and the edges
    phase-aligned so every interior bin holds the same number of values.
    """
    if bin_count < 16:
        raise PreconditionError("bin_count must be >= 16, got %d" % bin_count)
    _check_density(F)
    a = np.broadcast_to(a, F.values.shape)
    # the rule over the whole lattice, not per q row
    support = support_mask(F.values.ravel(), BIN_SUPPORT_EPS)
    levels = np.unique(a[support.reshape(a.shape)])
    a_lo, a_hi = float(levels[0]), float(levels[-1])
    if a_hi == a_lo:
        # constant observable: one occupied bin of unit width around it
        da = 1.0
        centers = a_lo + da * (np.arange(bin_count) - bin_count // 2)
    else:
        raw = (a_hi - a_lo) / (bin_count - 1)
        quantum = float(np.median(np.diff(levels)))
        if quantum > 0 and raw < 32.0 * quantum:
            mult = int(np.ceil(raw / quantum - 1e-9))
            da = mult * quantum
            start = a_lo + 0.5 * (mult - 1) * quantum
        else:
            da = raw
            start = a_lo
        centers = start + da * np.arange(bin_count)
    edges = np.concatenate([centers - 0.5 * da, [centers[-1] + 0.5 * da]])

    n = F.grid.n
    b = np.clip(np.floor((a - edges[0]) / da).astype(int), 0,
                bin_count - 1)
    # one bincount over the flattened (bin, q) cells: a density in (a, q)
    joint = np.bincount((b * n + np.arange(n)[:, None]).ravel(),
                        (F.values * F.dp / da).ravel(),
                        bin_count * n).reshape(bin_count, n)

    marginal = joint.sum(axis=1) * F.grid.dq
    (conditional,) = local_quotients(F.grid, F.q_marginal(), [joint],
                                     eps_factor)
    return ObservableDistribution(edges=edges, centers=centers, da=da,
                                  joint=joint, marginal=marginal,
                                  conditional=conditional.values,
                                  mask=conditional.mask)


def classical_variance_decomposition(F: QuasiDistribution, a: np.ndarray
                                     ) -> VarianceDecomposition:
    """Exact split of sigma^2_a; both components nonnegative to roundoff.

    core.split_total_variance runs over every column with P(q) > 0: the
    discrete law of total variance is then an algebraic identity, exact to
    roundoff."""
    _check_density(F)
    P = F.q_marginal()
    return split_total_variance("classical", F.grid.dq, P,
                                *_densities(F, a, (1, 2)), P > 0.0)


def direct_classical_variance(F: QuasiDistribution, a: np.ndarray) -> float:
    mean = float((a * F.values).sum() * F.grid.dq * F.dp)
    return float(((a - mean) ** 2 * F.values).sum() * F.grid.dq * F.dp)


def wigner_as_classical(recipe: StateRecipe, grid: GridSpec,
                        psi: Wavefunction | None = None) -> QuasiDistribution:
    """Wrap the Wigner transform of a Gaussian state as a genuine classical
    density (Gaussian Wigner functions are the nonnegative ones).

    psi is the state synthesized from recipe on grid; it is synthesized
    here if not given.  Negative cells must stay above -WIGNER_CLIP_TOL;
    they are clipped to zero and the density renormalized.  Non-Gaussian
    recipes are rejected, since clipping would erase real negativity.
    """
    if not isinstance(recipe, Gaussian):
        raise PreconditionError(
            "Wigner not nonnegative for %s states; only gaussian recipes "
            "yield a classical density" % type(recipe).__name__)
    W = wigner_transform(synthesize(recipe, grid) if psi is None else psi)
    # the transform is fresh and ours: find its lowest cell and clip it in
    # place a row block at a time, then renormalize; np.minimum propagates
    # NaN, so a NaN cell fails the check
    values = W.values
    lowest = np.inf
    for start in range(0, grid.n, N2_ROW_BLOCK):
        rows = values[start:start + N2_ROW_BLOCK]
        lowest = np.minimum(lowest, rows.min())
        np.clip(rows, 0.0, None, out=rows)
    check("Wigner of a gaussian, depth of its lowest cell below zero",
          -lowest, WIGNER_CLIP_TOL, PreconditionError)
    values /= values.sum() * grid.dq * W.dp
    return replace(W, kind="classical")


def classical_pipeline_profiles(F: QuasiDistribution,
                                psi: Wavefunction,
                                eps_factor: float = DEFAULT_MASK_EPS
                                ) -> tuple[RealProfile, RealProfile]:
    """Classical conditional mean and variance of p for the bridge check,
    masked by the quantum state's rho threshold; P(q) and the densities
    of p and p^2 come from one pass over the lattice
    (F.moment_densities, order 0 the q-marginal)."""
    _check_density(F)
    P, first, second = F.moment_densities((0, 1, 2))
    m1, m2 = local_quotients(F.grid, P, (first, second), eps_factor)
    mask = psi.mask(eps_factor) & m1.mask
    return replace(m1, mask=mask), replace(variance_profile(m1, m2), mask=mask)
