"""Classical phase-space reference: local moments, observable distributions,
Bayes' rule, and the exact classical variance decomposition.

A classical density is a phasespace.QuasiDistribution of kind "classical"
that is a genuine (nonnegative, normalized) probability density F(q, p),
on the same (q, p) lattice as the Wigner transform so that the Gaussian
bridge comparison is a pointwise array comparison.  All classical local
variances are nonnegative, which is the structural contrast with the
quantum definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile, Wavefunction,
                   quotient_on, variance_profile)
from .errors import PreconditionError, check
from .moments import VarianceDecomposition
from .phasespace import QuasiDistribution, wigner_pgrid, wigner_transform
from .states import Gaussian, StateRecipe, synthesize

BIN_SUPPORT_EPS = 1e-12

# Depth below zero down to which wigner_as_classical clips Wigner cells.
WIGNER_CLIP_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalObservable:
    """A dynamical variable a(q, p) sampled on the lattice."""

    values: np.ndarray


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


def momentum_variable(F: QuasiDistribution) -> ClassicalObservable:
    """a(q, p) = p on the lattice of F."""
    return ClassicalObservable(np.broadcast_to(
        F.pgrid[None, :], F.values.shape).copy())


def position_variable(F: QuasiDistribution, g: np.ndarray) -> ClassicalObservable:
    """a(q, p) = g(q), p-independent."""
    g = np.asarray(g, dtype=float)
    return ClassicalObservable(np.broadcast_to(
        g[:, None], F.values.shape).copy())


def _position_mask(F: QuasiDistribution, eps_factor: float) -> np.ndarray:
    P = F.q_marginal()
    mask = P >= eps_factor * P.max()
    if not mask.any():
        raise PreconditionError("classical density has empty support")
    return mask


def classical_local_moment(F: QuasiDistribution, a: ClassicalObservable,
                           order: int,
                           eps_factor: float = DEFAULT_MASK_EPS) -> RealProfile:
    """n-th conditional moment of a given q: (sum_k a^n F dp) / P(q)."""
    if not 1 <= order <= 4:
        raise PreconditionError("moment order must be in 1..4, got %d" % order)
    _check_density(F)
    P = F.q_marginal()
    mask = _position_mask(F, eps_factor)
    density = (a.values ** order * F.values).sum(axis=1) * F.dp
    return RealProfile(F.grid, quotient_on(mask, density, P), mask)


def classical_local_variance(F: QuasiDistribution, a: ClassicalObservable,
                             eps_factor: float = DEFAULT_MASK_EPS) -> RealProfile:
    """Conditional variance of a given q; a true variance, nonnegative."""
    return variance_profile(classical_local_moment(F, a, 1, eps_factor),
                            classical_local_moment(F, a, 2, eps_factor))


def observable_distribution(F: QuasiDistribution, a: ClassicalObservable,
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
    support = F.values >= BIN_SUPPORT_EPS * F.values.max()
    levels = np.unique(a.values[support])
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
    b = np.clip(np.floor((a.values - edges[0]) / da).astype(int), 0,
                bin_count - 1)
    # one bincount over the flattened (bin, q) cells: a density in (a, q)
    joint = np.bincount((b * n + np.arange(n)[:, None]).ravel(),
                        (F.values * F.dp / da).ravel(),
                        bin_count * n).reshape(bin_count, n)

    marginal = joint.sum(axis=1) * F.grid.dq
    mask = _position_mask(F, eps_factor)
    conditional = quotient_on(mask[None, :], joint, F.q_marginal()[None, :])
    return ObservableDistribution(edges=edges, centers=centers, da=da,
                                  joint=joint, marginal=marginal,
                                  conditional=conditional, mask=mask)


def classical_variance_decomposition(F: QuasiDistribution,
                                     a: ClassicalObservable,
                                     eps_factor: float = DEFAULT_MASK_EPS
                                     ) -> VarianceDecomposition:
    """Exact split of sigma^2_a; both components nonnegative.

    The sums run over every column with P(q) > 0 (not just the display
    mask): the discrete law of total variance is then an algebraic
    identity, exact to roundoff."""
    _check_density(F)
    P = F.q_marginal()
    live = P > 0.0
    if not live.any():
        raise PreconditionError("classical density has empty support")
    mean = float((a.values * F.values).sum() * F.grid.dq * F.dp)
    m1_density = (a.values * F.values).sum(axis=1) * F.dp
    m2_density = (a.values ** 2 * F.values).sum(axis=1) * F.dp
    m1 = m1_density[live] / P[live]
    m2 = m2_density[live] / P[live]
    weights = P[live] * F.grid.dq
    avg_local_variance = float(np.sum((m2 - m1 ** 2) * weights))
    variance_of_local_avg = float(np.sum((m1 - mean) ** 2 * weights))
    return VarianceDecomposition(
        definition="classical",
        avg_local_variance=avg_local_variance,
        variance_of_local_avg=variance_of_local_avg,
        total=avg_local_variance + variance_of_local_avg)


def direct_classical_variance(F: QuasiDistribution,
                              a: ClassicalObservable) -> float:
    mean = float((a.values * F.values).sum() * F.grid.dq * F.dp)
    return float(((a.values - mean) ** 2 * F.values).sum() * F.grid.dq * F.dp)


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
    check("Wigner of a gaussian, depth of its lowest cell below zero",
          -W.values.min(), WIGNER_CLIP_TOL, PreconditionError)
    values = np.clip(W.values, 0.0, None)
    values = values / (values.sum() * grid.dq * W.dp)
    return replace(W, kind="classical", values=values)


def classical_pipeline_profiles(F: QuasiDistribution,
                                psi: Wavefunction,
                                eps_factor: float = DEFAULT_MASK_EPS
                                ) -> tuple[RealProfile, RealProfile]:
    """Classical conditional mean and variance of p for the bridge check,
    masked by the quantum state's rho threshold."""
    a = momentum_variable(F)
    m1 = classical_local_moment(F, a, 1, eps_factor)
    var = variance_profile(m1, classical_local_moment(F, a, 2, eps_factor))
    mask = psi.mask(eps_factor) & m1.mask
    return (RealProfile(F.grid, m1.values, mask),
            RealProfile(F.grid, var.values, mask))
