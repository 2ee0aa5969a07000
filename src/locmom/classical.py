"""Classical phase-space reference: local moments, Bayes' rule, and the
exact classical variance decomposition.

A classical density is a phasespace.QuasiDistribution of kind "classical"
that is a genuine (nonnegative, normalized) probability density F(q, p),
on the same (q, p) lattice as the Wigner transform so that the Gaussian
bridge comparison is a pointwise array comparison.  All classical local
variances are nonnegative, which is the structural contrast with the
quantum definitions.

An observable a(q, p) is an array that broadcasts to the lattice;
classical_variance_decomposition splits the variance of any such a.  The
bridge reads P(q) and the densities of p and p^2 off the lattice in one
pass, as the quantum side reads its moments (QuasiDistribution.
moment_densities, a row block at a time, order 0 the q-marginal), with
no n x n temporary.  The general n x n route to the local moments of any
a is the test oracle's (tests/dense_oracle.py), and the bridge is checked
against it.  wigner_as_classical finds the lowest cell of the transform
it has just built and clips it in place in one pass of row blocks, then
renormalizes it by its one whole-array sum; both passes run on the row
bands of the transforms (phasespace.in_row_bands).  Masks, quotients and
the decomposition go through the same core layer as the quantum
definitions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile,
                   VarianceDecomposition, Wavefunction, local_quotients,
                   split_total_variance, variance_profile)
from .errors import PreconditionError, check
from .phasespace import (QuasiDistribution, in_row_bands, wigner_pgrid,
                         wigner_transform)
from .states import Gaussian, StateRecipe, synthesize

# Depth below zero down to which wigner_as_classical clips Wigner cells.
WIGNER_CLIP_TOL = 1e-9


def _check_density(F: QuasiDistribution, P: np.ndarray) -> None:
    """F is nonnegative and normalized; P is its q-marginal, which the
    caller holds already and which gives the total as sum(P) dq."""
    check("classical density, depth of its lowest cell below zero",
          -F.values.min(), 0.0, PreconditionError)
    check("classical density, |total - 1|",
          abs(float(P.sum() * F.grid.dq) - 1.0), 1e-10, PreconditionError)


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


def classical_variance_decomposition(F: QuasiDistribution, a: np.ndarray
                                     ) -> VarianceDecomposition:
    """Exact split of sigma^2_a; both components nonnegative to roundoff.

    core.split_total_variance runs over every column with P(q) > 0: the
    discrete law of total variance is then an algebraic identity, exact to
    roundoff."""
    P = F.q_marginal()
    _check_density(F, P)
    first, second = ((a ** k * F.values).sum(axis=1) * F.dp for k in (1, 2))
    return split_total_variance("classical", F.grid.dq, P, first, second,
                                P > 0.0)


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
    # NaN, so a NaN cell in any band fails the check
    values = W.values

    def clip(blocks):
        lowest = np.inf
        for q in blocks:
            rows = values[q]
            lowest = np.minimum(lowest, rows.min())
            np.clip(rows, 0.0, None, out=rows)
        return lowest

    check("Wigner of a gaussian, depth of its lowest cell below zero",
          -np.minimum.reduce(in_row_bands(grid.n, clip)), WIGNER_CLIP_TOL,
          PreconditionError)
    # one whole-array sum, whose order the bands would change; the divide
    # is per cell
    scale = values.sum() * grid.dq * W.dp

    def renormalize(blocks):
        values[blocks[0].start:blocks[-1].stop] /= scale

    in_row_bands(grid.n, renormalize)
    return replace(W, kind="classical")


def classical_pipeline_profiles(F: QuasiDistribution,
                                psi: Wavefunction,
                                eps_factor: float = DEFAULT_MASK_EPS
                                ) -> tuple[RealProfile, RealProfile]:
    """Classical conditional mean and variance of p for the bridge check,
    masked by the quantum state's rho threshold; P(q) and the densities
    of p and p^2 come from one pass over the lattice
    (F.moment_densities, order 0 the q-marginal)."""
    P, first, second = F.moment_densities((0, 1, 2))
    _check_density(F, P)
    m1, m2 = local_quotients(F.grid, P, (first, second), eps_factor)
    mask = psi.mask(eps_factor) & m1.mask
    return replace(m1, mask=mask), replace(variance_profile(m1, m2), mask=mask)
