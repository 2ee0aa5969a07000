"""Local values, local variances, and variance decompositions under the
S, C, MH and W definitions, for momentum powers and for operators given by
their action.

Everything here derives from one layer, moment_densities: real densities in
q whose quotients by rho are the local moments and whose integrals are the
global ones.  The definitions share the first density (the local value)
and differ only in how the local spread splits:

    S, MH   Re[ conj(psi) * (A^k psi) ]       (closed form, spectral A)
    C       Re[ conj(psi) * (A psi) ], then |(A psi)|^2 for A^2
    W       the p^(k*m) moment density of the Wigner function, A = p^m

delta(q_hat - q) is absorbed analytically at the grid points, so no
delta-width parameter enters.  The MH transform's moment densities agree
with the closed form to its own roundoff, so MH takes the closed form.  W
takes phasespace.wigner_moment_densities: one 1D kernel per order applied
to the correlation products, which keep relative accuracy in the tails,
while the equivalent bilinear form divides global FFT roundoff by a rho
near the mask threshold.  It agrees with the Wigner transform's moment
densities to roundoff and builds no n x n array.

A local moment is core.masked_quotient of a density by rho; a local
variance is core.variance_profile of the first two, except that the C one
keeps the form Im[(A psi)/psi]^2, its analytic equal.  The S local variance
may be negative; the C one is a square and may not.  Half the gap between
the C and S second densities over rho is the difference term that relates
the W, MH and C local variances of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DEFAULT_MASK_EPS, RealProfile, Wavefunction,
                   apply_momentum_power, masked_quotient, quotient_on,
                   require_normalized, variance_profile)
from .errors import PreconditionError, check
from .phasespace import QuasiDistribution, wigner_moment_densities

MOMENT_ORDER_CAP = 4

DEFINITIONS = ("S", "C", "MH", "W")

_KIND_TO_DEFINITION = {"weyl_wigner": "W", "margenau_hill": "MH"}


@dataclass(frozen=True)
class ObservableSpec:
    """An observable given by its action on wavefunctions.

    apply_square is the action of the operator's square; it cannot be
    inferred pointwise from apply, and several operations require it.
    """

    kind: str
    order: int
    apply: Callable[[Wavefunction], np.ndarray]
    apply_square: Callable[[Wavefunction], np.ndarray] | None = None


def momentum_power(n: int) -> ObservableSpec:
    """The observable p_hat^n, 1 <= n <= 4, acting spectrally."""
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise PreconditionError(
            "momentum_power order must be in 1..%d, got %d"
            % (MOMENT_ORDER_CAP, n))
    return ObservableSpec(
        kind="momentum_power", order=n,
        apply=lambda psi: apply_momentum_power(psi, n),
        apply_square=lambda psi: apply_momentum_power(psi, 2 * n))


def position_function(g: np.ndarray) -> ObservableSpec:
    """A diagonal observable g(q_hat), g sampled on the grid."""
    g = np.asarray(g, dtype=float)
    return ObservableSpec(
        kind="position_function", order=1,
        apply=lambda psi: g * psi.amp,
        apply_square=lambda psi: g ** 2 * psi.amp)


def linear_action(apply: Callable[[Wavefunction], np.ndarray],
                  apply_square: Callable[[Wavefunction], np.ndarray] | None = None
                  ) -> ObservableSpec:
    """A generic observable; supply the action of its square as well if any
    second-moment operation will be used."""
    return ObservableSpec(kind="linear_action", order=1,
                          apply=apply, apply_square=apply_square)


@dataclass(frozen=True)
class LocalProfile:
    """A local moment or variance profile tagged by definition and order."""

    definition: str          # one of "S", "C", "MH", "W"
    order: int | str         # moment order, or the tag "variance"
    profile: RealProfile


@dataclass(frozen=True)
class VarianceDecomposition:
    """Total variance split into the q-average of local variances plus the
    q-variance of local averages."""

    definition: str
    avg_local_variance: float
    variance_of_local_avg: float
    total: float


def _require_square(A: ObservableSpec) -> Callable:
    if A.apply_square is None:
        raise PreconditionError("square action required: observable %r does "
                                "not supply apply_square" % A.kind)
    return A.apply_square


def _closed_density(psi: Wavefunction, A: ObservableSpec, definition: str,
                    k: int) -> np.ndarray:
    if k == 1:
        return np.real(np.conj(psi.amp) * A.apply(psi))
    if definition == "C":
        return np.abs(A.apply(psi)) ** 2
    return np.real(np.conj(psi.amp) * _require_square(A)(psi))


def moment_densities(psi: Wavefunction, A: ObservableSpec, definition: str,
                     orders: tuple[int, ...] = (1, 2)
                     ) -> tuple[np.ndarray, ...]:
    """Densities of the local moments of A^k, one per k in orders (1 or 2),
    under the given definition; defined at every grid point, no quotients.

    The phase-space definitions MH and W need a phase-space symbol: A must
    be a momentum power p^m with k*m <= MOMENT_ORDER_CAP, or a position
    function g(q), whose density g^k rho is the same under every
    definition.  W takes all orders from one pass over the correlation
    product."""
    require_normalized(psi)
    if definition not in DEFINITIONS:
        raise PreconditionError("definition must be one of %s"
                                % (DEFINITIONS,))
    if not set(orders) <= {1, 2}:
        raise PreconditionError("moment density orders must be 1 or 2, "
                                "got %s" % (orders,))
    if definition in ("MH", "W") and A.kind != "position_function":
        if A.kind != "momentum_power":
            raise PreconditionError(
                "definition %s needs a momentum power or a position "
                "function; no phase-space symbol for %r"
                % (definition, A.kind))
        top = max(orders) * A.order
        if top > MOMENT_ORDER_CAP:
            raise PreconditionError(
                "%s moments of p^%d need moment order %d > cap %d"
                % (definition, A.order, top, MOMENT_ORDER_CAP))
        if definition == "W":
            return wigner_moment_densities(
                psi, tuple(k * A.order for k in orders))
    return tuple(_closed_density(psi, A, definition, k) for k in orders)


def local_value(psi: Wavefunction, A: ObservableSpec, definition: str,
                eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """Local value of A under the definition: its first moment density
    over rho.  S, C and MH agree; W agrees with them for A = p."""
    (first,) = moment_densities(psi, A, definition, orders=(1,))
    return LocalProfile(definition, A.order,
                        masked_quotient(psi, first, eps_factor))


def local_variance(psi: Wavefunction, A: ObservableSpec, definition: str,
                   eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """Local variance of A under the definition: second local moment minus
    the squared first, except under C, whose local variance is
    local_variance_C."""
    if definition == "C":
        return local_variance_C(psi, A, eps_factor)
    first, second = moment_densities(psi, A, definition)
    return LocalProfile(definition, "variance", variance_profile(
        masked_quotient(psi, first, eps_factor),
        masked_quotient(psi, second, eps_factor)))


def phase_space_local_moment(F: QuasiDistribution, psi: Wavefunction,
                             order: int,
                             eps_factor: float = DEFAULT_MASK_EPS
                             ) -> LocalProfile:
    """n-th local momentum moment (sum_k p_k^n F dp) / rho on the mask,
    taken from a given transform (the oracle route to the MH and W local
    moments)."""
    if F.grid != psi.grid:
        raise PreconditionError("distribution and state use different grids")
    if not 1 <= order <= MOMENT_ORDER_CAP:
        raise PreconditionError("moment order must be in 1..%d, got %d"
                                % (MOMENT_ORDER_CAP, order))
    if F.kind not in _KIND_TO_DEFINITION:
        raise PreconditionError(
            "phase-space local moments need a weyl_wigner or margenau_hill "
            "distribution, got kind %r" % F.kind)
    return LocalProfile(_KIND_TO_DEFINITION[F.kind], order,
                        masked_quotient(psi, F.moment_density(order),
                                        eps_factor))


def phase_space_local_variance(F: QuasiDistribution, psi: Wavefunction,
                               eps_factor: float = DEFAULT_MASK_EPS
                               ) -> LocalProfile:
    """Second local moment minus squared first from a given transform; may
    be negative."""
    m1 = phase_space_local_moment(F, psi, 1, eps_factor)
    m2 = phase_space_local_moment(F, psi, 2, eps_factor)
    return LocalProfile(m1.definition, "variance",
                        variance_profile(m1.profile, m2.profile))


def local_variance_C(psi: Wavefunction, A: ObservableSpec,
                     eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """C local variance Im[(A psi)(q)/psi(q)]^2 (manifestly nonnegative)."""
    require_normalized(psi)
    mask = psi.mask(eps_factor)
    if not mask.any():
        raise PreconditionError("state has no support")
    ratio = quotient_on(mask, A.apply(psi), psi.amp)
    return LocalProfile("C", "variance",
                        RealProfile(psi.grid, np.imag(ratio) ** 2, mask))


def local_variance_S(psi: Wavefunction, A: ObservableSpec,
                     eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """S local variance: second moment minus squared local value.

    Not semidefinite positive; for a Gaussian it is negative beyond
    |q - q0| > s*sqrt(2)."""
    return local_variance(psi, A, "S", eps_factor)


def density_inequality_witness(psi: Wavefunction, A: ObservableSpec,
                               eps_factor: float = DEFAULT_MASK_EPS) -> float:
    """Max over masked-in q of |sandwich - symmetrized A^2 density|.

    Zero for eigenstates of A and for diagonal observables; strictly
    positive for generic states."""
    (sym,) = moment_densities(psi, A, "S", orders=(2,))
    (sandwich,) = moment_densities(psi, A, "C", orders=(2,))
    mask = psi.mask(eps_factor)
    return float(np.max(np.abs(sandwich - sym)[mask]))


def variance_difference_term(psi: Wavefunction,
                             eps_factor: float = DEFAULT_MASK_EPS
                             ) -> RealProfile:
    """Correction term t(q) with sigma2_W = sigma2_MH + t and
    sigma2_W = sigma2_C - t pointwise for A = p:

        t = (2 |p psi|^2 - 2 Re[conj(psi) p^2 psi]) / (4 rho),

    i.e. half the gap between the sandwich and symmetrized p^2 densities,
    over rho."""
    p = momentum_power(1)
    (sym,) = moment_densities(psi, p, "S", orders=(2,))
    (sandwich,) = moment_densities(psi, p, "C", orders=(2,))
    return masked_quotient(psi, 0.5 * (sandwich - sym), eps_factor)


def global_average(psi: Wavefunction, A: ObservableSpec) -> float:
    """<psi|A|psi> evaluated directly (A assumed Hermitian)."""
    (first,) = moment_densities(psi, A, "S", orders=(1,))
    return float(np.sum(first) * psi.grid.dq)


def variance_decomposition(psi: Wavefunction, A: ObservableSpec,
                           definition: str,
                           eps_factor: float = DEFAULT_MASK_EPS
                           ) -> VarianceDecomposition:
    """Split sigma^2_A into avg local variance + variance of local averages.

    The sum must reproduce <A^2> - <A>^2; the caller checks it against the
    returned total.  The components are assembled at the density level,

        avg local variance      = int (M2 - D^2/rho) dq
        variance of local avgs  = int (D/sqrt(rho) - <A> sqrt(rho))^2 dq,

    because the bounded combinations M2 - D^2/rho and D^2/rho (with
    D^2/rho <= the sandwich density) stay finite at nodes where the local
    variance itself diverges; a node carries finite variance-density
    weight under the C and W definitions even though rho vanishes there.
    The quotient is dropped below the rho mask (its true value there is
    bounded by the sandwich density, i.e. negligible).  Raises if the
    masked-out region carries probability above 1e-8, which would make the
    split unreliable.
    """
    first, second = moment_densities(psi, A, definition)
    rho = psi.rho()
    mask = psi.mask(eps_factor)
    check("probability outside the rho mask",
          np.sum(rho[~mask]) * psi.grid.dq, 1e-8, PreconditionError,
          hint="the decomposition is unreliable")

    mean = global_average(psi, A)
    dq = psi.grid.dq
    if A.kind == "position_function":
        # diagonal observable: zero local spread under every definition;
        # g = g rho / rho is read where rho > 0 (no division by psi)
        g = quotient_on(rho > 0, first, rho)
        avg_local_variance = 0.0
        variance_of_local_avg = float(np.sum((g - mean) ** 2 * rho) * dq)
    else:
        quot = first[mask] ** 2 / rho[mask]
        avg_local_variance = float(np.sum(second) * dq - np.sum(quot) * dq)
        spread = (first[mask] / np.sqrt(rho[mask])
                  - mean * np.sqrt(rho[mask])) ** 2
        variance_of_local_avg = float(np.sum(spread) * dq)
    return VarianceDecomposition(
        definition=definition,
        avg_local_variance=avg_local_variance,
        variance_of_local_avg=variance_of_local_avg,
        total=avg_local_variance + variance_of_local_avg)


def direct_variance(psi: Wavefunction, A: ObservableSpec) -> float:
    """sigma^2_A = <A^2> - <A>^2 computed without local quantities."""
    first, second = moment_densities(psi, A, "S")
    dq = psi.grid.dq
    return float(np.sum(second) * dq) - float(np.sum(first) * dq) ** 2
