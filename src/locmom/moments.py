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

A local moment is a density over rho on one mask (core.local_quotients);
a local variance is core.variance_profile of the first two, except that
the C one keeps the form Im[(A psi)/psi]^2, its analytic equal.  The S
local variance may be negative; the C one is a square and may not.  Half
the gap between the C and S second densities over rho is the difference
term that relates the W, MH and C local variances of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DEFAULT_MASK_EPS, RealProfile, VarianceDecomposition,
                   Wavefunction, apply_momentum_power, local_quotients,
                   quotient_on, require_normalized, split_total_variance,
                   support_mask, variance_profile)
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


@dataclass(frozen=True, eq=False)
class LocalProfile:
    """A local moment or variance profile tagged by definition and order."""

    definition: str          # one of "S", "C", "MH", "W"
    order: int | str         # moment order, or the tag "variance"
    profile: RealProfile


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
    (profile,) = local_quotients(psi.grid, psi.rho(), [first], eps_factor)
    return LocalProfile(definition, A.order, profile)


def local_variance(psi: Wavefunction, A: ObservableSpec, definition: str,
                   eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """Local variance of A under the definition: second local moment minus
    the squared first, except under C, whose local variance is
    local_variance_C."""
    if definition == "C":
        return local_variance_C(psi, A, eps_factor)
    densities = moment_densities(psi, A, definition)
    return LocalProfile(definition, "variance", variance_profile(
        *local_quotients(psi.grid, psi.rho(), densities, eps_factor)))


def _phase_space_moments(F: QuasiDistribution, psi: Wavefunction,
                         orders: tuple[int, ...],
                         eps_factor: float) -> tuple[RealProfile, ...]:
    """The local momentum moments (sum_k p_k^order F dp) / rho on the mask,
    one per order, from one pass over the transform's lattice."""
    if F.grid != psi.grid:
        raise PreconditionError("distribution and state use different grids")
    if F.kind not in _KIND_TO_DEFINITION:
        raise PreconditionError(
            "phase-space local moments need a weyl_wigner or margenau_hill "
            "distribution, got kind %r" % F.kind)
    return local_quotients(psi.grid, psi.rho(), F.moment_densities(orders),
                           eps_factor)


def phase_space_local_moment(F: QuasiDistribution, psi: Wavefunction,
                             order: int,
                             eps_factor: float = DEFAULT_MASK_EPS
                             ) -> LocalProfile:
    """n-th local momentum moment (sum_k p_k^n F dp) / rho on the mask,
    taken from a given transform (the oracle route to the MH and W local
    moments)."""
    if not 1 <= order <= MOMENT_ORDER_CAP:
        raise PreconditionError("moment order must be in 1..%d, got %d"
                                % (MOMENT_ORDER_CAP, order))
    (profile,) = _phase_space_moments(F, psi, (order,), eps_factor)
    return LocalProfile(_KIND_TO_DEFINITION[F.kind], order, profile)


def phase_space_local_variance(F: QuasiDistribution, psi: Wavefunction,
                               eps_factor: float = DEFAULT_MASK_EPS
                               ) -> LocalProfile:
    """Second local moment minus squared first from a given transform,
    both read off its lattice in one pass; may be negative."""
    m1, m2 = _phase_space_moments(F, psi, (1, 2), eps_factor)
    return LocalProfile(_KIND_TO_DEFINITION[F.kind], "variance",
                        variance_profile(m1, m2))


def local_variance_C(psi: Wavefunction, A: ObservableSpec,
                     eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """C local variance Im[(A psi)(q)/psi(q)]^2 (manifestly nonnegative)."""
    require_normalized(psi)
    (ratio,) = local_quotients(psi.grid, psi.rho(), [A.apply(psi)],
                               eps_factor, divisor=psi.amp)
    return LocalProfile("C", "variance", RealProfile(
        psi.grid, np.imag(ratio.values) ** 2, ratio.mask))


def local_variance_S(psi: Wavefunction, A: ObservableSpec,
                     eps_factor: float = DEFAULT_MASK_EPS) -> LocalProfile:
    """S local variance: second moment minus squared local value.

    Not semidefinite positive; for a Gaussian it is negative beyond
    |q - q0| > s*sqrt(2)."""
    return local_variance(psi, A, "S", eps_factor)


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
    return local_quotients(psi.grid, psi.rho(), [0.5 * (sandwich - sym)],
                           eps_factor)[0]


def variance_decomposition(psi: Wavefunction, A: ObservableSpec,
                           definition: str,
                           eps_factor: float = DEFAULT_MASK_EPS
                           ) -> VarianceDecomposition:
    """Split sigma^2_A into avg local variance + variance of local averages.

    The split is core.split_total_variance of the definition's densities
    on the rho mask; the caller checks its total against the direct
    variance.  A position function g has zero local spread under every
    definition, so its split is read off g = g rho / rho where rho > 0.
    Raises if the masked-out region carries probability above 1e-8: the
    local spread there lands in the average local variance, so the two
    parts (not the total) would be unreliable.
    """
    first, second = moment_densities(psi, A, definition)
    rho = psi.rho()
    mask = support_mask(rho, eps_factor)
    dq = psi.grid.dq
    check("probability outside the rho mask", np.sum(rho[~mask]) * dq, 1e-8,
          PreconditionError, hint="the decomposition is unreliable")
    if A.kind != "position_function":
        return split_total_variance(definition, dq, rho, first, second, mask)
    mean = float(np.sum(first) * dq)
    g = quotient_on(rho > 0, first, rho)
    spread = float(np.sum((g - mean) ** 2 * rho) * dq)
    return VarianceDecomposition(definition, 0.0, spread, spread)


def direct_variance(psi: Wavefunction, A: ObservableSpec) -> float:
    """sigma^2_A = <A^2> - <A>^2 computed without local quantities."""
    first, second = moment_densities(psi, A, "S")
    dq = psi.grid.dq
    return float(np.sum(second) * dq) - float(np.sum(first) * dq) ** 2
