"""Uniform periodic position grid and the spectral machinery on top of it.

Conventions used throughout the package:

* position grid     q_j = q_min + j*dq,  j = 0..n-1,  dq = (q_max - q_min)/n
  (periodic: q_max is identified with q_min);
* momentum grid     p_k = 2*pi*hbar*k/(n*dq) with k wrapped per FFT
  convention internally (GridSpec.p_wrapped, the one momentum grid); every
  externally visible momentum array is re-sorted ascending,
  p in [-pi*hbar/dq, pi*hbar/dq);
* one spectral seam spectral_multiply: every FFT round trip of a
  position-space field (p^n psi, d/dq = (i/hbar) p, the split-step kinetic
  factor) multiplies the spectrum by a factor sampled on p_wrapped, so the
  Nyquist mode sits at p_N = -pi*hbar/dq for every p^n and d/dq alike;
* transform pair    phi(p) = dq/sqrt(2*pi*hbar) * sum_j psi(q_j) e^{-i p q_j/hbar}
                    psi(q) = dp/sqrt(2*pi*hbar) * sum_k phi(p_k) e^{+i p_k q/hbar}
  which is unitary on the grid (discrete Parseval holds to roundoff);
* integrals         rectangle rule, sum(values)*dq, exact for periodic
  band-limited integrands.

All operations are pure functions of immutable inputs; results are freshly
allocated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError, check

# Shared relative threshold below which the probability density is considered
# too small for quotient-based local quantities: points with
# rho < DEFAULT_MASK_EPS * max(rho) are masked out.
DEFAULT_MASK_EPS = 1e-10

# Amplitude below which a synthesized localized state counts as decayed at
# the window edges.
EDGE_DECAY_TOL = 1e-12

MOMENTUM_POWER_CAP = 8

# Largest |norm - 1| that require_normalized accepts.
NORM_TOL = 1e-8
NORM_CHECK = "wavefunction |norm - 1|"


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic position grid plus the physical constants hbar, mass.

    Construct through :func:`make_grid`, which validates the parameters.
    """

    n: int
    q_min: float
    q_max: float
    hbar: float = 1.0
    mass: float = 1.0

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n

    @property
    def length(self) -> float:
        return self.q_max - self.q_min

    @property
    def dp(self) -> float:
        """Spacing of the conjugate momentum grid, 2*pi*hbar/(n*dq)."""
        return 2.0 * np.pi * self.hbar / (self.n * self.dq)

    @property
    def q(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n)

    @property
    def p(self) -> np.ndarray:
        """Momentum grid in ascending order (external view)."""
        return np.fft.fftshift(self.p_wrapped)

    @property
    def p_wrapped(self) -> np.ndarray:
        """Momentum grid in wrapped FFT order (internal view)."""
        return 2.0 * np.pi * self.hbar * np.fft.fftfreq(self.n, d=self.dq)


def make_grid(n: int, q_min: float, q_max: float,
              hbar: float = 1.0, mass: float = 1.0) -> GridSpec:
    """Build a validated GridSpec.

    n must be even and at least 8 (powers of two recommended), the window
    must be finite and non-empty and hbar, mass finite and positive.
    """
    if n % 2 != 0 or n < 8:
        raise ConfigError("n must be even and >= 8, got n=%d" % n)
    for name, value in (("q_min", q_min), ("q_max", q_max), ("hbar", hbar),
                        ("mass", mass)):
        if not math.isfinite(value):
            raise ConfigError("%s must be finite, got %r" % (name, value))
    if not q_max > q_min:
        raise ConfigError("inverted window: q_max=%g must exceed q_min=%g"
                          % (q_max, q_min))
    if not hbar > 0:
        raise ConfigError("hbar must be positive, got %g" % hbar)
    if not mass > 0:
        raise ConfigError("mass must be positive, got %g" % mass)
    return GridSpec(n=int(n), q_min=float(q_min), q_max=float(q_max),
                    hbar=float(hbar), mass=float(mass))


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes psi(q_j) on a grid (units length^(-1/2))."""

    grid: GridSpec
    amp: np.ndarray

    def rho(self) -> np.ndarray:
        """Probability density rho(q) = |psi(q)|^2."""
        return np.abs(self.amp) ** 2

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2) * self.grid.dq))

    def mask(self, eps_factor: float = DEFAULT_MASK_EPS) -> np.ndarray:
        """support_mask of rho."""
        return support_mask(self.rho(), eps_factor)


@dataclass(frozen=True, eq=False)
class RealProfile:
    """Real-valued function of q with a validity mask.

    Masked-out points carry no claim; consumers must not read them.
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray


def normalize(psi: Wavefunction) -> Wavefunction:
    """Rescale so that sum |psi_j|^2 dq = 1."""
    amp = np.asarray(psi.amp, dtype=complex)
    if not np.all(np.isfinite(amp.view(float))):
        raise PreconditionError("wavefunction amplitudes are not finite")
    nrm = np.sqrt(np.sum(np.abs(amp) ** 2) * psi.grid.dq)
    if nrm == 0.0:
        raise PreconditionError("cannot normalize the zero wavefunction")
    return Wavefunction(psi.grid, amp / nrm)


def require_normalized(psi: Wavefunction) -> None:
    check(NORM_CHECK, abs(psi.norm() - 1.0), NORM_TOL, PreconditionError)


def momentum_representation(psi: Wavefunction) -> np.ndarray:
    """Momentum amplitudes phi(p_k) on the ascending momentum grid.

    phi(p_k) = dq/sqrt(2*pi*hbar) * sum_j psi(q_j) exp(-i p_k q_j / hbar).
    Unitary: sum |phi_k|^2 dp = sum |psi_j|^2 dq to roundoff.
    """
    require_normalized(psi)
    return np.fft.fftshift(_momentum_representation_wrapped(psi))


def _momentum_representation_wrapped(psi: Wavefunction) -> np.ndarray:
    g = psi.grid
    phase = np.exp(-1j * g.p_wrapped * g.q_min / g.hbar)
    return g.dq / np.sqrt(2.0 * np.pi * g.hbar) * phase * np.fft.fft(psi.amp)


def apply_momentum_power(psi: Wavefunction, n: int) -> np.ndarray:
    """Return the complex field <q|p_hat^n|psi> computed spectrally.

    Multiplies by (hbar k)^n in the momentum representation and transforms
    back; the wrapped grid places the Nyquist mode at -pi*hbar/dq.  n = 0
    returns the amplitudes unchanged.  Practical cap n <= 8: higher powers
    amplify spectral edge noise beyond useful accuracy.
    """
    if n < 0 or n != int(n):
        raise PreconditionError("momentum power must be a non-negative integer")
    if n > MOMENTUM_POWER_CAP:
        raise PreconditionError(
            "momentum power %d is over the cap %d" % (n, MOMENTUM_POWER_CAP))
    if n == 0:
        return np.array(psi.amp, dtype=complex)
    (out,) = spectral_multiply(psi.amp, psi.grid.p_wrapped ** n)
    return out


def spectral_multiply(amps: np.ndarray, *factors: np.ndarray) -> tuple:
    """ifft(f * fft(amps)) for each factor f sampled on GridSpec.p_wrapped.

    amps is one row or a stack of rows along the last axis; one forward
    FFT serves every factor, and each row of a stack gives the same bits
    as a call on that row alone.  A factor f(p) applies the operator
    f(p_hat), e.g. p**n for p_hat^n and (1j/hbar)*p for d/dq."""
    spectrum = np.fft.fft(amps)
    return tuple(np.fft.ifft(f * spectrum) for f in factors)


def support_mask(weight: np.ndarray,
                 eps_factor: float = DEFAULT_MASK_EPS) -> np.ndarray:
    """The mask rule of every local statistic: weight >= eps_factor *
    max(weight) along the last axis, eps_factor in (0, 1].  An empty mask
    (NaN weights) is left to the caller's own checks."""
    if not 0.0 < eps_factor <= 1.0:
        raise PreconditionError("mask eps_factor must lie in (0, 1], got %r"
                                % (eps_factor,))
    return weight >= eps_factor * weight.max(axis=-1, keepdims=True)


def local_quotients(grid: GridSpec, weight: np.ndarray, densities,
                    eps_factor: float = DEFAULT_MASK_EPS,
                    divisor: np.ndarray | None = None) -> tuple:
    """Each density over the position weight (rho, or a lattice's
    q-marginal), or over divisor if given, as RealProfiles that share the
    support_mask of weight and are zero off it.  The quotients are
    singular at nodes, so such points are masked, not regularized."""
    mask = support_mask(weight, eps_factor)
    if not mask.any():
        raise PreconditionError("state has no support")
    den = weight if divisor is None else divisor
    return tuple(RealProfile(grid, quotient_on(mask, d, den), mask)
                 for d in densities)


def quotient_on(mask: np.ndarray, num: np.ndarray,
                den: np.ndarray) -> np.ndarray:
    """num / den where mask, zero elsewhere (real or complex, broadcast);
    nothing is divided off the mask."""
    out = np.zeros(np.broadcast(num, den).shape,
                   dtype=np.result_type(num, den, float))
    return np.divide(num, den, out=out, where=mask)


def variance_profile(first: RealProfile, second: RealProfile) -> RealProfile:
    """Local variance second - first^2 on the mask of first, zero off it."""
    values = second.values - first.values ** 2
    values[~first.mask] = 0.0
    return RealProfile(first.grid, values, first.mask)


@dataclass(frozen=True)
class VarianceDecomposition:
    """Total variance split into the q-average of local variances plus the
    q-variance of local averages."""

    definition: str
    avg_local_variance: float
    variance_of_local_avg: float
    total: float


def split_total_variance(definition: str, dq: float, weight: np.ndarray,
                         first: np.ndarray, second: np.ndarray,
                         mask: np.ndarray) -> VarianceDecomposition:
    """The law of total variance at the density level, for the position
    weight w and the first and second moment densities D, M2 of A, centred
    on the mean m = int D dq (D_c = D - m w and M2_c = M2 - 2 m D + m^2 w
    are the densities of A - m):

        total                   = int M2_c dq
        variance of local avgs  = int_mask D_c^2/w dq
        avg local variance      = total - variance of local avgs

    so a boost leaves both parts unchanged.  D_c^2/w stays finite at nodes
    where the local variance diverges."""
    mean = float(np.sum(first) * dq)
    centred = first - mean * weight
    total = float(np.sum(second - 2.0 * mean * first + mean ** 2 * weight)
                  * dq)
    spread = float(np.sum(centred[mask] ** 2 / weight[mask]) * dq)
    return VarianceDecomposition(definition, total - spread, spread, total)


def integrate(profile: RealProfile) -> float:
    """Rectangle-rule integral sum(values)*dq; masked-out points contribute
    zero (callers relying on the full integral must pass all-true masks)."""
    vals = np.where(profile.mask, profile.values, 0.0)
    return float(np.sum(vals) * profile.grid.dq)

