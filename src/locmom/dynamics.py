"""Split-operator time evolution and the hydrodynamic residual checks:
the continuity equation for rho, the Euler-form equation for the Wigner
local momentum with its quantum pressure term, and the three competing
local kinetic-energy densities.

Residuals are evaluated with centered differences in time on the
snapshots (never re-derived from the propagator internals) and spectral
derivatives in space, reported as the max over interior times and
masked-in grid points.  Quotient fields like pbar = D/rho lose all
relative accuracy in the tails if differentiated directly (the FFT noise
floor is set by the largest field values, then divided by a tiny rho), so
every differentiated quotient is expanded analytically, e.g.

    d(D/rho)/dq = (D' rho - D rho') / rho^2,

with D', rho' and the second-moment derivative built by the product rule
from the amplitude fields p psi, p^2 psi and p^3 psi, which one forward
FFT of a chunk of snapshots gives through core.spectral_multiply
(d/dq = (i/hbar) p, on the Nyquist convention of apply_momentum_power).
That keeps the roundoff proportional to the local amplitude and the
residual floors far below the stated tolerances.  The same pass hands
back rho and pbar = D/rho of every snapshot: pbar is the S local value of
p, so the evolve trace needs no pass of its own.  The split-step kinetic
factor goes through the same seam.

A trace is one stream of chunks of consecutive snapshots, stacked as
(snapshots, n) arrays of chunk_length(n) = max(1, CHUNK_ROWS // n) rows:
split_step_chunks yields them as it propagates, ResidualPass checks and
reduces them as they come, and stream_trace runs one trace through both.
The fields, the Wigner cross-check and the time differences each run over
a whole chunk at once, so that the cost per snapshot is the arithmetic on
its rows and not a round of Python and FFT set-up.  The pass keeps the
last two snapshots of one chunk for the centred time differences of the
next, and running maxima of the residuals and the norm drift, so nothing
of size steps x n is held and the working set is O(CHUNK_ROWS + n).  The
checks keep the order of a snapshot-by-snapshot pass: the first snapshot
in time that fails gives the error of its first failing check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile, Wavefunction,
                   quotient_on, require_normalized, spectral_multiply,
                   support_mask)
from .errors import (ConfigError, LocmomError, PreconditionError,
                     SelfCheckError, check)
from .moments import moment_densities, momentum_power
from .phasespace import wigner_moment_density_stack

STABILITY_LIMIT = 0.5
# the largest norm drift |norm - 1| that a propagated trace may show
UNITARITY_TOL = 1e-9

# Snapshot rows (snapshots x grid points) that a trace is propagated,
# checked and reduced in at once: a chunk holds chunk_length(n) snapshots.
CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Potential:
    """Potential energy samples with the analytic gradient of the built-in
    family (spectral differentiation would ring on non-periodic shapes
    like the harmonic well)."""

    values: np.ndarray
    grad: np.ndarray
    label: str


def free_potential(grid: GridSpec) -> Potential:
    return Potential(np.zeros(grid.n), np.zeros(grid.n), "free")


def harmonic_potential(grid: GridSpec, omega: float) -> Potential:
    if not omega > 0:
        raise PreconditionError("harmonic omega must be positive")
    q = grid.q
    return Potential(0.5 * grid.mass * omega ** 2 * q ** 2,
                     grid.mass * omega ** 2 * q,
                     "harmonic:%r" % omega)


def gaussian_barrier(grid: GridSpec, height: float, width: float,
                     center: float) -> Potential:
    if not width > 0:
        raise PreconditionError("barrier width must be positive")
    q = grid.q
    bump = np.exp(-(q - center) ** 2 / (2.0 * width ** 2))
    return Potential(height * bump,
                     -height * (q - center) / width ** 2 * bump,
                     "barrier:%r,%r,%r" % (height, width, center))


@dataclass(frozen=True)
class PropagationConfig:
    dt: float
    steps: int
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise PreconditionError("dt must be positive")
        if self.steps < 1:
            raise PreconditionError("steps must be >= 1")
        if self.snapshot_stride < 1:
            raise PreconditionError("snapshot_stride must be >= 1")
        # the residuals need snapshots uniform in time, at least three of them
        if (self.steps % self.snapshot_stride
                or self.steps // self.snapshot_stride < 2):
            raise ConfigError("stride must divide steps into at least 2 "
                              "intervals, got steps %d and stride %d"
                              % (self.steps, self.snapshot_stride))


def max_kinetic_eigenvalue(grid: GridSpec) -> float:
    p_max = np.pi * grid.hbar / grid.dq
    return p_max ** 2 / (2.0 * grid.mass)


def check_stability(grid: GridSpec, dt: float) -> None:
    """Guard dt * T_max / hbar < 0.5 (heuristic: keeps the kinetic phase
    advance per step small)."""
    t_max = max_kinetic_eigenvalue(grid)
    check("stability guard, dt*T_max/hbar", dt * t_max / grid.hbar,
          STABILITY_LIMIT, PreconditionError, strict=True,
          hint="suggested dt < %.3g" % (0.45 * grid.hbar / t_max))


def chunk_length(n: int) -> int:
    """Snapshots per chunk of a trace on an n-point grid."""
    return max(1, CHUNK_ROWS // n)


def _snapshot_steps(cfg: PropagationConfig) -> range:
    """The steps after which a trace takes a snapshot: every
    snapshot_stride steps, the initial and final states among them."""
    return range(0, cfg.steps + 1, cfg.snapshot_stride)


def snapshot_times(cfg: PropagationConfig) -> np.ndarray:
    """Times of the snapshots that split_step_chunks yields."""
    return np.array([step * cfg.dt for step in _snapshot_steps(cfg)])


def split_step_chunks(psi0: Wavefunction, V: Potential,
                      cfg: PropagationConfig):
    """Strang splitting exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2) per step;
    unitary, second order in dt.  Yields the amplitudes of the snapshots,
    every snapshot_stride steps from the initial to the final state, as
    consecutive (rows, n) chunks of chunk_length(n) rows (the last may be
    shorter).  The norm drift is left to the consumer (check_unitarity)."""
    require_normalized(psi0)
    g = psi0.grid
    check_stability(g, cfg.dt)
    half_v = np.exp(-0.5j * cfg.dt * V.values / g.hbar)
    kinetic = np.exp(-1j * cfg.dt * g.p_wrapped ** 2 / (2.0 * g.mass * g.hbar))
    amp = np.array(psi0.amp, dtype=complex)
    chunk = np.empty((chunk_length(g.n), g.n), dtype=complex)
    filled = done = 0
    for step in _snapshot_steps(cfg):
        for _ in range(step - done):
            amp = half_v * spectral_multiply(half_v * amp, kinetic)[0]
        done = step
        chunk[filled] = amp
        filled += 1
        if filled == len(chunk):
            yield chunk
            chunk, filled = np.empty_like(chunk), 0
    if filled:
        yield chunk[:filled]


def norm_drift(amps: np.ndarray, g: GridSpec) -> float:
    """The largest |norm - 1| of the amplitude rows."""
    norms = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1) * g.dq)
    return float(np.max(np.abs(norms - 1.0)))


def check_unitarity(drift: float) -> None:
    check("unitarity, norm drift |norm - 1|", drift, UNITARITY_TOL,
          PreconditionError)


def _amplitude_fields(amps: np.ndarray, g: GridSpec,
                      out: np.ndarray) -> np.ndarray:
    """Density, momentum density and second-moment density of each
    amplitude row, with their exact product-rule spatial derivatives:
    out = (rho, drho, D, dD, dm2) is written and m2, which only the
    Wigner check reads, is returned.

    p psi, p^2 psi and p^3 psi come from one forward FFT of the rows, and
    d/dq = (i/hbar) p turns each derivative into an imaginary part, e.g.
    drho = 2 Re[conj(psi) (i/hbar) p psi] = -(2/hbar) Im[conj(psi) p psi].
    """
    p = g.p_wrapped
    p1, p2, p3 = spectral_multiply(amps, p, p ** 2, p ** 3)
    conj = np.conj(amps)
    rho, drho, D, dD, dm2 = out
    rho[...] = np.abs(amps) ** 2
    drho[...] = -2.0 / g.hbar * np.imag(conj * p1)
    D[...] = np.real(conj * p1)
    dD[...] = -1.0 / g.hbar * np.imag(conj * p2)
    dm2[...] = -0.5 / g.hbar * (np.imag(np.conj(p1) * p2)
                                + np.imag(conj * p3))
    return 0.5 * np.real(conj * p2) + 0.5 * np.abs(p1) ** 2


WIGNER_MOMENT_DENSITY_TOL = 1e-8


def _checked_fields(amps: np.ndarray, g: GridSpec, out: np.ndarray) -> None:
    """Amplitude fields of consecutive snapshots (written to out), each
    cross-checked against its Wigner moment densities.

    The Wigner first and second moment densities coincide analytically
    with the bilinear forms D = Re[conj(psi) p psi] and
    M2 = (Re[conj(psi) p^2 psi] + |p psi|^2)/2.  The bilinear forms are
    the numerically stable evaluation: propagator roundoff is delocalized
    over the grid and the nonlocal Wigner correlation mixes it into the
    tail rows at the ~1e-16 density level, which the 1/rho quotient and
    the 1/(2 dt) time difference would amplify past the residual
    tolerances.  The Wigner moment-density kernel is therefore verified
    here at the density level and the bilinear twins are used for the
    differencing.  The first snapshot that fails raises the error of its
    first failing check: normalization, pad mode, then the densities.
    """
    m2 = _amplitude_fields(amps, g, out)
    (m1w, m2w), error = wigner_moment_density_stack(amps, g, (1, 2))
    D, m2 = out[2, :len(m1w)], m2[:len(m1w)]
    dev = np.maximum(np.max(np.abs(m1w - D), axis=1),
                     np.max(np.abs(m2w - m2), axis=1))
    for value in dev:
        check("Wigner moment densities, deviation from their bilinear forms",
              value, WIGNER_MOMENT_DENSITY_TOL, SelfCheckError)
    if error is not None:
        raise error


class ResidualPass:
    """The residuals of the continuity equation

        d(rho)/dt + d(rho pbar/m)/dq = 0

    and of the Euler-form equation for the Wigner local momentum

        d(pbar_W)/dt = -(pbar_W/m) d(pbar_W)/dq - dV/dq
                       - (1/(m rho)) d(rho sigma2_W)/dq

    over a trace of the given PropagationConfig, fed its snapshots in time
    order a chunk at a time (feed).  The first local momentum moment is
    definition-independent (S = MH = W), so D is evaluated once from the
    amplitudes; the Wigner moment densities of every snapshot are checked
    against, and the Euler residual evaluated through, their bilinear
    forms (_checked_fields), and the quantum-pressure flux
    rho sigma2_W = M2 - D^2/rho is differentiated through the expanded
    product rule.

    continuity, euler and drift are running maxima over the snapshots fed
    so far: the residuals over interior times and masked-in points (the
    mask of a time is core.support_mask of rho at it and at both
    neighbours), and the norm drift |norm - 1|.  The pass keeps the last
    two snapshots' fields for the centred time differences of the next
    chunk.  The first check of a snapshot that fails is kept in error
    rather than raised: later chunks then only add to drift, so that a
    caller can put the unitarity of the whole trace first."""

    def __init__(self, grid: GridSpec, potential: Potential,
                 cfg: PropagationConfig, eps_factor: float = DEFAULT_MASK_EPS):
        self.grid, self.grad_v = grid, potential.grad
        self.dt = cfg.snapshot_stride * cfg.dt
        self.eps_factor = eps_factor
        self.continuity = self.euler = self.drift = 0.0
        self.error = self.tail = None

    def feed(self, amps: np.ndarray):
        """(rho, pbar, own) rows of the next chunk of snapshot amplitudes,
        pbar = D/rho the S local value of p and own its support_mask, or
        None once a check has failed (drift still takes in the chunk)."""
        drift = norm_drift(amps, self.grid)
        # np.maximum keeps a NaN drift, which max(0.0, nan) would drop
        self.drift = float(np.maximum(self.drift, drift))
        if self.error is not None:
            return None
        fields = np.empty((5, *amps.shape))  # rho, drho, D, dD, dm2
        try:
            _checked_fields(amps, self.grid, fields)
            own = support_mask(fields[0], self.eps_factor)
        except LocmomError as exc:
            self.error = exc
            return None
        pbar = quotient_on(own, fields[2], fields[0])
        window = fields, pbar, own
        if self.tail is not None:
            window = [np.concatenate(pair, axis=-2)
                      for pair in zip(self.tail, window)]
        self._differences(*window)
        self.tail = tuple(a[..., -2:, :].copy() for a in window)
        # a copy of rho, so that the chunk's fields are freed on return
        return fields[0].copy(), pbar, own

    def _differences(self, fields, pbar_w, near) -> None:
        """Fold the residuals at the interior times of a window of
        consecutive snapshots into the running maxima."""
        mass, dt = self.grid.mass, self.dt
        mask = near[:-2] & near[1:-1] & near[2:]
        rho, drho, D, dD, dm2 = fields[:, 1:-1]
        drho_dt = (fields[0, 2:] - fields[0, :-2]) / (2.0 * dt)
        flux = drho_dt + dD / mass
        self.continuity = max(self.continuity, float(
            np.max(np.abs(flux), where=mask, initial=0.0)))
        dpbar_dt = (pbar_w[2:] - pbar_w[:-2]) / (2.0 * dt)
        dpbar_dq = quotient_on(mask, dD * rho - D * drho, rho ** 2)
        # d(rho sigma2_W)/dq / rho  with  rho sigma2_W = M2 - D^2/rho
        pressure = quotient_on(mask,
                               dm2 - quotient_on(mask, 2.0 * D * dD, rho)
                               + quotient_on(mask, D ** 2 * drho, rho ** 2),
                               rho)
        residual = (dpbar_dt + pbar_w[1:-1] * dpbar_dq / mass + self.grad_v
                    + pressure / mass)
        self.euler = max(self.euler, float(
            np.max(np.abs(residual), where=mask, initial=0.0)))


def stream_trace(psi0: Wavefunction, V: Potential, cfg: PropagationConfig,
                 eps_factor: float = DEFAULT_MASK_EPS, emit=None) -> tuple:
    """(ResidualPass, final amplitudes) of one trace, propagated, checked
    and reduced a chunk at a time.  emit(times, rho, pbar, own), if
    given, receives each chunk's rows while no check has failed.  Raises
    the unitarity failure of the trace; a failing residual check is left
    in the pass's error, so that a caller can rank it below the unitarity
    of another trace."""
    times = snapshot_times(cfg)
    reduced, done = ResidualPass(psi0.grid, V, cfg, eps_factor), 0
    for amps in split_step_chunks(psi0, V, cfg):
        rows = reduced.feed(amps)
        if emit is not None and rows is not None:
            emit(times[done:done + len(amps)], *rows)
        done += len(amps)
    check_unitarity(reduced.drift)
    return reduced, amps[-1]


def kinetic_energy_densities(psi: Wavefunction) -> dict[str, RealProfile]:
    """The three local kinetic-energy densities, keyed by definition tag:
    the second momentum-moment densities of moment_densities over 2m,

        W : from the Wigner moment-density kernel;
        MH: Re[conj(psi) p^2 psi] / (2m)  (= the S/MH second-moment density);
        C : |p psi|^2 / (2m)              (the sandwich density).

    Each integrates to <p^2>/(2m); the W density is the pointwise mean of
    the other two."""
    g = psi.grid
    out = {}
    for definition in ("W", "MH", "C"):
        (second,) = moment_densities(psi, momentum_power(1), definition,
                                     orders=(2,))
        out[definition] = RealProfile(g, second / (2.0 * g.mass),
                                      np.ones(g.n, dtype=bool))
    return out


def position_mean(psi: Wavefunction) -> float:
    return float(np.sum(psi.grid.q * psi.rho()) * psi.grid.dq)
