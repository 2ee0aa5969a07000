"""Split-operator time evolution and the hydrodynamic residual checks:
the continuity equation for rho, the Euler-form equation for the Wigner
local momentum with its quantum pressure term, and the three competing
local kinetic-energy densities.

Residuals are evaluated with centered differences in time on the stored
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

A trace is worked on in chunks of consecutive snapshots stacked as
(snapshots, n) arrays: the fields, the Wigner cross-check and the time
differences each run over a whole chunk at once, so that the cost per
snapshot is the arithmetic on its rows and not a round of Python and
FFT set-up.  Chunks hold max(1, CHUNK_ROWS // n) snapshots, which keeps
the working set O(CHUNK_ROWS + n) beyond the stored fields.  The checks
keep the order of a snapshot-by-snapshot pass: the first snapshot in time
that fails raises the error of its first failing check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile, Wavefunction,
                   quotient_on, require_normalized, spectral_multiply,
                   support_mask)
from .errors import PreconditionError, SelfCheckError, check
from .moments import moment_densities, momentum_power
from .phasespace import wigner_moment_density_stack

STABILITY_LIMIT = 0.5


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


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    potential: Potential
    times: np.ndarray
    snapshots: tuple  # of Wavefunction


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


def split_step_propagate(psi0: Wavefunction, V: Potential,
                         cfg: PropagationConfig) -> EvolutionTrace:
    """Strang splitting exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2) per step;
    unitary, second order in dt.  Snapshots every snapshot_stride steps,
    including the initial and final states."""
    require_normalized(psi0)
    g = psi0.grid
    check_stability(g, cfg.dt)
    half_v = np.exp(-0.5j * cfg.dt * V.values / g.hbar)
    kinetic = np.exp(-1j * cfg.dt * g.p_wrapped ** 2 / (2.0 * g.mass * g.hbar))
    amp = np.array(psi0.amp, dtype=complex)
    times = [0.0]
    snapshots = [Wavefunction(g, amp.copy())]
    for step in range(1, cfg.steps + 1):
        amp = half_v * spectral_multiply(half_v * amp, kinetic)[0]
        if step % cfg.snapshot_stride == 0 or step == cfg.steps:
            times.append(step * cfg.dt)
            snapshots.append(Wavefunction(g, amp.copy()))
    trace = EvolutionTrace(potential=V, times=np.array(times),
                           snapshots=tuple(snapshots))
    check("unitarity, norm drift |norm - 1|",
          np.max([abs(s.norm() - 1.0) for s in trace.snapshots]), 1e-9,
          PreconditionError)
    return trace


def _require_uniform_stride(trace: EvolutionTrace) -> float:
    if len(trace.snapshots) < 3:
        raise PreconditionError("need at least 3 snapshots for residuals")
    gaps = np.diff(trace.times)
    if not gaps[0] > 0:
        raise PreconditionError("snapshot times must increase, got a first "
                                "step of %r" % float(gaps[0]))
    check("snapshot time steps, largest deviation from the first",
          np.max(np.abs(gaps - gaps[0])), 1e-12 * gaps[0], PreconditionError)
    return float(gaps[0])


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

# Snapshot rows (snapshots x grid points) that hydrodynamic_residuals
# works on at once, beyond the fields it stores: a chunk holds
# max(1, CHUNK_ROWS // n) snapshots.
CHUNK_ROWS = 4096


def _checked_fields(snapshots, g: GridSpec, out: np.ndarray) -> None:
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
    amps = np.stack([s.amp for s in snapshots])
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


def hydrodynamic_residuals(trace: EvolutionTrace,
                           eps_factor: float = DEFAULT_MASK_EPS) -> tuple:
    """(continuity, euler, rho, pbar, mask) of the trace: the largest
    residuals of the continuity equation

        d(rho)/dt + d(rho pbar/m)/dq = 0

    and of the Euler-form equation for the Wigner local momentum

        d(pbar_W)/dt = -(pbar_W/m) d(pbar_W)/dq - dV/dq
                       - (1/(m rho)) d(rho sigma2_W)/dq,

    then the (T, n) rows of rho, of pbar = D/rho and of pbar's mask
    (core.support_mask of each rho row), each row the local_value of p
    under S of its snapshot.  The first local momentum moment is
    definition-independent (S = MH = W), so D is evaluated once from the
    amplitudes; the Wigner moment densities of every snapshot are checked
    against, and the Euler residual evaluated through, their bilinear
    forms (_checked_fields), and the quantum-pressure flux
    rho sigma2_W = M2 - D^2/rho is differentiated through the expanded
    product rule.

    The five fields of every snapshot are computed once and stored as
    (T, n) arrays, chunk by chunk of max(1, CHUNK_ROWS // n) snapshots,
    and each chunk is checked against its Wigner moment densities
    before the next, so that the first snapshot in time order that fails
    raises.  The centred time differences then run over the interior
    times of each chunk at once, reading one stored snapshot beyond the
    chunk on each side.  Beyond the stored 6 T n floats the working set
    is O(CHUNK_ROWS + n)."""
    dt = _require_uniform_stride(trace)
    g = trace.snapshots[0].grid
    mass = g.mass
    grad_v = trace.potential.grad
    count = len(trace.snapshots)
    chunk = max(1, CHUNK_ROWS // g.n)
    fields = np.empty((5, count, g.n))  # rho, drho, D, dD, dm2
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        _checked_fields(trace.snapshots[start:stop], g, fields[:, start:stop])
    rho_all, D_all = fields[0], fields[2]
    own = support_mask(rho_all, eps_factor)
    pbar_all = quotient_on(own, D_all, rho_all)

    continuity = euler = 0.0
    for start in range(1, count - 1, chunk):
        # the chunk's interior times and one stored snapshot on each side
        stop = min(start + chunk, count - 1)
        rho_w, pbar, near = (a[start - 1:stop + 1]
                             for a in (rho_all, pbar_all, own))
        mask = near[:-2] & near[1:-1] & near[2:]
        rho, drho, D, dD, dm2 = fields[:, start:stop]
        drho_dt = (rho_w[2:] - rho_w[:-2]) / (2.0 * dt)
        flux = drho_dt + dD / mass
        continuity = max(continuity, float(np.max(np.abs(flux), where=mask,
                                                  initial=0.0)))
        dpbar_dt = (pbar[2:] - pbar[:-2]) / (2.0 * dt)
        dpbar_dq = quotient_on(mask, dD * rho - D * drho, rho ** 2)
        # d(rho sigma2_W)/dq / rho  with  rho sigma2_W = M2 - D^2/rho
        pressure = quotient_on(mask,
                               dm2 - quotient_on(mask, 2.0 * D * dD, rho)
                               + quotient_on(mask, D ** 2 * drho, rho ** 2),
                               rho)
        residual = (dpbar_dt + pbar[1:-1] * dpbar_dq / mass + grad_v
                    + pressure / mass)
        euler = max(euler, float(np.max(np.abs(residual), where=mask,
                                        initial=0.0)))
    # a copy of rho, so that the stored fields are freed on return
    return continuity, euler, rho_all.copy(), pbar_all, own


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
