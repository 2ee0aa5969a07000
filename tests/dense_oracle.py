"""Brute-force dense-matrix route to every S/C local quantity, and direct
sums and full-array formulas for the Wigner, Margenau-Hill and conditional
n x n transforms.

The momentum operator is the exact spectral-derivative dense matrix
(conjugate DFT, diagonal multiply, DFT), the position projector on cell j
is the rank-one matrix e_j e_j^T / dq, and every quantity is assembled by
explicit matrix algebra.  The transforms are explicit loops over their
defining sums.  Independent of the FFT pipeline being tested.

The *_full transforms are the whole-array formulas the package used before
its row-blocked half-spectrum routes: every cell of the n x n correlation
or shift product at once, a full complex FFT per row and, for
Margenau-Hill, the n x n phase e^{i q p/hbar}.  They are fast enough to
check the blocked routes at sizes with partial row blocks.

wigner_moment_density_full is the W moment-density kernel as it was before
it left out the correlation pairs that are exactly zero: every offset of
every row block.  Where the kernel takes every offset, it must equal this
bit for bit.

characteristic_function_S builds one slice G(tau, q) of the local
characteristic function by periodic grid shifting, the single-tau form of
the function that conditional_momentum_S inverts over the whole tau
lattice.  density_inequality_witness compares the two local densities of
A^2 that moment_densities gives under S and C.

The hydrodynamic residuals are the exception: hydrodynamic_residuals
recomputes them one snapshot at a time with the package's own
apply_momentum_power and Wigner moment densities.  It is the reference for
the chunked dynamics.ResidualPass, which must equal it bit for bit.

The rest are references that only tests read: classical_local_moments is
the general n x n classical route, the conditional moments of any a(q, p)
on the lattice, which the one-pass classical bridge must reproduce;
momentum_to_position inverts core.momentum_representation; energy_mean is
<H> of one snapshot; global_average is <A> from the S first density;
spatial_derivative is d/dq through the spectral seam.

profile_csv_text, distribution_csv_text and trace_csv_text are the CSV
writers as they were before io formatted a block of rows at a time: one
Python string per line, each float formatted on its own, the whole text
returned.  The block writers must give the same bytes.
"""

from dataclasses import dataclass

import numpy as np

from locmom import phasespace as ps
from locmom.core import (DEFAULT_MASK_EPS, GridSpec, RealProfile,
                         apply_momentum_power, local_quotients,
                         momentum_representation, quotient_on,
                         require_normalized, spectral_multiply)
from locmom.errors import PreconditionError, SelfCheckError, check
from locmom.moments import moment_densities, momentum_power


def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def momentum_matrix(grid, power: int = 1) -> np.ndarray:
    F = dft_matrix(grid.n)
    diag = np.diag(grid.p_wrapped.astype(complex) ** power)
    return (np.conj(F).T / grid.n) @ diag @ F


def position_matrix(grid, g: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(g, dtype=complex))


def delta_matrix(grid, j: int) -> np.ndarray:
    out = np.zeros((grid.n, grid.n))
    out[j, j] = 1.0 / grid.dq
    return out


def expectation(grid, psi: np.ndarray, M: np.ndarray) -> float:
    return float(np.real(np.conj(psi) @ (M @ psi)) * grid.dq)


def density_S(grid, psi: np.ndarray, A: np.ndarray) -> np.ndarray:
    """<psi| (A delta_j + delta_j A)/2 |psi> for every j."""
    out = np.empty(grid.n)
    for j in range(grid.n):
        Dj = delta_matrix(grid, j)
        out[j] = expectation(grid, psi, 0.5 * (A @ Dj + Dj @ A))
    return out


def sandwich(grid, psi: np.ndarray, A: np.ndarray) -> np.ndarray:
    """<psi| A delta_j A |psi> for every j."""
    out = np.empty(grid.n)
    for j in range(grid.n):
        out[j] = expectation(grid, psi, A @ delta_matrix(grid, j) @ A)
    return out


def local_value_S(grid, psi, A):
    rho = np.abs(psi) ** 2
    return density_S(grid, psi, A) / rho


def local_second_moment_S(grid, psi, A):
    rho = np.abs(psi) ** 2
    return density_S(grid, psi, A @ A) / rho


def local_variance_S(grid, psi, A):
    return local_second_moment_S(grid, psi, A) - local_value_S(grid, psi, A) ** 2


def local_variance_C(grid, psi, A):
    rho = np.abs(psi) ** 2
    return sandwich(grid, psi, A) / rho - local_value_S(grid, psi, A) ** 2


def momentum_amplitudes_at(psi, pvals: np.ndarray) -> np.ndarray:
    """phi evaluated at arbitrary momenta (trigonometric interpolation of the
    standard momentum representation), with the whole len(pvals) x n phase
    matrix at once."""
    g = psi.grid
    phase = np.exp(-1j * np.outer(np.asarray(pvals, dtype=float), g.q) / g.hbar)
    return g.dq / np.sqrt(2.0 * np.pi * g.hbar) * phase @ psi.amp


def wigner_direct(grid, psi: np.ndarray, periodic: bool) -> np.ndarray:
    """Re of W(q_i, p) = dq/(pi*hbar) sum_j conj(psi_{i+j}) psi_{i-j}
    e^{2 i p j dq/hbar} over j = -n/2..n/2-1, on the half-spaced ascending
    p grid.  Pairs outside the window wrap when periodic, else are dropped."""
    n = grid.n
    dp = np.pi * grid.hbar / (n * grid.dq)
    pgrid = dp * (np.arange(n) - n // 2)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(-n // 2, n // 2):
            a, b = i + j, i - j
            if periodic:
                a, b = a % n, b % n
            elif not (0 <= a < n and 0 <= b < n):
                continue
            phase = np.exp(2j * pgrid * j * grid.dq / grid.hbar)
            out[i] += np.real(np.conj(psi[a]) * psi[b] * phase)
    return out * grid.dq / (np.pi * grid.hbar)


def wigner_moment_density_full(amps: np.ndarray, grid, orders) -> np.ndarray:
    """densities[k, r] of order orders[k] of each amplitude row r, every
    row valid: the product of the kernel K with the correlation half
    s = -n/2..0 of every row, in the row blocks, with the kernel and the
    products, of phasespace.wigner_moment_density_stack."""
    n, half = grid.n, grid.n // 2
    pgrid, dp = ps.wigner_pgrid(grid)
    powers = np.fft.ifftshift(pgrid) ** np.asarray(orders)[:, None]
    K = np.fft.rfft(powers)[:, ::-1] * (dp * grid.dq / (np.pi * grid.hbar))
    K[:, 1:half] *= 2.0
    kernel = np.conj(K).view(float)
    wrap = ps._pad_modes(amps)[0]
    conjugates = ps._windows(ps._padded(np.conj(amps), wrap))
    windows = ps._windows(ps._padded(amps, wrap))
    out = np.empty((len(orders), len(amps), n))
    for r, q in ps._row_blocks(len(amps), n, max(1, ps.BLOCK_CELLS // n)):
        c = conjugates[r, q, :half + 1] * windows[r, q, n:half - 1:-1]
        block = kernel @ c.reshape(-1, half + 1).view(float).T
        out[:, r, q] = block.reshape(len(orders), *c.shape[:2])
    return out


def conditional_direct(grid, psi: np.ndarray) -> np.ndarray:
    """Re of P_S(p|q_i) = dq/(2 pi hbar) sum_j G(j dq/hbar, q_i)
    e^{-i p j dq/hbar} over j = 0..n-1, with G(tau, q) = psi(q + hbar tau)
    / (2 psi(q)) + conj(psi(q - hbar tau)) / (2 conj(psi(q))) by periodic
    shifting, on the standard ascending p grid; zero rows where psi = 0."""
    n = grid.n
    out = np.zeros((n, n))
    for i in range(n):
        if psi[i] == 0:
            continue
        for j in range(n):
            G = (psi[(i + j) % n] / (2.0 * psi[i])
                 + np.conj(psi[(i - j) % n]) / (2.0 * np.conj(psi[i])))
            phase = np.exp(-1j * grid.p * j * grid.dq / grid.hbar)
            out[i] += np.real(G * phase)
    return out * grid.dq / (2.0 * np.pi * grid.hbar)


def margenau_hill_direct(grid, psi: np.ndarray) -> np.ndarray:
    """F_MH(q_j, p_k) = Re[conj(psi_j) phi_k e^{i p_k q_j/hbar}]
    / sqrt(2 pi hbar) on the standard ascending p grid, with the explicit
    DFT phi_k = dq/sqrt(2 pi hbar) sum_l psi_l e^{-i p_k q_l/hbar}."""
    n, q, p, hbar = grid.n, grid.q, grid.p, grid.hbar
    norm = np.sqrt(2.0 * np.pi * hbar)
    phi = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            phi[k] += psi[j] * np.exp(-1j * p[k] * q[j] / hbar)
    phi *= grid.dq / norm
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            out[j, k] = np.real(np.conj(psi[j]) * phi[k]
                                * np.exp(1j * p[k] * q[j] / hbar)) / norm
    return out


def _shifted(psi: np.ndarray, periodic: bool):
    """(plus, minus) n x n: psi at i + s and at i - s, s = -n/2..n/2-1
    ascending, padded periodically or with zeros."""
    n, half = len(psi), len(psi) // 2
    padded = np.pad(psi, half, mode="wrap" if periodic else "constant")
    i = np.arange(n)[:, None] + half
    s = np.arange(-half, half)[None, :]
    return padded[i + s], padded[i - s]


def wigner_full(grid, psi: np.ndarray, periodic: bool) -> np.ndarray:
    """The Wigner sum of wigner_direct as one complex ifft per row of the
    whole correlation matrix."""
    plus, minus = _shifted(psi, periodic)
    rows = np.fft.ifft(np.fft.ifftshift(np.conj(plus) * minus, axes=1),
                       axis=1) * grid.n
    return np.fft.fftshift(rows.real, axes=1) * (grid.dq
                                                 / (np.pi * grid.hbar))


def margenau_hill_full(grid, psi) -> np.ndarray:
    """Margenau-Hill cells with the n x n phase e^{i q p/hbar}."""
    phi = momentum_representation(psi)
    cross = np.exp(1j * np.outer(grid.q, grid.p) / grid.hbar)
    values = np.real(np.conj(psi.amp)[:, None] * phi[None, :] * cross)
    return values / np.sqrt(2.0 * np.pi * grid.hbar)


def conditional_full(grid, psi: np.ndarray) -> np.ndarray:
    """The sum of conditional_direct as one complex fft per row of the
    whole G(tau, q) matrix, zero rows where psi = 0."""
    plus, minus = _shifted(psi, periodic=True)
    live = psi != 0
    G = np.zeros((grid.n, grid.n), dtype=complex)
    G[live] = np.fft.ifftshift(
        plus[live] / (2.0 * psi[live, None])
        + np.conj(minus[live]) / (2.0 * np.conj(psi[live, None])), axes=1)
    rows = np.fft.fft(G, axis=1).real * (grid.dq / (2.0 * np.pi * grid.hbar))
    return np.fft.fftshift(rows, axes=1)


@dataclass(frozen=True)
class CharacteristicSlice:
    """Local characteristic function G(tau, q) on the grid; identically 1 at
    tau = 0 on masked-in points (masked-out entries are zero-filled)."""

    tau: float
    values: np.ndarray


def _shift_steps(grid, tau: float) -> int:
    steps = grid.hbar * tau / grid.dq
    check("off-grid shift, distance of hbar*tau/dq = %r from an integer"
          % float(steps), abs(steps - np.rint(steps)), 1e-9,
          PreconditionError, hint="hbar*tau must be an integer multiple of dq")
    return int(round(steps))


def characteristic_function_S(psi, tau: float,
                              eps_factor: float = DEFAULT_MASK_EPS
                              ) -> CharacteristicSlice:
    """G(tau, q) = psi(q + hbar*tau)/(2 psi(q)) + conj(psi(q - hbar*tau))
    / (2 conj(psi(q))), evaluated by periodic grid shifting.

    Its Taylor coefficients in (i*tau) are the S local momentum moments.
    """
    require_normalized(psi)
    j = _shift_steps(psi.grid, tau)
    mask = psi.mask(eps_factor)
    amp, conj = psi.amp, np.conj(psi.amp)
    values = (quotient_on(mask, np.roll(amp, -j), 2.0 * amp)
              + quotient_on(mask, np.roll(conj, j), 2.0 * conj))
    return CharacteristicSlice(tau=float(tau), values=values)


def density_inequality_witness(psi, A, eps_factor=DEFAULT_MASK_EPS) -> float:
    """Max over masked-in q of |sandwich - symmetrized A^2 density|.

    Zero for eigenstates of A and for diagonal observables; strictly
    positive for generic states."""
    (sym,) = moment_densities(psi, A, "S", orders=(2,))
    (sandwich,) = moment_densities(psi, A, "C", orders=(2,))
    mask = psi.mask(eps_factor)
    return float(np.max(np.abs(sandwich - sym)[mask]))


def amplitude_fields(psi):
    """Density, momentum density and second-moment density of one snapshot
    with their product-rule spatial derivatives, d/dq = (i/hbar) p."""
    hbar = psi.grid.hbar
    amp = psi.amp
    p1, p2, p3 = (apply_momentum_power(psi, k) for k in (1, 2, 3))
    rho = np.abs(amp) ** 2
    drho = -2.0 / hbar * np.imag(np.conj(amp) * p1)
    D = np.real(np.conj(amp) * p1)
    dD = -1.0 / hbar * np.imag(np.conj(amp) * p2)
    m2 = 0.5 * np.real(np.conj(amp) * p2) + 0.5 * np.abs(p1) ** 2
    dm2 = -0.5 / hbar * (np.imag(np.conj(p1) * p2)
                         + np.imag(np.conj(amp) * p3))
    return {"rho": rho, "drho": drho, "D": D, "dD": dD, "m2": m2, "dm2": dm2}


def checked_fields(psi, tol=1e-8):
    """amplitude_fields of one snapshot, checked against its Wigner moment
    densities."""
    fields = amplitude_fields(psi)
    m1w, m2w = moment_densities(psi, momentum_power(1), "W")
    dev = max(float(np.max(np.abs(m1w - fields["D"]))),
              float(np.max(np.abs(m2w - fields["m2"]))))
    check("Wigner moment densities, deviation from their bilinear forms", dev,
          tol, SelfCheckError)
    return fields


def hydrodynamic_residuals(snapshots, times, potential, eps_factor=1e-10):
    """(continuity, euler) residuals of the snapshots (Wavefunctions at the
    given times) one snapshot at a time: the fields of each snapshot in a
    dict, and a Python loop over the interior times with the masked points
    gathered by boolean indexing."""
    dt = float(times[1] - times[0])
    g = snapshots[0].grid
    mass = g.mass
    grad_v = potential.grad
    masks = [s.mask(eps_factor) for s in snapshots]
    fields = [checked_fields(s) for s in snapshots]

    def pbar(i, mask):
        out = np.zeros(g.n)
        out[mask] = fields[i]["D"][mask] / fields[i]["rho"][mask]
        return out

    continuity = euler = 0.0
    for i in range(1, len(snapshots) - 1):
        mask = masks[i - 1] & masks[i] & masks[i + 1]
        f = fields[i]
        rho, drho, D, dD = f["rho"], f["drho"], f["D"], f["dD"]
        drho_dt = (fields[i + 1]["rho"] - fields[i - 1]["rho"]) / (2.0 * dt)
        flux = drho_dt + dD / mass
        continuity = max(continuity, float(np.max(np.abs(flux[mask]))))
        dpbar_dt = (pbar(i + 1, mask) - pbar(i - 1, mask)) / (2.0 * dt)
        dpbar_dq = np.zeros(g.n)
        dpbar_dq[mask] = ((dD * rho - D * drho)[mask] / rho[mask] ** 2)
        pressure = np.zeros(g.n)
        pressure[mask] = (f["dm2"][mask]
                          - (2.0 * D * dD)[mask] / rho[mask]
                          + (D ** 2 * drho)[mask] / rho[mask] ** 2) / rho[mask]
        residual = (dpbar_dt + pbar(i, mask) * dpbar_dq / mass + grad_v
                    + pressure / mass)
        euler = max(euler, float(np.max(np.abs(residual[mask]))))
    return continuity, euler


def classical_local_moments(F, a, orders, eps_factor=DEFAULT_MASK_EPS):
    """(sum_k a^order F dp) / P(q) per order, as RealProfiles on the mask
    of the q-marginal P: the conditional moments of a(q, p), an array that
    broadcasts to the lattice of the classical density F."""
    densities = [(a ** k * F.values).sum(axis=1) * F.dp for k in orders]
    return local_quotients(F.grid, F.q_marginal(), densities, eps_factor)


def momentum_to_position(grid, phi: np.ndarray) -> np.ndarray:
    """Inverse of momentum_representation; phi on the ascending grid."""
    phi_wrapped = np.fft.ifftshift(np.asarray(phi, dtype=complex))
    phase = np.exp(1j * grid.p_wrapped * grid.q_min / grid.hbar)
    spectrum = phi_wrapped * phase / (grid.dq / np.sqrt(2.0 * np.pi * grid.hbar))
    return np.fft.ifft(spectrum)


def global_average(psi, A) -> float:
    """<psi|A|psi> evaluated directly (A assumed Hermitian)."""
    (first,) = moment_densities(psi, A, "S", orders=(1,))
    return float(np.sum(first) * psi.grid.dq)


def energy_mean(psi, V) -> float:
    """<p^2>/(2m) + <V> of one snapshot."""
    g = psi.grid
    p2 = float(np.real(np.sum(np.conj(psi.amp)
                              * apply_momentum_power(psi, 2))) * g.dq)
    return p2 / (2.0 * g.mass) + float(np.sum(V.values * psi.rho()) * g.dq)


def spatial_derivative(field, grid: GridSpec | None = None):
    """Spectral d/dq of a RealProfile or of a raw (real or complex) array:
    the factor (i/hbar) p on the seam, so real input yields the real part.
    Exact for band-limited inputs; the caller is responsible for the input
    being smooth relative to the grid."""
    if isinstance(field, RealProfile):
        deriv = spatial_derivative(field.values, field.grid)
        return RealProfile(field.grid, deriv, field.mask.copy())
    if grid is None:
        raise ValueError("grid is required when differentiating a raw array")
    values = np.asarray(field)
    (out,) = spectral_multiply(values, (1j / grid.hbar) * grid.p_wrapped)
    if not np.iscomplexobj(values):
        return out.real
    return out


def _fmt(values) -> list[str]:
    return ["%.17g" % float(v) for v in np.asarray(values, dtype=float)]


def profile_csv_text(profiles) -> str:
    lines = ["q,value,mask,definition,order"]
    for prof in profiles:
        tail = ",%s,%s" % (prof.definition, prof.order)
        lines += ["%s,%s,%d%s" % (q, v, m, tail)
                  for q, v, m in zip(_fmt(prof.profile.grid.q),
                                     _fmt(prof.profile.values),
                                     prof.profile.mask.tolist())]
    return "\n".join(lines) + "\n"


def distribution_csv_text(dist) -> str:
    lines = ["q,p,value"]
    p = _fmt(dist.pgrid)
    for q, row in zip(_fmt(dist.grid.q), dist.values):
        lines += ["%s,%s,%s" % (q, pk, v) for pk, v in zip(p, _fmt(row))]
    return "\n".join(lines) + "\n"


def trace_csv_text(grid, times, values, masks) -> str:
    q = _fmt(grid.q)
    lines = []
    for t, vals, mask in zip(_fmt(times), values, masks):
        lines += ["%s,%s,%s,%d\n" % (t, qj, v, m)
                  for qj, v, m in zip(q, _fmt(vals), mask.tolist())]
    return "".join(lines)
