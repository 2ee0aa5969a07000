import numpy as np
import pytest

import locmom as lm
from locmom.core import RealProfile, spectral_multiply, support_mask

from conftest import make_state
from dense_oracle import (global_average, momentum_to_position,
                          spatial_derivative)


def test_make_grid_spacings():
    g = lm.make_grid(8, -4.0, 4.0)
    assert g.dq == 1.0
    assert g.dp == pytest.approx(2.0 * np.pi / 8.0, abs=1e-12)
    g2 = lm.make_grid(512, -20.0, 20.0)
    assert g2.dq == 0.078125


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(lm.ConfigError, match="even and >= 8"):
        lm.make_grid(7, -4.0, 4.0)
    with pytest.raises(lm.ConfigError, match="even and >= 8"):
        lm.make_grid(6, -4.0, 4.0)
    with pytest.raises(lm.ConfigError, match="inverted"):
        lm.make_grid(16, 4.0, -4.0)
    with pytest.raises(lm.ConfigError, match="hbar"):
        lm.make_grid(16, -4.0, 4.0, hbar=0.0)
    with pytest.raises(lm.ConfigError, match="mass"):
        lm.make_grid(16, -4.0, 4.0, mass=-1.0)



@pytest.mark.parametrize("kwargs", [
    {"q_min": -np.inf}, {"q_max": np.inf}, {"q_max": np.nan},
    {"hbar": np.inf}, {"mass": np.inf}])
def test_make_grid_rejects_non_finite_parameters(kwargs):
    args = {"n": 16, "q_min": -4.0, "q_max": 4.0, **kwargs}
    with pytest.raises(lm.ConfigError, match="finite"):
        lm.make_grid(**args)


def test_require_normalized_rejects_nan(gauss512):
    amp = gauss512.amp.copy()
    amp[3] = np.nan
    with pytest.raises(lm.PreconditionError,
                       match=r"\|norm - 1\|: nan exceeds 1e-08$"):
        global_average(lm.Wavefunction(gauss512.grid, amp),
                       lm.momentum_power(1))


def test_momentum_grid_wrapped_vs_sorted(grid512):
    assert np.array_equal(np.sort(grid512.p_wrapped), grid512.p)
    assert grid512.p[grid512.n // 2] == 0.0


def test_momentum_representation_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    phi = lm.momentum_representation(psi)
    k_bin = np.argmin(np.abs(grid512.p - 2.0 * np.pi * 4.0 / 40.0))
    off_bin = np.abs(phi.copy())
    off_bin[k_bin] = 0.0
    assert np.all(off_bin < 1e-10)
    assert np.abs(phi[k_bin]) ** 2 * grid512.dp == pytest.approx(1.0, abs=1e-12)


def test_momentum_representation_gaussian_analytic(grid512, gauss512):
    phi = lm.momentum_representation(gauss512)
    expected = np.sqrt(2.0 / np.pi) * np.exp(-2.0 * (grid512.p - 2.0) ** 2)
    assert np.max(np.abs(np.abs(phi) ** 2 - expected)) < 1e-8


def test_momentum_round_trip(any_state):
    phi = lm.momentum_representation(any_state)
    back = momentum_to_position(any_state.grid, phi)
    assert np.max(np.abs(back - any_state.amp)) < 1e-12


def test_parseval(any_state):
    phi = lm.momentum_representation(any_state)
    assert np.sum(np.abs(phi) ** 2) * any_state.grid.dp == pytest.approx(
        1.0, abs=1e-10)


def test_apply_momentum_power_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    k = 2.0 * np.pi * 4.0 / 40.0
    out = lm.apply_momentum_power(psi, 2)
    assert np.max(np.abs(out - k ** 2 * psi.amp)) < 1e-10


def test_apply_momentum_power_identity(gauss512):
    out = lm.apply_momentum_power(gauss512, 0)
    assert np.array_equal(out, gauss512.amp)


def test_apply_momentum_power_gaussian_log_derivative(grid16, gauss16):
    # <q|p|psi> / psi = hbar*k0 + i*hbar*(q - q0)/(2 s^2); at q=1: 2 + 0.5i
    out = lm.apply_momentum_power(gauss16, 1)
    j = np.argmin(np.abs(grid16.q - 1.0))
    assert grid16.q[j] == 1.0
    ratio = out[j] / gauss16.amp[j]
    assert ratio == pytest.approx(2.0 + 0.5j, abs=1e-8)


def test_apply_momentum_power_cap(gauss512):
    with pytest.raises(lm.PreconditionError, match="cap"):
        lm.apply_momentum_power(gauss512, 9)


def test_apply_momentum_power_composes(gauss512):
    for a, b in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        once = lm.apply_momentum_power(gauss512, a + b)
        step = lm.apply_momentum_power(
            lm.Wavefunction(gauss512.grid, lm.apply_momentum_power(gauss512, a)), b)
        assert np.max(np.abs(once - step)) < 1e-9


def test_integrate_normalized_density(any_state):
    prof = RealProfile(any_state.grid, any_state.rho(),
                       np.ones(any_state.grid.n, dtype=bool))
    assert lm.integrate(prof) == pytest.approx(1.0, abs=1e-12)


def test_integrate_constant():
    g = lm.make_grid(64, -4.0, 4.0)
    prof = RealProfile(g, np.ones(g.n), np.ones(g.n, dtype=bool))
    assert lm.integrate(prof) == pytest.approx(8.0, abs=1e-12)


def test_integrate_gaussian_mean(grid512):
    psi = lm.synthesize(lm.Gaussian(s=1.0, k0=2.0, q0=1.0), grid512)
    prof = RealProfile(grid512, psi.rho() * grid512.q,
                       np.ones(grid512.n, dtype=bool))
    assert lm.integrate(prof) == pytest.approx(1.0, abs=1e-8)


def test_integrate_masked_points_contribute_zero(grid512, gauss512):
    mask = gauss512.mask()
    prof = RealProfile(grid512, np.ones(grid512.n), mask)
    assert lm.integrate(prof) == pytest.approx(mask.sum() * grid512.dq, abs=1e-12)


def test_spatial_derivative_sin(grid512):
    L = grid512.length
    f = np.sin(2.0 * np.pi * grid512.q / L)
    df = spatial_derivative(f, grid512)
    expected = (2.0 * np.pi / L) * np.cos(2.0 * np.pi * grid512.q / L)
    assert np.max(np.abs(df - expected)) < 1e-10


def test_spatial_derivative_constant(grid512):
    df = spatial_derivative(np.full(grid512.n, 3.7), grid512)
    assert np.max(np.abs(df)) < 1e-12


def test_spatial_derivative_gaussian_density(grid512, gauss512):
    rho = gauss512.rho()
    drho = spatial_derivative(rho, grid512)
    assert np.max(np.abs(drho + grid512.q * rho)) < 1e-8


def test_spatial_derivative_profile_keeps_mask(grid512, gauss512):
    prof = RealProfile(grid512, gauss512.rho(), gauss512.mask())
    out = spatial_derivative(prof)
    assert isinstance(out, RealProfile)
    assert np.array_equal(out.mask, prof.mask)


def test_spatial_derivative_product_rule(grid512, gauss512):
    rho = gauss512.rho()
    f = np.sin(2.0 * np.pi * grid512.q / grid512.length)
    df = spatial_derivative(f, grid512)
    drho = spatial_derivative(rho, grid512)
    direct = spatial_derivative(rho * f, grid512)
    assert np.max(np.abs(direct - (drho * f + rho * df))) < 1e-6


@pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048])
def test_seam_rows_of_a_stack_equal_one_row_calls(n):
    grid = lm.make_grid(n, -0.125 * n, 0.125 * n)
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    p = grid.p_wrapped
    factors = (p, p ** 2, p ** 3, np.exp(-1e-3j * p ** 2))
    whole = spectral_multiply(stack, *factors)
    for r, row in enumerate(stack):
        for got, alone in zip(whole, spectral_multiply(row, *factors)):
            assert got[r].tobytes() == alone.tobytes()


def test_momentum_power_is_the_seam_on_p_wrapped(any_state):
    p = any_state.grid.p_wrapped
    for k in range(1, 9):
        (seam,) = spectral_multiply(any_state.amp, p ** k)
        direct = lm.apply_momentum_power(any_state, k)
        assert direct.tobytes() == seam.tobytes()


def test_derivative_keeps_the_nyquist_mode_of_p(grid512):
    """d/dq is (i/hbar) p on the grid of apply_momentum_power, whose
    Nyquist mode sits at -pi hbar/dq, not at zero."""
    nyquist = np.exp(-1j * np.pi / grid512.dq * grid512.q)
    psi = lm.Wavefunction(grid512, nyquist)
    p_psi = lm.apply_momentum_power(psi, 1)
    assert np.max(np.abs(p_psi + np.pi / grid512.dq * nyquist)) < 1e-10
    dpsi = spatial_derivative(nyquist, grid512)
    assert np.max(np.abs(dpsi - 1j / grid512.hbar * p_psi)) < 1e-10


def test_normalize_rejects_nonfinite(grid512):
    amp = np.zeros(grid512.n, dtype=complex)
    amp[0] = np.nan
    with pytest.raises(lm.PreconditionError, match="finite"):
        lm.normalize(lm.Wavefunction(grid512, amp))


@pytest.mark.parametrize("eps", [0.0, -1e-10, 1.0 + 1e-15, 2.0, np.nan])
def test_mask_rule_refuses_eps_outside_the_unit_interval(gauss512, eps):
    with pytest.raises(lm.PreconditionError, match=r"in \(0, 1\]"):
        gauss512.mask(eps)
    with pytest.raises(lm.PreconditionError, match=r"in \(0, 1\]"):
        lm.local_value(gauss512, lm.momentum_power(1), "S", eps)


def test_mask_rule_runs_along_the_last_axis(any_state):
    rho = any_state.rho()
    stack = np.stack([rho, 4.0 * rho[::-1], rho ** 2])
    rows = [support_mask(row, 1e-6) for row in stack]
    assert np.array_equal(support_mask(stack, 1e-6), np.stack(rows))
    assert np.array_equal(support_mask(rho, 1.0), rho == rho.max())


def test_mask_rule_leaves_an_empty_mask_to_the_caller():
    """NaN weights give an empty mask, not an error of the rule: the
    callers' own checks report them."""
    assert not support_mask(np.full(8, np.nan)).any()


def _wavefunction():
    return lm.synthesize(lm.Gaussian(s=1.0, k0=2.0, q0=0.0),
                         lm.make_grid(128, -16.0, 16.0))


ARRAY_RECORDS = {
    "Wavefunction": _wavefunction,
    "RealProfile": lambda: lm.local_variance(_wavefunction(),
                                             lm.momentum_power(1), "S").profile,
    "LocalProfile": lambda: lm.local_variance(_wavefunction(),
                                              lm.momentum_power(1), "C"),
    "QuasiDistribution": lambda: lm.wigner_transform(_wavefunction()),
    "Potential": lambda: lm.harmonic_potential(lm.make_grid(128, -16.0, 16.0),
                                               1.0),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_that_hold_arrays_compare_by_identity(name):
    # two calls of one recipe: equal data, distinct objects
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b}) == 2


def test_records_that_hold_values_keep_value_equality():
    for build in (lambda: lm.make_grid(128, -16.0, 16.0),
                  lambda: lm.PropagationConfig(1e-3, 2, 1),
                  lambda: lm.parse_recipe("gaussian(s=1.0,k0=2.0,q0=0.0)")):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
