import math
import warnings

import numpy as np
import pytest

import locmom as lm
from locmom import moments as mm

import dense_oracle as dense
from conftest import GAUSS, density, make_state

RHO0 = 1.0 / np.sqrt(2.0 * np.pi)  # Gaussian peak density for s=1


def test_local_density_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    k = 2.0 * np.pi * 4.0 / 40.0
    dens = density(psi, mm.momentum_power(1))
    assert np.max(np.abs(dens - k / 40.0)) < 1e-12


def test_local_density_real_state_vanishes(grid512):
    psi = lm.synthesize(lm.Gaussian(s=1.0, k0=0.0, q0=0.0), grid512)
    dens = density(psi, mm.momentum_power(1))
    assert np.max(np.abs(dens)) < 1e-12


def test_local_density_integrates_to_p2(gauss512):
    dens = density(gauss512, mm.momentum_power(2))
    assert np.sum(dens) * gauss512.grid.dq == pytest.approx(4.25, abs=1e-8)


def test_local_value_S_gaussian_and_plane(grid512, gauss512):
    prof = lm.local_value(gauss512, mm.momentum_power(1), "S")
    m = prof.profile.mask
    assert np.max(np.abs(prof.profile.values[m] - 2.0)) < 1e-8
    psi = make_state("plane_wave", grid512)
    k = 2.0 * np.pi * 4.0 / 40.0
    prof = lm.local_value(psi, mm.momentum_power(1), "S")
    assert np.max(np.abs(prof.profile.values - k)) < 1e-10


def test_local_value_matches_direct_ratio(gauss512):
    prof = lm.local_value(gauss512, mm.momentum_power(1), "S")
    m = prof.profile.mask
    direct = np.real(lm.apply_momentum_power(gauss512, 1)[m] / gauss512.amp[m])
    assert np.max(np.abs(prof.profile.values[m] - direct)) < 1e-10


def test_diagonal_observable_local_value_is_g(grid512, gauss512):
    g_vals = np.tanh(grid512.q)
    prof = lm.local_value(gauss512, mm.position_function(g_vals), "S")
    m = prof.profile.mask
    assert np.max(np.abs(prof.profile.values[m] - g_vals[m])) < 1e-10


def test_local_variance_C_spot_values(grid16, gauss16):
    prof = lm.local_variance_C(gauss16, mm.momentum_power(1))
    q = grid16.q
    i0, i1 = np.argmin(np.abs(q)), np.argmin(np.abs(q - 1.0))
    assert prof.profile.values[i1] == pytest.approx(0.25, abs=1e-8)
    assert prof.profile.values[i0] == pytest.approx(0.0, abs=1e-10)


def test_local_variance_C_plane_wave_zero(grid512):
    psi = make_state("plane_wave", grid512)
    prof = lm.local_variance_C(psi, mm.momentum_power(1))
    assert np.max(np.abs(prof.profile.values)) < 1e-12


def test_local_variance_C_nonnegative(any_state):
    prof = lm.local_variance_C(any_state, mm.momentum_power(1))
    assert prof.profile.values[prof.profile.mask].min() >= -1e-12


def test_local_variance_C_two_routes_agree(any_state):
    A = mm.momentum_power(1)
    prof = lm.local_variance_C(any_state, A)
    m = prof.profile.mask
    sandwich = density(any_state, A, "C", 2)
    value = lm.local_value(any_state, A, "S").profile.values
    other = sandwich[m] / any_state.rho()[m] - value[m] ** 2
    assert np.max(np.abs(prof.profile.values[m] - other)) < 1e-9


def test_local_second_moment_spot_value(grid16, gauss16):
    prof = lm.local_value(gauss16, mm.momentum_power(2), "S")
    i0 = np.argmin(np.abs(grid16.q))
    assert prof.profile.values[i0] == pytest.approx(4.5, abs=1e-8)


def test_local_second_moment_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    k = 2.0 * np.pi * 4.0 / 40.0
    prof = lm.local_value(psi, mm.momentum_power(2), "S")
    assert np.max(np.abs(prof.profile.values - k ** 2)) < 1e-10


def test_local_variance_S_spot_values(grid16, gauss16):
    prof = lm.local_variance_S(gauss16, mm.momentum_power(1))
    q = grid16.q
    i0, i2 = np.argmin(np.abs(q)), np.argmin(np.abs(q - 2.0))
    assert q[i2] == 2.0
    assert prof.profile.values[i2] == pytest.approx(-0.5, abs=1e-8)
    assert prof.profile.values[i0] == pytest.approx(0.5, abs=1e-8)


def test_local_variance_S_negative_region(gauss512):
    # negative beyond |q - q0| > s*sqrt(2)
    prof = lm.local_variance_S(gauss512, mm.momentum_power(1))
    q = gauss512.grid.q
    for target in (1.6, 2.5, 4.0):
        j = np.argmin(np.abs(q - target))
        assert prof.profile.values[j] < 0.0
    j_in = np.argmin(np.abs(q - 1.0))
    assert prof.profile.values[j_in] > 0.0


def test_square_action_required(gauss512):
    A = lm.linear_action(lambda psi: psi.grid.q * psi.amp)
    with pytest.raises(lm.PreconditionError, match="square action required"):
        lm.moment_densities(gauss512, A, "S", orders=(2,))


def test_linear_action_with_square_matches_position_function(gauss512):
    q = gauss512.grid.q
    A = lm.linear_action(lambda psi: q * psi.amp,
                         lambda psi: q ** 2 * psi.amp)
    B = mm.position_function(q)
    pa = lm.local_variance_S(gauss512, A)
    pb = lm.local_variance_S(gauss512, B)
    assert np.max(np.abs(pa.profile.values - pb.profile.values)) < 1e-12


def test_sandwich_density_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    k = 2.0 * np.pi * 4.0 / 40.0
    dens = density(psi, mm.momentum_power(1), "C", 2)
    assert np.max(np.abs(dens - k ** 2 / 40.0)) < 1e-10


def test_sandwich_density_gaussian_spot(grid16, gauss16):
    dens = density(gauss16, mm.momentum_power(1), "C", 2)
    i0 = np.argmin(np.abs(grid16.q))
    assert dens[i0] == pytest.approx(4.0 * RHO0, abs=1e-8)


def test_both_square_densities_share_integral(any_state):
    A = mm.momentum_power(1)
    dq = any_state.grid.dq
    sandwich = float(np.sum(density(any_state, A, "C", 2)) * dq)
    sym = float(np.sum(density(any_state, mm.momentum_power(2))) * dq)
    direct = dense.global_average(any_state, mm.momentum_power(2))
    assert sandwich == pytest.approx(direct, abs=1e-9)
    assert sym == pytest.approx(direct, abs=1e-9)


def test_witness_zero_for_eigenstates_and_diagonal(grid512, gauss512):
    psi = make_state("plane_wave", grid512)
    assert dense.density_inequality_witness(psi, mm.momentum_power(1)) < 1e-10
    g_obs = mm.position_function(np.tanh(grid512.q))
    assert dense.density_inequality_witness(gauss512, g_obs) < 1e-10


def test_witness_gaussian_value(gauss512):
    wit = dense.density_inequality_witness(gauss512, mm.momentum_power(1))
    assert wit == pytest.approx(0.5 * RHO0, abs=1e-8)


def test_global_average_examples(grid512, gauss512):
    assert dense.global_average(gauss512, mm.momentum_power(1)) == (
        pytest.approx(2.0, abs=1e-9))
    real_state = lm.synthesize(lm.Gaussian(s=1.0, k0=0.0, q0=0.0), grid512)
    assert abs(dense.global_average(real_state, mm.momentum_power(1))) < 1e-10
    shifted = lm.synthesize(lm.Gaussian(s=1.0, k0=2.0, q0=1.0), grid512)
    q_obs = mm.position_function(grid512.q)
    assert dense.global_average(shifted, q_obs) == pytest.approx(1.0,
                                                                 abs=1e-9)


def test_density_integral_equals_global_average(any_state):
    for A in (mm.momentum_power(1), mm.momentum_power(2),
              mm.position_function(np.tanh(any_state.grid.q))):
        integral = float(np.sum(density(any_state, A)) * any_state.grid.dq)
        assert integral == pytest.approx(
            dense.global_average(any_state, A), abs=1e-9)


def test_c_and_s_local_values_coincide(any_state):
    A = mm.momentum_power(1)
    s_val = lm.local_value(any_state, A, "S")
    m = s_val.profile.mask
    c_val = np.real(A.apply(any_state)[m] / any_state.amp[m])
    assert np.max(np.abs(s_val.profile.values[m] - c_val)) < 1e-10


def test_c_and_s_variances_differ_on_generic_states(gauss512):
    assert dense.density_inequality_witness(gauss512, mm.momentum_power(1)) > 1e-3


def test_variance_decomposition_gaussian(gauss512):
    for definition, first in (("S", 0.25), ("C", 0.25)):
        deco = lm.variance_decomposition(gauss512, mm.momentum_power(1),
                                         definition)
        assert deco.avg_local_variance == pytest.approx(first, abs=1e-8)
        assert deco.variance_of_local_avg == pytest.approx(0.0, abs=1e-10)
        assert deco.total == pytest.approx(0.25, abs=1e-8)


def test_variance_decomposition_gaussian_to_roundoff(gauss512):
    # the local variance is 1/4 at every q, and the centred split loses
    # only roundoff off the mask (an uncentred one adds k0^2 P_off = 5.5e-11)
    for definition in mm.DEFINITIONS:
        deco = lm.variance_decomposition(gauss512, mm.momentum_power(1),
                                         definition)
        assert deco.avg_local_variance == pytest.approx(0.25, abs=1e-12)
        assert deco.total == pytest.approx(0.25, abs=1e-12)


def test_variance_decomposition_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    for definition in mm.DEFINITIONS:
        deco = lm.variance_decomposition(psi, mm.momentum_power(1), definition)
        assert abs(deco.avg_local_variance) < 1e-10
        assert abs(deco.variance_of_local_avg) < 1e-10
        assert abs(deco.total) < 1e-10


def test_variance_decomposition_identity_all_definitions(any_state):
    A = mm.momentum_power(1)
    direct = lm.direct_variance(any_state, A)
    for definition in mm.DEFINITIONS:
        deco = lm.variance_decomposition(any_state, A, definition)
        assert deco.total == pytest.approx(direct, abs=1e-8)
        assert deco.variance_of_local_avg >= -1e-12


def test_variance_decomposition_diagonal_observable(gauss512):
    A = mm.position_function(gauss512.grid.q)
    direct = lm.direct_variance(gauss512, A)
    for definition in mm.DEFINITIONS:
        deco = lm.variance_decomposition(gauss512, A, definition)
        assert deco.avg_local_variance == pytest.approx(0.0, abs=1e-10)
        assert deco.total == pytest.approx(direct, abs=1e-8)


def test_diagonal_observable_decomposition_finite_at_subnormal_amplitudes():
    # the tails of this state fall to subnormal amplitudes, where
    # g psi / psi overflows; g is read off the density g rho instead
    grid = lm.make_grid(2048, -40.0, 40.0)
    psi = lm.synthesize(lm.parse_recipe("oscillator(level=3,omega=1.0)"),
                        grid)
    A = mm.position_function(grid.q ** 2)
    direct = lm.direct_variance(psi, A)
    for definition in mm.DEFINITIONS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deco = lm.variance_decomposition(psi, A, definition)
        assert math.isfinite(deco.total) and deco.avg_local_variance == 0.0
        assert deco.total == pytest.approx(direct, abs=1e-8)


def test_diagonal_observable_variances_vanish_pointwise(gauss512):
    A = mm.position_function(np.tanh(gauss512.grid.q))
    vs = lm.local_variance_S(gauss512, A)
    vc = lm.local_variance_C(gauss512, A)
    m = vs.profile.mask
    assert np.max(np.abs(vs.profile.values[m])) < 1e-10
    assert np.max(np.abs(vc.profile.values[m])) < 1e-10


@pytest.mark.parametrize("grid_name", ["grid512", "grid16"])
def test_W_local_variance_accurate_to_the_mask_edge(request, grid_name):
    # The W densities come from the Wigner transform, whose correlation
    # products keep relative accuracy in the tails: 8e-14 (grid512) and
    # 1.6e-13 (grid16) off the constant hbar^2/(4 s^2).  The equivalent
    # bilinear form of the densities misses by 4.9e-10 and 1.9e-9 here.
    grid = request.getfixturevalue(grid_name)
    psi = lm.synthesize(lm.Gaussian(s=1.0, k0=2.0, q0=0.0), grid)
    prof = mm.local_variance(psi, mm.momentum_power(1), "W").profile
    assert np.max(np.abs(prof.values[prof.mask] - 0.25)) < 1e-11


@pytest.mark.parametrize("n", [512, 2048])
def test_W_local_moments_match_the_gaussian_oracle(n):
    # The Wigner function of a Gaussian is a product of Gaussians, so its
    # local momentum is normal with mean hbar k0 and variance variance_W.
    # Order k misses by about eps * p_max^k, p_max = pi*hbar/(2 dq) the W
    # half-band edge, on the transform route as well; at n = 2048 the
    # kernel misses by 2.4e-14, 1.5e-12, 1.3e-10 and 7.9e-9.
    grid = lm.make_grid(n, -20.0, 20.0)
    psi = lm.synthesize(GAUSS, grid)
    oracle = lm.gaussian_oracle(GAUSS)
    mu, var = oracle.local_momentum(grid.q), oracle.variance_W(grid.q)
    exact = {1: mu, 2: mu ** 2 + var, 3: mu ** 3 + 3 * mu * var,
             4: mu ** 4 + 6 * mu ** 2 * var + 3 * var ** 2}
    p_max = np.pi * grid.hbar / (2.0 * grid.dq)
    for order in (1, 2, 3, 4):
        prof = mm.local_value(psi, mm.momentum_power(order), "W").profile
        dev = np.max(np.abs(prof.values - exact[order])[prof.mask])
        assert dev < 4 * np.finfo(float).eps * p_max ** order, (order, dev)


def test_MH_profiles_equal_S(any_state):
    for order in (1, 2, 3, 4):
        A = mm.momentum_power(order)
        mh = mm.local_value(any_state, A, "MH").profile
        s = mm.local_value(any_state, A, "S").profile
        assert np.array_equal(mh.values, s.values)
    p = mm.momentum_power(1)
    assert np.array_equal(mm.local_variance(any_state, p, "MH").profile.values,
                          mm.local_variance(any_state, p, "S").profile.values)


def test_variance_decomposition_rejects_heavy_masking(gauss512):
    with pytest.raises(lm.PreconditionError, match="unreliable"):
        lm.variance_decomposition(gauss512, mm.momentum_power(1), "S",
                                  eps_factor=1e-3)


def test_moment_order_cap():
    with pytest.raises(lm.PreconditionError, match="1..4"):
        mm.momentum_power(5)
    with pytest.raises(lm.PreconditionError, match="1..4"):
        mm.momentum_power(0)


def test_phase_space_definitions_reject_generic_operators(gauss512):
    q = gauss512.grid.q
    A = lm.linear_action(lambda psi: q * psi.amp,
                         lambda psi: q ** 2 * psi.amp)
    with pytest.raises(lm.PreconditionError, match="symbol"):
        lm.variance_decomposition(gauss512, A, "W")
    with pytest.raises(lm.PreconditionError, match="cap"):
        lm.variance_decomposition(gauss512, mm.momentum_power(3), "MH")


# ---------------------------------------------------------------------------
# Dense-matrix brute-force equivalence on n=32 grids


@pytest.fixture(scope="module")
def grid32():
    return lm.make_grid(32, -18.0, 18.0)


@pytest.fixture(scope="module", params=["gaussian", "plane_wave", "superposition"])
def state32(request, grid32):
    if request.param == "gaussian":
        return lm.synthesize(lm.Gaussian(s=1.2, k0=1.0, q0=0.0), grid32)
    if request.param == "plane_wave":
        return lm.synthesize(lm.PlaneWave(k=2.0 * np.pi * 3.0 / 36.0), grid32)
    return lm.synthesize(lm.Superposition(branches=(
        (1 + 0j, lm.Gaussian(s=1.2, k0=0.0, q0=-4.0)),
        (1 + 0j, lm.Gaussian(s=1.2, k0=0.0, q0=4.0)))), grid32)


def test_dense_matrix_equivalence(grid32, state32):
    psi = state32
    P = dense.momentum_matrix(grid32, 1)
    A = mm.momentum_power(1)
    m = psi.mask()

    spectral = density(psi, A)
    assert np.max(np.abs(spectral - dense.density_S(grid32, psi.amp, P))) < 1e-6

    spectral = density(psi, mm.momentum_power(2))
    assert np.max(np.abs(spectral - dense.density_S(grid32, psi.amp, P @ P))) < 1e-6

    spectral = density(psi, A, "C", 2)
    assert np.max(np.abs(spectral - dense.sandwich(grid32, psi.amp, P))) < 1e-6

    spectral = lm.local_value(psi, A, "S").profile.values
    ref = dense.local_value_S(grid32, psi.amp, P)
    assert np.max(np.abs(spectral[m] - ref[m])) < 1e-6

    spectral = lm.local_value(psi, mm.momentum_power(2), "S").profile.values
    ref = dense.local_second_moment_S(grid32, psi.amp, P)
    assert np.max(np.abs(spectral[m] - ref[m])) < 1e-6

    spectral = lm.local_variance_S(psi, A).profile.values
    ref = dense.local_variance_S(grid32, psi.amp, P)
    assert np.max(np.abs(spectral[m] - ref[m])) < 1e-6

    spectral = lm.local_variance_C(psi, A).profile.values
    ref = dense.local_variance_C(grid32, psi.amp, P)
    assert np.max(np.abs(spectral[m] - ref[m])) < 1e-6


def test_dense_matrix_equivalence_position_observable(grid32):
    psi = lm.synthesize(lm.Gaussian(s=1.2, k0=1.0, q0=0.0), grid32)
    g_vals = np.tanh(grid32.q)
    G = dense.position_matrix(grid32, g_vals)
    A = mm.position_function(g_vals)
    spectral = density(psi, A)
    assert np.max(np.abs(spectral - dense.density_S(grid32, psi.amp, G))) < 1e-6
    spectral = density(psi, A, "C", 2)
    assert np.max(np.abs(spectral - dense.sandwich(grid32, psi.amp, G))) < 1e-6
