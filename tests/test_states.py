import numpy as np
import pytest

import locmom as lm
from locmom import moments as mm

import dense_oracle as dense
from conftest import GAUSS, TWO_GAUSS


def test_gaussian_synthesis_norm_and_mean(grid512, gauss512):
    assert abs(gauss512.norm() - 1.0) < 1e-12
    q_mean = np.sum(grid512.q * gauss512.rho()) * grid512.dq
    assert abs(q_mean) < 1e-10


def test_plane_wave_modulus(grid512):
    psi = lm.synthesize(lm.PlaneWave(k=2.0 * np.pi * 4.0 / 40.0), grid512)
    assert np.max(np.abs(np.abs(psi.amp) - 1.0 / np.sqrt(40.0))) < 1e-12


def test_oscillator_momentum_second_moment(grid512):
    psi = lm.synthesize(lm.OscillatorEigenstate(level=1, omega=1.0), grid512)
    assert dense.global_average(psi, mm.momentum_power(2)) == pytest.approx(
        1.5, abs=1e-8)


def test_oscillator_second_moment_against_dense_oracle():
    grid = lm.make_grid(64, -12.0, 12.0)
    psi = lm.synthesize(lm.OscillatorEigenstate(level=1, omega=1.0), grid)
    P2 = dense.momentum_matrix(grid, 2)
    assert dense.expectation(grid, psi.amp, P2) == pytest.approx(1.5, abs=1e-8)


def test_oscillator_levels_orthonormal(grid512):
    levels = [lm.synthesize(lm.OscillatorEigenstate(level=n, omega=1.0),
                            grid512) for n in range(5)]
    for i, a in enumerate(levels):
        for j, b in enumerate(levels):
            overlap = np.sum(np.conj(a.amp) * b.amp) * grid512.dq
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-10


def test_edge_decay_enforced(grid512):
    for bad in (lm.Gaussian(s=1.0, k0=0.0, q0=18.0),
                lm.Gaussian(s=4.0, k0=0.0, q0=0.0)):
        with pytest.raises(lm.PreconditionError,
                           match="fit the window|edge-decay"):
            lm.synthesize(bad, grid512)


def test_gaussian_below_grid_spacing_rejected(grid512):
    # dq = 40/512 = 0.078125; s = dq is still accepted
    for s in (1e-300, 1e-160, 0.078):
        with pytest.raises(lm.PreconditionError, match="grid spacing"):
            lm.synthesize(lm.Gaussian(s=s, k0=0.0, q0=0.1), grid512)
    lm.synthesize(lm.Gaussian(s=grid512.dq, k0=0.0, q0=0.0), grid512)
    coarse = lm.make_grid(32, -18.0, 18.0)
    lm.synthesize(lm.Gaussian(s=1.2 * coarse.dq, k0=0.0, q0=0.0), coarse)


def test_plane_wave_commensurability(grid512):
    with pytest.raises(lm.PreconditionError, match="commensurate"):
        lm.synthesize(lm.PlaneWave(k=0.5), grid512)


def test_oscillator_level_cap(grid512):
    with pytest.raises(lm.PreconditionError, match="level"):
        lm.synthesize(lm.OscillatorEigenstate(level=5, omega=1.0), grid512)


def test_superposition_linearity(grid512):
    a = lm.synthesize(lm.Gaussian(s=1.0, k0=0.0, q0=-4.0), grid512)
    b = lm.synthesize(lm.Gaussian(s=1.0, k0=0.0, q0=4.0), grid512)
    combined = a.amp + b.amp
    from locmom.states import _amplitude
    raw = _amplitude(TWO_GAUSS, grid512)
    assert np.max(np.abs(raw - combined)) < 1e-12


def test_superposition_needs_two_branches(grid512):
    with pytest.raises(lm.PreconditionError, match="two branches"):
        lm.synthesize(lm.Superposition(branches=((1 + 0j, GAUSS),)), grid512)


def test_localized_states_satisfy_edge_decay(localized_state):
    amp = localized_state.amp
    assert max(abs(amp[0]), abs(amp[-1])) < 1e-12


def test_mask_threshold_convention(gauss512):
    rho = gauss512.rho()
    assert np.array_equal(gauss512.mask(), rho >= 1e-10 * rho.max())


def test_gaussian_oracle_frozen_values():
    oracle = lm.gaussian_oracle(GAUSS)
    assert oracle.variance_C(1.0) == pytest.approx(0.25, abs=1e-15)
    assert oracle.variance_S(2.0) == pytest.approx(-0.5, abs=1e-15)
    assert oracle.variance_S(0.0) == pytest.approx(0.5, abs=1e-15)
    assert oracle.variance_C(0.0) == pytest.approx(0.0, abs=1e-15)
    assert oracle.variance_W(0.0) == pytest.approx(0.25, abs=1e-15)
    assert oracle.local_momentum(3.0) == pytest.approx(2.0, abs=1e-15)
    assert oracle.second_moment_S(0.0) == pytest.approx(4.5, abs=1e-15)


def test_gaussian_oracle_difference_identity():
    oracle = lm.gaussian_oracle(lm.Gaussian(s=0.7, k0=-1.3, q0=0.4))
    q = np.linspace(-3.0, 3.0, 41)
    lhs = oracle.variance_S(q) + oracle.variance_C(q)
    assert np.max(np.abs(lhs - 2.0 * oracle.variance_W(q))) < 1e-14


def test_gaussian_oracle_rejects_other_recipes():
    with pytest.raises(lm.PreconditionError, match="gaussian"):
        lm.gaussian_oracle(lm.PlaneWave(k=1.0))


def test_gaussian_oracle_against_dense_matrix_n64():
    grid = lm.make_grid(64, -12.0, 12.0)
    psi = lm.synthesize(GAUSS, grid)
    oracle = lm.gaussian_oracle(GAUSS)
    P = dense.momentum_matrix(grid, 1)
    mask = psi.mask()
    q = grid.q[mask]
    assert np.max(np.abs(
        dense.local_value_S(grid, psi.amp, P)[mask] - oracle.local_momentum(q))) < 1e-6
    assert np.max(np.abs(
        dense.local_variance_C(grid, psi.amp, P)[mask] - oracle.variance_C(q))) < 1e-6
    assert np.max(np.abs(
        dense.local_variance_S(grid, psi.amp, P)[mask] - oracle.variance_S(q))) < 1e-6


def test_recipe_text_round_trip():
    recipes = [GAUSS, lm.PlaneWave(k=0.62831853071795862),
               lm.OscillatorEigenstate(level=3, omega=0.5), TWO_GAUSS,
               lm.Superposition(branches=(
                   (0.5 + 0.5j, GAUSS),
                   (1 + 0j, lm.Superposition(branches=(
                       (1 + 0j, lm.PlaneWave(k=1.0)),
                       (-1j, GAUSS))))))]
    for recipe in recipes:
        text = lm.recipe_text(recipe)
        assert lm.parse_recipe(text) == recipe
        assert lm.recipe_text(lm.parse_recipe(text)) == text


def test_parse_recipe_errors_name_the_problem():
    with pytest.raises(lm.ConfigError, match="unknown recipe"):
        lm.parse_recipe("gauss(s=1)")
    with pytest.raises(lm.ConfigError, match="missing field"):
        lm.parse_recipe("gaussian(s=1.0)")
    with pytest.raises(lm.ConfigError, match="unknown recipe field"):
        lm.parse_recipe("gaussian(s=1.0,k0=2.0,weird=1.0)")
    with pytest.raises(lm.ConfigError, match="coefficient"):
        lm.parse_recipe("superposition(x*gaussian(s=1.0,k0=0.0,q0=0.0))")
    with pytest.raises(lm.ConfigError, match="must be finite"):
        lm.parse_recipe("gaussian(s=1.0,k0=inf,q0=0.0)")
    with pytest.raises(lm.ConfigError, match="must be finite"):
        lm.parse_recipe("superposition((nan+0j)*gaussian(s=1.0,k0=0.0,"
                        "q0=0.0); 1*gaussian(s=1.0,k0=0.0,q0=1.0))")
