import numpy as np
import pytest

import locmom as lm
from locmom import classical as cl
from locmom import cli
from locmom import moments as mm
from locmom import phasespace as ps
from locmom.core import variance_profile

from conftest import GAUSS, traced_peak, use_bands
from dense_oracle import classical_local_moments


@pytest.fixture(scope="module")
def grid():
    return lm.make_grid(512, -20.0, 20.0)


@pytest.fixture(scope="module")
def gauss_density(grid):
    return cl.gaussian_density(grid, mean_q=0.0, mean_p=2.0,
                               sigma_q=1.0, sigma_p=0.5)


def test_density_is_normalized_probability(gauss_density, grid):
    assert gauss_density.values.min() >= 0.0
    total = gauss_density.values.sum() * grid.dq * gauss_density.dp
    assert total == pytest.approx(1.0, abs=1e-10)


def test_conditional_mean_and_variance(gauss_density):
    a = cl.momentum_variable(gauss_density)
    m1, m2 = classical_local_moments(gauss_density, a, (1, 2))
    assert np.max(np.abs(m1.values[m1.mask] - 2.0)) < 1e-8
    var = variance_profile(m1, m2)
    assert np.max(np.abs(var.values[var.mask] - 0.25)) < 1e-8


def test_second_moment_route(gauss_density):
    a = cl.momentum_variable(gauss_density)
    (m1,) = classical_local_moments(gauss_density, a, (1,))
    (m2,) = classical_local_moments(gauss_density, a, (2,))
    cond_var = m2.values[m2.mask] - m1.values[m1.mask] ** 2
    assert np.max(np.abs(cond_var - 0.25)) < 1e-8


def test_position_function_collapses(gauss_density, grid):
    a = np.broadcast_to(np.tanh(grid.q)[:, None], gauss_density.values.shape)
    m1, m2 = classical_local_moments(gauss_density, a, (1, 2))
    assert np.max(np.abs(m1.values[m1.mask] - np.tanh(grid.q)[m1.mask])) < 1e-12
    var = variance_profile(m1, m2)
    assert np.max(np.abs(var.values[var.mask])) < 1e-12


def test_local_variance_nonnegative(gauss_density):
    a = cl.momentum_variable(gauss_density)
    var = variance_profile(*classical_local_moments(gauss_density, a, (1, 2)))
    assert var.values[var.mask].min() >= -1e-12


def test_point_supported_density(grid):
    pgrid, dp = lm.phasespace.wigner_pgrid(grid)
    values = np.zeros((grid.n, grid.n))
    values[100, 200] = 1.0 / (grid.dq * dp)
    F = lm.QuasiDistribution(kind="classical", grid=grid, pgrid=pgrid, dp=dp, values=values)
    a = cl.momentum_variable(F)
    var = variance_profile(*classical_local_moments(F, a, (1, 2)))
    assert np.max(np.abs(var.values[var.mask])) < 1e-12


def test_variance_decomposition_uncorrelated(gauss_density):
    a = cl.momentum_variable(gauss_density)
    deco = cl.classical_variance_decomposition(gauss_density, a)
    assert deco.avg_local_variance == pytest.approx(0.25, abs=1e-8)
    assert deco.variance_of_local_avg == pytest.approx(0.0, abs=1e-10)
    direct = cl.direct_classical_variance(gauss_density, a)
    assert deco.total == pytest.approx(direct, abs=1e-10)


def test_variance_decomposition_correlated(grid):
    F = cl.gaussian_density(grid, 0.0, 0.0, 1.0, 1.0, corr=0.6)
    a = cl.momentum_variable(F)
    deco = cl.classical_variance_decomposition(F, a)
    assert deco.avg_local_variance == pytest.approx(0.64, abs=1e-8)
    assert deco.variance_of_local_avg == pytest.approx(0.36, abs=1e-8)
    assert deco.total == pytest.approx(1.0, abs=1e-8)


def test_variance_decomposition_position_function(gauss_density, grid):
    a = np.broadcast_to(np.tanh(grid.q)[:, None], gauss_density.values.shape)
    deco = cl.classical_variance_decomposition(gauss_density, a)
    direct = cl.direct_classical_variance(gauss_density, a)
    assert deco.avg_local_variance == pytest.approx(0.0, abs=1e-12)
    assert deco.variance_of_local_avg == pytest.approx(direct, abs=1e-10)


def test_decomposition_components_nonnegative(grid):
    for corr in (0.0, 0.3, -0.7):
        F = cl.gaussian_density(grid, 0.5, -1.0, 1.2, 0.8, corr=corr)
        a = cl.momentum_variable(F)
        deco = cl.classical_variance_decomposition(F, a)
        assert deco.avg_local_variance >= 0.0
        assert deco.variance_of_local_avg >= 0.0
        direct = cl.direct_classical_variance(F, a)
        assert deco.total == pytest.approx(direct, abs=1e-10)


def test_wigner_bridge_matches_quantum_profiles(grid):
    density = cl.wigner_as_classical(GAUSS, grid)
    psi = lm.synthesize(GAUSS, grid)
    W = lm.wigner_transform(psi)
    quantum_m1 = lm.phase_space_local_moment(W, psi, 1).profile
    quantum_var = lm.phase_space_local_variance(W, psi).profile
    cls_m1, cls_var = cl.classical_pipeline_profiles(density, psi)
    m = cls_m1.mask
    assert np.max(np.abs(cls_m1.values[m] - quantum_m1.values[m])) < 1e-7
    assert np.max(np.abs(cls_var.values[m] - quantum_var.values[m])) < 1e-7


def test_wigner_bridge_global_second_moment(grid):
    density = cl.wigner_as_classical(GAUSS, grid)
    a = cl.momentum_variable(density)
    total = float((a ** 2 * density.values).sum() * grid.dq * density.dp)
    assert total == pytest.approx(4.25, abs=1e-7)


def test_wigner_bridge_rejects_nongaussian(grid):
    with pytest.raises(lm.PreconditionError, match="Wigner not nonnegative"):
        cl.wigner_as_classical(lm.OscillatorEigenstate(level=1, omega=1.0), grid)


# The bridge reads p and p^2 off the lattice; the oracle's n x n route,
# with a(q, p) = p as an array, is its reference.
BRIDGE_GRIDS = [(512, 20.0), (2048, 40.0)]


@pytest.fixture(scope="module", params=BRIDGE_GRIDS,
                ids=["n%d" % n for n, _ in BRIDGE_GRIDS])
def bridge(request):
    n, half = request.param
    grid = lm.make_grid(n, -half, half)
    psi = lm.synthesize(GAUSS, grid)
    return psi, cl.wigner_as_classical(GAUSS, grid, psi)


def test_bridge_profiles_equal_the_n_by_n_route(bridge):
    psi, density = bridge
    a = cl.momentum_variable(density)
    m1, m2 = classical_local_moments(density, a, (1, 2))
    var = variance_profile(m1, m2)
    cls_m1, cls_var = cl.classical_pipeline_profiles(density, psi)
    assert np.array_equal(cls_m1.mask, psi.mask() & m1.mask)
    assert np.array_equal(cls_var.mask, cls_m1.mask)
    assert np.max(np.abs(cls_m1.values - m1.values)) < 1e-12
    assert np.max(np.abs(cls_var.values - var.values)) < 1e-12


def test_wigner_as_classical_is_the_clipped_normalized_transform(bridge):
    psi, density = bridge
    W = lm.wigner_transform(psi)
    clipped = np.clip(W.values, 0.0, None)
    expected = clipped / (clipped.sum() * psi.grid.dq * W.dp)
    assert np.array_equal(density.values, expected)
    assert density.kind == "classical"


def test_bridge_profiles_build_no_n_by_n_temporary(bridge):
    psi, density = bridge
    assert traced_peak(lambda: cl.classical_pipeline_profiles(density, psi)
                       ) < 8 * psi.grid.n ** 2


def test_wigner_as_classical_peaks_within_the_wigner_estimate(bridge):
    """The clip and the renormalization reuse the transform's own array."""
    psi, _ = bridge
    assert traced_peak(lambda: cl.wigner_as_classical(GAUSS, psi.grid, psi)
                       ) < psi.grid.n ** 2 * ps.WIGNER_BYTES_PER_CELL


# n = 600 ends in a partial block of N2_ROW_BLOCK rows; on three bands
# (rows from 0, 192 and 384) rows 400 and 599 lie in the last band
@pytest.mark.parametrize("cell", [(0, 0), (599, 599)],
                         ids=["first-block", "last-partial-block"])
def test_wigner_as_classical_fails_closed_on_a_nan_cell_in_any_block(
        monkeypatch, cell):
    assert_bridge_fails_closed(monkeypatch, cell)


@pytest.mark.parametrize("cell", [(0, 0), (400, 300), (599, 599)],
                         ids=["first-band", "last-band", "last-partial-block"])
def test_wigner_as_classical_fails_closed_on_a_nan_cell_in_any_band(
        monkeypatch, cell):
    use_bands(monkeypatch, 3)
    assert_bridge_fails_closed(monkeypatch, cell)


def assert_bridge_fails_closed(monkeypatch, cell):
    grid = lm.make_grid(600, -20.0, 20.0)
    psi = lm.synthesize(GAUSS, grid)
    W = lm.wigner_transform(psi)
    W.values[cell] = np.nan
    monkeypatch.setattr(cl, "wigner_transform", lambda _: W)
    with pytest.raises(lm.PreconditionError, match=": nan exceeds "):
        cl.wigner_as_classical(GAUSS, grid, psi)


# n = 200 and 600 end in a partial block; n = 202 has an odd n/2
@pytest.mark.parametrize("n", [200, 202, 600])
def test_wigner_as_classical_does_not_depend_on_the_bands(monkeypatch, n):
    grid = lm.make_grid(n, -20.0, 20.0)
    psi = lm.synthesize(GAUSS, grid)
    default = ps.usable_cores()
    use_bands(monkeypatch, 1)
    serial = cl.wigner_as_classical(GAUSS, grid, psi).values
    for cores in (default, 3):
        monkeypatch.setattr(ps, "usable_cores", lambda: cores)
        assert np.array_equal(cl.wigner_as_classical(GAUSS, grid, psi).values,
                              serial), cores


def test_observables_are_read_only_views(gauss_density):
    F = gauss_density
    a = cl.momentum_variable(F)
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0
    assert (cl.classical_variance_decomposition(F, a)
            == cl.classical_variance_decomposition(F, a.copy()))


# The Gaussians (s, k0, q0) of the benchmark decks, on the window that
# grows with n past 512.
DECK_GAUSSIANS = [(1.0, 2.0, 0.0), (0.8, -1.0, 1.5), (0.9, 1.5, 0.0)]


@pytest.mark.parametrize("n", [256, 512, 2048])
def test_classical_and_quantum_splits_agree_through_the_bridge(n):
    """One density-level split serves both sides: the classical split of
    the clipped Gaussian Wigner lattice is the W split of the state."""
    half = 20.0 * max(1.0, n / 512)
    grid = lm.make_grid(n, -half, half)
    for s, k0, q0 in DECK_GAUSSIANS:
        recipe = lm.Gaussian(s=s, k0=k0, q0=q0)
        psi = lm.synthesize(recipe, grid)
        F = cl.wigner_as_classical(recipe, grid, psi)
        classical = cl.classical_variance_decomposition(
            F, cl.momentum_variable(F))
        quantum = lm.variance_decomposition(psi, mm.momentum_power(1), "W")
        for field in ("avg_local_variance", "variance_of_local_avg", "total"):
            assert abs(getattr(classical, field) - getattr(quantum, field)
                       ) < cli.DECOMPOSE_RESIDUAL_TOL, (s, k0, q0, field)
