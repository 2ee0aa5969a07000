import numpy as np
import pytest

import locmom as lm
from locmom import classical as cl
from locmom import phasespace as ps

from conftest import GAUSS, traced_peak


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
    m1 = cl.classical_local_moment(gauss_density, a, 1)
    assert np.max(np.abs(m1.values[m1.mask] - 2.0)) < 1e-8
    var = cl.classical_local_variance(gauss_density, a)
    assert np.max(np.abs(var.values[var.mask] - 0.25)) < 1e-8


def test_second_moment_route(gauss_density):
    a = cl.momentum_variable(gauss_density)
    m1 = cl.classical_local_moment(gauss_density, a, 1)
    m2 = cl.classical_local_moment(gauss_density, a, 2)
    cond_var = m2.values[m2.mask] - m1.values[m1.mask] ** 2
    assert np.max(np.abs(cond_var - 0.25)) < 1e-8


def test_position_function_collapses(gauss_density, grid):
    a = cl.position_variable(gauss_density, np.tanh(grid.q))
    m1 = cl.classical_local_moment(gauss_density, a, 1)
    assert np.max(np.abs(m1.values[m1.mask] - np.tanh(grid.q)[m1.mask])) < 1e-12
    var = cl.classical_local_variance(gauss_density, a)
    assert np.max(np.abs(var.values[var.mask])) < 1e-12


def test_local_variance_nonnegative(gauss_density):
    a = cl.momentum_variable(gauss_density)
    var = cl.classical_local_variance(gauss_density, a)
    assert var.values[var.mask].min() >= -1e-12


def test_point_supported_density(grid):
    pgrid, dp = lm.phasespace.wigner_pgrid(grid)
    values = np.zeros((grid.n, grid.n))
    values[100, 200] = 1.0 / (grid.dq * dp)
    F = lm.QuasiDistribution(kind="classical", grid=grid, pgrid=pgrid, dp=dp, values=values)
    a = cl.momentum_variable(F)
    var = cl.classical_local_variance(F, a)
    assert np.max(np.abs(var.values[var.mask])) < 1e-12


def test_observable_distribution_recovers_marginal(gauss_density):
    a = cl.momentum_variable(gauss_density)
    od = cl.observable_distribution(gauss_density, a, 64)
    analytic = (np.exp(-(od.centers - 2.0) ** 2 / (2.0 * 0.25))
                / np.sqrt(2.0 * np.pi * 0.25))
    sup_err = np.max(np.abs(od.marginal - analytic))
    assert sup_err < 0.02 * analytic.max()
    assert od.marginal.sum() * od.da == pytest.approx(1.0, abs=1e-10)


def test_observable_distribution_mean_route(gauss_density):
    # int a P(a|q) da reproduces the direct local moment
    a = cl.momentum_variable(gauss_density)
    od = cl.observable_distribution(gauss_density, a, 64)
    m1 = cl.classical_local_moment(gauss_density, a, 1)
    binned = (od.conditional * od.centers[:, None]).sum(axis=0) * od.da
    assert np.max(np.abs(binned[od.mask] - m1.values[od.mask])) < 1e-3


def test_observable_distribution_constant_observable(gauss_density):
    a = cl.ClassicalObservable(np.full_like(gauss_density.values, 3.25))
    od = cl.observable_distribution(gauss_density, a, 64)
    peak = np.argmax(od.marginal)
    assert od.centers[peak] == pytest.approx(3.25, abs=1e-12)
    assert od.marginal.sum() * od.da == pytest.approx(1.0, abs=1e-10)
    assert np.count_nonzero(od.marginal) == 1


def test_observable_distribution_bayes_consistency(gauss_density):
    a = cl.momentum_variable(gauss_density)
    od = cl.observable_distribution(gauss_density, a, 64)
    P = gauss_density.q_marginal()
    reconstructed = od.conditional[:, od.mask] * P[od.mask][None, :]
    assert np.max(np.abs(reconstructed - od.joint[:, od.mask])) < 1e-10
    sums = od.conditional[:, od.mask].sum(axis=0) * od.da
    assert np.max(np.abs(sums - 1.0)) < 1e-8


def test_observable_distribution_joint_equals_per_column_bincount():
    """The one bincount over the flattened (bin, q) cells deposits each
    column's cells in the same order as a bincount per q column."""
    grid = lm.make_grid(128, -20.0, 20.0)
    F = cl.wigner_as_classical(GAUSS, grid)
    a = cl.momentum_variable(F)
    od = cl.observable_distribution(F, a, 40)
    b = np.clip(np.floor((a.values - od.edges[0]) / od.da).astype(int), 0, 39)
    weights = F.values * F.dp / od.da
    joint = np.stack([np.bincount(b[j], weights=weights[j], minlength=40)
                      for j in range(grid.n)], axis=1)
    assert np.array_equal(od.joint, joint)
    assert od.joint.flags.c_contiguous


def test_observable_distribution_bin_count_guard(gauss_density):
    a = cl.momentum_variable(gauss_density)
    with pytest.raises(lm.PreconditionError, match="bin_count"):
        cl.observable_distribution(gauss_density, a, 8)


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
    g_vals = np.tanh(grid.q)
    a = cl.position_variable(gauss_density, g_vals)
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
    total = float((a.values ** 2 * density.values).sum() * grid.dq * density.dp)
    assert total == pytest.approx(4.25, abs=1e-7)


def test_wigner_bridge_rejects_nongaussian(grid):
    with pytest.raises(lm.PreconditionError, match="Wigner not nonnegative"):
        cl.wigner_as_classical(lm.OscillatorEigenstate(level=1, omega=1.0), grid)


# The bridge reads p and p^2 off the lattice; the n x n route of
# classical_local_moment, with a(q, p) = p as an array, is its reference.
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
    m1 = cl.classical_local_moment(density, a, 1)
    var = cl.classical_local_variance(density, a)
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


def test_observables_are_read_only_views(gauss_density, grid):
    F = gauss_density
    for a in (cl.momentum_variable(F),
              cl.position_variable(F, np.tanh(grid.q))):
        assert not a.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.values[0, 0] = 1.0
        copied = cl.ClassicalObservable(a.values.copy())
        view_hist = cl.observable_distribution(F, a, 64)
        copy_hist = cl.observable_distribution(F, copied, 64)
        for field in ("edges", "joint", "marginal", "conditional", "mask"):
            assert np.array_equal(getattr(view_hist, field),
                                  getattr(copy_hist, field)), field
        assert (cl.classical_variance_decomposition(F, a)
                == cl.classical_variance_decomposition(F, copied))
