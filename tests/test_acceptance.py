"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Desk scale throughout: n = 512 grids for static quantities (the
spot-value window [-16, 16) puts q = 0, 1, 2 on grid points), an n = 128
grid for the evolution criteria, where the stability guard admits
dt = 1e-3 and the half-spaced Wigner momentum window still clears the
states' momentum content.
"""

import functools
import json

import numpy as np
import pytest

import locmom as lm
from locmom import classical as cl
from locmom import cli
from locmom import dynamics as dyn
from locmom import moments as mm

import dense_oracle as dense
from conftest import CORPUS, GAUSS, density, make_state

RHO0 = 1.0 / np.sqrt(2.0 * np.pi)


def report(num: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %02d: FAIL - %s" % (num, description))
                raise
            print("ACCEPTANCE %02d: PASS - %s" % (num, description))
        return wrapper
    return decorator


@report(1, "Gaussian oracle suite (pbar, sigma2 C/S/W pointwise, "
           "negativity witness sigma2_S(2) = -0.5)")
def test_criterion_1_gaussian_oracle_suite(grid512, grid16):
    oracle = lm.gaussian_oracle(GAUSS)
    for grid in (grid16, grid512):
        psi = lm.synthesize(GAUSS, grid)
        q = grid.q
        A = mm.momentum_power(1)
        pbar = lm.local_value(psi, A, "S").profile
        var_c = lm.local_variance_C(psi, A).profile
        var_s = lm.local_variance_S(psi, A).profile
        W = lm.wigner_transform(psi)
        var_w = lm.phase_space_local_variance(W, psi).profile
        m = pbar.mask
        assert np.max(np.abs(pbar.values[m] - 2.0)) < 1e-8
        assert np.max(np.abs(var_c.values[m] - oracle.variance_C(q)[m])) < 1e-8
        assert np.max(np.abs(var_s.values[m] - oracle.variance_S(q)[m])) < 1e-8
        assert np.max(np.abs(var_w.values[m] - 0.25)) < 1e-8
    psi = lm.synthesize(GAUSS, grid16)
    var_s = lm.local_variance_S(psi, mm.momentum_power(1)).profile
    i2 = np.argmin(np.abs(grid16.q - 2.0))
    assert grid16.q[i2] == 2.0
    assert var_s.values[i2] == pytest.approx(-0.5, abs=1e-8)


@report(2, "dense-matrix brute-force equivalence on n=32 grids (1e-6)")
def test_criterion_2_dense_equivalence():
    grid = lm.make_grid(32, -18.0, 18.0)
    states = [lm.synthesize(lm.Gaussian(s=1.2, k0=1.0, q0=0.0), grid),
              lm.synthesize(lm.PlaneWave(k=2.0 * np.pi * 3.0 / 36.0), grid),
              lm.synthesize(lm.Superposition(branches=(
                  (1 + 0j, lm.Gaussian(s=1.2, k0=0.0, q0=-4.0)),
                  (1 + 0j, lm.Gaussian(s=1.2, k0=0.0, q0=4.0)))), grid)]
    P = dense.momentum_matrix(grid, 1)
    A = mm.momentum_power(1)
    for psi in states:
        m = psi.mask()
        checks = [
            (density(psi, A), dense.density_S(grid, psi.amp, P), None),
            (density(psi, mm.momentum_power(2)),
             dense.density_S(grid, psi.amp, P @ P), None),
            (density(psi, A, "C", 2), dense.sandwich(grid, psi.amp, P), None),
            (lm.local_value(psi, A, "S").profile.values,
             dense.local_value_S(grid, psi.amp, P), m),
            (lm.local_value(psi, mm.momentum_power(2), "S").profile.values,
             dense.local_second_moment_S(grid, psi.amp, P), m),
            (lm.local_variance_S(psi, A).profile.values,
             dense.local_variance_S(grid, psi.amp, P), m),
            (lm.local_variance_C(psi, A).profile.values,
             dense.local_variance_C(grid, psi.amp, P), m),
        ]
        for got, ref, mask in checks:
            if mask is None:
                assert np.max(np.abs(got - ref)) < 1e-6
            else:
                assert np.max(np.abs(got[mask] - ref[mask])) < 1e-6


@report(3, "variance decomposition identity for S/C/MH/W on all test "
           "states (1e-8); nonnegative components where required")
def test_criterion_3_decomposition_identity(grid512):
    A = mm.momentum_power(1)
    for name in CORPUS:
        psi = make_state(name, grid512)
        direct = lm.direct_variance(psi, A)
        for definition in mm.DEFINITIONS:
            deco = lm.variance_decomposition(psi, A, definition)
            assert abs(deco.total - direct) < 1e-8
            assert deco.variance_of_local_avg >= -1e-12
    F = cl.gaussian_density(grid512, 0.0, 2.0, 1.0, 0.5)
    deco = cl.classical_variance_decomposition(F, cl.momentum_variable(F))
    assert deco.avg_local_variance >= 0.0
    assert deco.variance_of_local_avg >= 0.0
    assert abs(deco.total - cl.direct_classical_variance(
        F, cl.momentum_variable(F))) < 1e-10


@report(4, "sandwich and symmetrized p^2 densities differ pointwise "
           "(witness >= 0.19) yet share the integral 4.25 (1e-8)")
def test_criterion_4_density_pair(grid16):
    psi = lm.synthesize(GAUSS, grid16)
    A = mm.momentum_power(1)
    witness = dense.density_inequality_witness(psi, A)
    assert witness >= 0.19
    i0 = np.argmin(np.abs(grid16.q))
    sandwich = density(psi, A, "C", 2)
    sym = density(psi, mm.momentum_power(2))
    assert abs(sandwich[i0] - sym[i0]) >= 0.19
    assert np.sum(sandwich) * grid16.dq == pytest.approx(4.25, abs=1e-8)
    assert np.sum(sym) * grid16.dq == pytest.approx(4.25, abs=1e-8)


@report(5, "MH phase-space local moments (n=1,2) equal operator S local "
           "moments pointwise (1e-7) on all test states")
def test_criterion_5_mh_equals_s(grid512):
    for name in CORPUS:
        psi = make_state(name, grid512)
        M = lm.margenau_hill_transform(psi)
        for order in (1, 2):
            ps = lm.phase_space_local_moment(M, psi, order).profile
            op = lm.local_value(psi, mm.momentum_power(order), "S").profile
            assert np.max(np.abs(ps.values[ps.mask] - op.values[ps.mask])) < 1e-7


@report(6, "difference relations: sigma2_W - sigma2_MH = term = "
           "-(sigma2_W - sigma2_C) pointwise (1e-7); term(2) = 0.75")
def test_criterion_6_difference_relations(grid512, grid16):
    for grid in (grid512, grid16):
        for name in CORPUS:
            psi = make_state(name, grid)
            term = lm.variance_difference_term(psi)
            W = lm.wigner_transform(psi)
            M = lm.margenau_hill_transform(psi)
            vw = lm.phase_space_local_variance(W, psi).profile
            vm = lm.phase_space_local_variance(M, psi).profile
            vc = lm.local_variance_C(psi, mm.momentum_power(1)).profile
            m = vw.mask
            assert np.max(np.abs(
                vw.values[m] - vm.values[m] - term.values[m])) < 1e-7
            assert np.max(np.abs(
                vw.values[m] - vc.values[m] + term.values[m])) < 1e-7
    psi = lm.synthesize(GAUSS, grid16)
    term = lm.variance_difference_term(psi)
    i2 = np.argmin(np.abs(grid16.q - 2.0))
    assert term.values[i2] == pytest.approx(0.75, abs=1e-8)


@report(7, "quasi-distribution marginals reproduce rho and |phi|^2 "
           "(1e-8); Wigner of oscillator level 1 gives W(0,0) = -1/pi")
def test_criterion_7_marginals(grid512):
    for name in ("gaussian", "oscillator", "superposition"):
        psi = make_state(name, grid512)
        W = lm.wigner_transform(psi)
        assert np.max(np.abs(W.q_marginal() - psi.rho())) < 1e-8
        phi_w = dense.momentum_amplitudes_at(psi, W.pgrid)
        assert np.max(np.abs(W.p_marginal() - np.abs(phi_w) ** 2)) < 1e-8
        M = lm.margenau_hill_transform(psi)
        assert np.max(np.abs(M.q_marginal() - psi.rho())) < 1e-8
        phi = lm.momentum_representation(psi)
        assert np.max(np.abs(M.p_marginal() - np.abs(phi) ** 2)) < 1e-8
    osc = make_state("oscillator", grid512)
    W = lm.wigner_transform(osc)
    i0 = np.argmin(np.abs(grid512.q))
    k0 = np.argmin(np.abs(W.pgrid))
    assert W.values[i0, k0] == pytest.approx(-1.0 / np.pi, abs=1e-6)


@report(8, "Bayes product rho * P_S(p|q) reconstructs the Margenau-Hill "
           "distribution (1e-7 per cell) on all test states")
def test_criterion_8_bayes_product(grid512):
    for name in CORPUS:
        psi = make_state(name, grid512)
        P = lm.conditional_momentum_S(psi)
        B = lm.bayes_product(psi, P)  # raises beyond 1e-7 internally
        M = lm.margenau_hill_transform(psi)
        assert np.max(np.abs(B.values - M.values)) < 1e-7


@report(9, "classical bridge: Wigner density pipelines agree (1e-7); "
           "correlated-Gaussian decomposition (0.64, 0.36, 1.0)")
def test_criterion_9_classical_bridge(grid512):
    density = cl.wigner_as_classical(GAUSS, grid512)
    psi = lm.synthesize(GAUSS, grid512)
    W = lm.wigner_transform(psi)
    quantum_m1 = lm.phase_space_local_moment(W, psi, 1).profile
    quantum_var = lm.phase_space_local_variance(W, psi).profile
    cls_m1, cls_var = cl.classical_pipeline_profiles(density, psi)
    m = cls_m1.mask
    assert np.max(np.abs(cls_m1.values[m] - quantum_m1.values[m])) < 1e-7
    assert np.max(np.abs(cls_var.values[m] - quantum_var.values[m])) < 1e-7
    F = cl.gaussian_density(grid512, 0.0, 0.0, 1.0, 1.0, corr=0.6)
    deco = cl.classical_variance_decomposition(F, cl.momentum_variable(F))
    assert deco.avg_local_variance == pytest.approx(0.64, abs=1e-8)
    assert deco.variance_of_local_avg == pytest.approx(0.36, abs=1e-8)
    assert deco.total == pytest.approx(1.0, abs=1e-8)


@report(10, "hydrodynamics: continuity < 1e-5 and Euler-W < 1e-4 at "
            "dt=1e-3 for free and harmonic, ~4x shrink per dt halving; "
            "kinetic-energy density trio")
def test_criterion_10_hydrodynamics():
    grid = lm.make_grid(128, -16.0, 16.0)
    cases = [(lm.synthesize(GAUSS, grid), dyn.free_potential(grid)),
             (lm.synthesize(lm.Gaussian(s=1.0 / np.sqrt(2.0), k0=0.0, q0=1.0),
                            grid), dyn.harmonic_potential(grid, 1.0))]
    for psi0, V in cases:
        residuals = {dt: dyn.stream_trace(
            psi0, V, dyn.PropagationConfig(dt, round(0.1 / dt), 1))[0]
            for dt in (2e-3, 1e-3, 5e-4)}
        for reduced in residuals.values():
            if reduced.error is not None:
                raise reduced.error
        cont = {dt: r.continuity for dt, r in residuals.items()}
        euler = {dt: r.euler for dt, r in residuals.items()}
        assert cont[1e-3] < 1e-5
        assert euler[1e-3] < 1e-4
        # halving dt shrinks both residuals ~4x where the dt^2 error
        # dominates; the fine pair additionally confirms the shrink
        assert 3.0 < cont[2e-3] / cont[1e-3] < 5.0
        assert 3.0 < euler[2e-3] / euler[1e-3] < 5.0
        assert cont[1e-3] / cont[5e-4] > 1.8
        assert euler[1e-3] / euler[5e-4] > 1.8

    grid16 = lm.make_grid(512, -16.0, 16.0)
    psi = lm.synthesize(GAUSS, grid16)
    kd = dyn.kinetic_energy_densities(psi)
    for key in ("W", "MH", "C"):
        assert lm.integrate(kd[key]) == pytest.approx(2.125, abs=1e-8)
    assert np.max(np.abs(kd["W"].values
                         - 0.5 * (kd["MH"].values + kd["C"].values))) < 1e-7


@report(11, "CLI determinism (byte-identical reruns) and the full exit-"
            "code contract 0/2/3/4")
def test_criterion_11_cli_contract(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["moments", "--grid-n", "512", "--q-min", "-16", "--q-max", "16",
            "--definition", "all", "--order", "variance"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert cli.main(["moments", "--state", "gauss(s=1)"]) == 2
    assert cli.main(["evolve", "--grid-n", "512", "--dt", "0.001",
                     "--steps", "5"]) == 3
    assert cli.main(["decompose", "--grid-n", "64", "--definition", "W",
                     "--state", "oscillator(level=3,omega=1.0)"]) == 4
    err = capsys.readouterr().err
    codes = [json.loads(line)["error"]["code"]
             for line in err.strip().splitlines()]
    assert codes == [2, 3, 4]
