import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locmom as lm
from locmom import moments as mm
from locmom import phasespace as ps
from locmom.core import spatial_derivative

from conftest import (CORPUS, GAUSS, TWO_GAUSS, density, make_state,
                      traced_peak)
from dense_oracle import (characteristic_function_S, conditional_direct,
                          conditional_full, margenau_hill_direct,
                          margenau_hill_full, momentum_amplitudes_at,
                          wigner_direct, wigner_full)

PLANE_K = 2.0 * np.pi * 4.0 / 40.0


# ---------------------------------------------------------------------------
# Wigner transform


def test_wigner_gaussian_nonnegative_and_total(gauss512):
    W = lm.wigner_transform(gauss512)
    assert W.values.min() >= -1e-9
    assert W.total() == pytest.approx(1.0, abs=1e-8)


def test_wigner_gaussian_peak_value():
    # window of length 16*pi puts p = 2 exactly on the half-spaced grid
    grid = lm.make_grid(512, -8.0 * np.pi, 8.0 * np.pi)
    psi = lm.synthesize(GAUSS, grid)
    W = lm.wigner_transform(psi)
    i0 = np.argmin(np.abs(grid.q))
    kp = np.argmin(np.abs(W.pgrid - 2.0))
    assert W.pgrid[kp] == pytest.approx(2.0, abs=1e-12)
    assert W.values[i0, kp] == pytest.approx(1.0 / np.pi, abs=1e-6)


def test_wigner_gaussian_analytic_profile(gauss512):
    grid = gauss512.grid
    W = lm.wigner_transform(gauss512)
    expected = (np.exp(-grid.q[:, None] ** 2 / 2.0
                       - 2.0 * (W.pgrid[None, :] - 2.0) ** 2) / np.pi)
    assert np.max(np.abs(W.values - expected)) < 1e-9


def test_wigner_oscillator_negative_at_origin(grid512):
    psi = make_state("oscillator", grid512)
    W = lm.wigner_transform(psi)
    i0 = np.argmin(np.abs(grid512.q))
    k0 = np.argmin(np.abs(W.pgrid))
    assert W.values[i0, k0] == pytest.approx(-1.0 / np.pi, abs=1e-6)
    value, q_min, p_min = W.min_cell()
    assert value == pytest.approx(-1.0 / np.pi, abs=1e-6)
    assert abs(q_min) < 1e-12 and abs(p_min) < 1e-12


def test_wigner_marginals(localized_state):
    W = lm.wigner_transform(localized_state)
    assert np.max(np.abs(W.q_marginal() - localized_state.rho())) < 1e-8
    phi = momentum_amplitudes_at(localized_state, W.pgrid)
    assert np.max(np.abs(W.p_marginal() - np.abs(phi) ** 2)) < 1e-8


def test_wigner_plane_wave_periodic_route(grid512):
    psi = make_state("plane_wave", grid512)
    W = lm.wigner_transform(psi)
    assert np.max(np.abs(W.q_marginal() - 1.0 / 40.0)) < 1e-12
    marg = W.p_marginal()
    spike = np.argmax(marg)
    assert W.pgrid[spike] == pytest.approx(PLANE_K, abs=1e-12)
    assert marg[spike] * W.dp == pytest.approx(1.0, abs=1e-10)
    off = np.delete(marg, spike)
    assert np.max(np.abs(off)) < 1e-12


def test_wigner_rejects_corrupt_edge(grid512):
    # a Gaussian parked at the window edge, built by hand to bypass synthesis
    amp = np.exp(-(grid512.q - 19.0) ** 2 / 4.0).astype(complex)
    psi = lm.normalize(lm.Wavefunction(grid512, amp))
    with pytest.raises(lm.PreconditionError, match="edge-decay"):
        lm.wigner_transform(psi)


# ---------------------------------------------------------------------------
# Wigner moment densities from the 1D kernel


def kernel_tolerance(psi, order):
    """A few eps of max(rho) * p_max^order, p_max = pi*hbar/(2 dq) the W
    half-band edge: the roundoff of an order-th momentum moment density,
    which both routes share (measured: at most 4.6e-16 of this scale)."""
    p_max = np.pi * psi.grid.hbar / (2.0 * psi.grid.dq)
    return 16 * np.finfo(float).eps * np.max(psi.rho()) * p_max ** order


# n = 200 is one partial row block; n = 600 ends in one
@pytest.mark.parametrize("n", [200, 512, 600])
@pytest.mark.parametrize("name", CORPUS)
def test_wigner_moment_densities_match_the_transform(n, name):
    psi = make_state(name, lm.make_grid(n, -20.0, 20.0))
    W = lm.wigner_transform(psi)
    orders = (1, 2, 3, 4)
    for order, density, reference in zip(
            orders, lm.wigner_moment_densities(psi, orders),
            W.moment_densities(orders)):
        dev = np.max(np.abs(density - reference))
        assert dev < kernel_tolerance(psi, order), (order, dev)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(names=st.lists(st.sampled_from(CORPUS), min_size=1, max_size=3),
       coeffs=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                       min_size=3, max_size=3),
       n=st.integers(80, 400).map(lambda k: 2 * k),
       half=st.sampled_from((16.0, 20.0, 24.0)))
def test_wigner_moment_densities_match_the_transform_on_superpositions(
        names, coeffs, n, half):
    grid = lm.make_grid(n, -half, half)
    amp = sum(c * make_state(name, grid).amp for c, name in zip(coeffs, names))
    assume(np.max(np.abs(amp)) > 1e-3)
    psi = lm.normalize(lm.Wavefunction(grid, amp))
    try:
        W = lm.wigner_transform(psi)
    except lm.PreconditionError as exc:
        # a plane wave plus a localized state: both refuse, in one message
        with pytest.raises(lm.PreconditionError, match=re.escape(str(exc))):
            lm.wigner_moment_densities(psi, (1, 2))
        return
    for order, density, reference in zip(
            (1, 2), lm.wigner_moment_densities(psi, (1, 2)),
            W.moment_densities((1, 2))):
        dev = np.max(np.abs(density - reference))
        assert dev < kernel_tolerance(psi, order), (order, dev)


def test_wigner_moment_densities_reject_corrupt_edge(grid512):
    amp = np.exp(-(grid512.q - 19.0) ** 2 / 4.0).astype(complex)
    psi = lm.normalize(lm.Wavefunction(grid512, amp))
    with pytest.raises(lm.PreconditionError, match="edge-decay"):
        lm.wigner_moment_densities(psi, (1,))


@pytest.mark.parametrize("n", [200, 512])
def test_wigner_moment_density_stack_rows_equal_single_states(n):
    """A stack mixing periodic (plane wave) and zero-padded rows gives each
    row's single-state densities; rows from the first invalid one on are
    dropped and that row's error returned."""
    grid = lm.make_grid(n, -20.0, 20.0)
    states = [make_state(name, grid) for name in CORPUS]
    amps = np.stack([psi.amp for psi in states])
    densities, error = ps.wigner_moment_density_stack(amps, grid, (1, 2))
    assert error is None and densities.shape == (2, len(states), n)
    for r, psi in enumerate(states):
        for k, single in enumerate(lm.wigner_moment_densities(psi, (1, 2))):
            assert np.array_equal(densities[k, r], single)
    bad = np.exp(-(grid.q - 19.0) ** 2 / 4.0).astype(complex)
    bad /= np.sqrt(np.sum(np.abs(bad) ** 2) * grid.dq)
    for row, message in ((bad, r"edge-decay, \|psi\| at the window edge: "
                               r"0\.5\d* exceeds"),
                         (2.0 * amps[0],
                          r"\|norm - 1\|: 1\.0\d* exceeds 1e-08$")):
        mixed = np.stack([amps[0], amps[1], row, amps[2]])
        densities, error = ps.wigner_moment_density_stack(mixed, grid, (1,))
        assert densities.shape == (1, 2, n)
        assert np.array_equal(densities[0, 1],
                              lm.wigner_moment_densities(states[1], (1,))[0])
        assert isinstance(error, lm.PreconditionError)
        assert re.search(message, str(error))


def test_W_moment_densities_peak_stays_within_a_row_block():
    n = 2048
    psi = lm.synthesize(GAUSS, lm.make_grid(n, -64.0, 64.0))
    tracemalloc.start()
    try:
        mm.moment_densities(psi, mm.momentum_power(1), "W")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one complex block of ROW_BLOCK full rows; the transform takes 134 MB
    assert peak <= ps.ROW_BLOCK * n * 16


# ---------------------------------------------------------------------------
# Margenau-Hill transform


def test_mh_plane_wave_single_bin(grid512):
    psi = make_state("plane_wave", grid512)
    M = lm.margenau_hill_transform(psi)
    assert M.values.min() >= -1e-10
    col = np.argmin(np.abs(M.pgrid - PLANE_K))
    mass = M.values.sum(axis=0) * grid512.dq * M.dp
    assert mass[col] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(np.delete(mass, col))) < 1e-10


def test_mh_marginals(localized_state):
    M = lm.margenau_hill_transform(localized_state)
    assert np.max(np.abs(M.q_marginal() - localized_state.rho())) < 1e-8
    phi = lm.momentum_representation(localized_state)
    assert np.max(np.abs(M.p_marginal() - np.abs(phi) ** 2)) < 1e-8
    assert np.isrealobj(M.values)
    assert M.total() == pytest.approx(1.0, abs=1e-8)


def test_mh_superposition_negativity():
    for n in (512, 1024):
        grid = lm.make_grid(n, -20.0, 20.0)
        psi = lm.synthesize(TWO_GAUSS, grid)
        M = lm.margenau_hill_transform(psi)
        assert M.values.min() < -1e-3


# ---------------------------------------------------------------------------
# Phase-space local moments and variances


def test_mh_first_moment_equals_S(gauss512):
    M = lm.margenau_hill_transform(gauss512)
    prof = lm.phase_space_local_moment(M, gauss512, 1)
    m = prof.profile.mask
    assert np.max(np.abs(prof.profile.values[m] - 2.0)) < 1e-7
    assert prof.definition == "MH"


def test_wigner_second_moment_spot(grid16, gauss16):
    W = lm.wigner_transform(gauss16)
    prof = lm.phase_space_local_moment(W, gauss16, 2)
    i0 = np.argmin(np.abs(grid16.q))
    assert prof.profile.values[i0] == pytest.approx(4.25, abs=1e-7)


def test_wigner_second_moment_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    W = lm.wigner_transform(psi)
    prof = lm.phase_space_local_moment(W, psi, 2)
    assert np.max(np.abs(prof.profile.values - PLANE_K ** 2)) < 1e-7


def test_phase_space_variances(grid16, gauss16):
    W = lm.wigner_transform(gauss16)
    vw = lm.phase_space_local_variance(W, gauss16)
    m = vw.profile.mask
    assert np.max(np.abs(vw.profile.values[m] - 0.25)) < 1e-7
    M = lm.margenau_hill_transform(gauss16)
    vm = lm.phase_space_local_variance(M, gauss16)
    i2 = np.argmin(np.abs(grid16.q - 2.0))
    assert vm.profile.values[i2] == pytest.approx(-0.5, abs=1e-7)


def test_phase_space_variance_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    W = lm.wigner_transform(psi)
    prof = lm.phase_space_local_variance(W, psi)
    assert np.max(np.abs(prof.profile.values)) < 1e-10


def test_moment_requires_matching_grid(grid512, grid16, gauss512):
    other = lm.synthesize(GAUSS, grid16)
    W = lm.wigner_transform(other)
    with pytest.raises(lm.PreconditionError, match="different grids"):
        lm.phase_space_local_moment(W, gauss512, 1)


def test_moment_order_cap(gauss512):
    W = lm.wigner_transform(gauss512)
    with pytest.raises(lm.PreconditionError, match="1..4"):
        lm.phase_space_local_moment(W, gauss512, 5)


def test_moment_rejects_classical_density(grid16, gauss16):
    F = lm.wigner_as_classical(GAUSS, grid16)
    with pytest.raises(lm.PreconditionError, match="'classical'"):
        lm.phase_space_local_moment(F, gauss16, 1)
    with pytest.raises(lm.PreconditionError, match="'classical'"):
        lm.phase_space_local_variance(F, gauss16)


def test_mh_moments_match_S_operator_route(any_state):
    M = lm.margenau_hill_transform(any_state)
    for order in (1, 2):
        ps = lm.phase_space_local_moment(M, any_state, order)
        op = lm.local_value(any_state, mm.momentum_power(order), "S")
        m = ps.profile.mask
        assert np.max(np.abs(ps.profile.values[m] - op.profile.values[m])) < 1e-7


def test_first_moment_same_for_all_definitions(any_state):
    W = lm.wigner_transform(any_state)
    M = lm.margenau_hill_transform(any_state)
    pw = lm.phase_space_local_moment(W, any_state, 1).profile
    pm = lm.phase_space_local_moment(M, any_state, 1).profile
    ps = lm.local_value(any_state, mm.momentum_power(1), "S").profile
    m = pw.mask
    assert np.max(np.abs(pw.values[m] - ps.values[m])) < 1e-7
    assert np.max(np.abs(pm.values[m] - ps.values[m])) < 1e-7


def test_wigner_second_moment_is_mean_of_mh_and_sandwich(any_state):
    W = lm.wigner_transform(any_state)
    m2w = lm.phase_space_local_moment(W, any_state, 2).profile
    m2s = lm.local_value(any_state, mm.momentum_power(2), "S").profile
    sandwich = density(any_state, mm.momentum_power(1), "C", 2)
    m = m2w.mask
    mean = 0.5 * (m2s.values[m] + sandwich[m] / any_state.rho()[m])
    assert np.max(np.abs(m2w.values[m] - mean)) < 1e-7


def test_global_averages_from_phase_space(any_state):
    W = lm.wigner_transform(any_state)
    M = lm.margenau_hill_transform(any_state)
    for order in (1, 2):
        direct = lm.global_average(any_state, mm.momentum_power(order))
        for F in (W, M):
            total = float((F.values @ F.pgrid ** order).sum()
                          * any_state.grid.dq * F.dp)
            assert total == pytest.approx(direct, abs=1e-8)


# ---------------------------------------------------------------------------
# Characteristic function and conditional momentum distribution


def test_characteristic_function_at_zero(any_state):
    G = characteristic_function_S(any_state, 0.0)
    m = any_state.mask()
    assert np.max(np.abs(G.values[m] - 1.0)) < 1e-12


def test_characteristic_function_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    for steps in (1, 3, 17):
        tau = steps * grid512.dq / grid512.hbar
        G = characteristic_function_S(psi, tau)
        expected = np.exp(1j * tau * PLANE_K)
        assert np.max(np.abs(G.values - expected)) < 1e-10


def test_characteristic_function_composes_for_plane_waves(grid512):
    psi = make_state("plane_wave", grid512)
    t1, t2 = 2 * grid512.dq, 5 * grid512.dq
    g1 = characteristic_function_S(psi, t1).values
    g2 = characteristic_function_S(psi, t2).values
    g12 = characteristic_function_S(psi, t1 + t2).values
    assert np.max(np.abs(g12 - g1 * g2)) < 1e-10


def test_characteristic_function_off_grid_shift(gauss512):
    with pytest.raises(lm.PreconditionError, match="integer multiple"):
        characteristic_function_S(gauss512, 0.4 * gauss512.grid.dq)


def test_characteristic_function_taylor_series(gauss512):
    """G(tau, q) matches the order-4 Taylor sum of the S local moments to
    within the order-5 remainder bound."""
    g = gauss512.grid
    tau = g.dq / g.hbar
    G = characteristic_function_S(gauss512, tau)
    m = gauss512.mask()
    partial = np.ones(g.n, dtype=complex)
    factorial = 1.0
    for order in range(1, 5):
        factorial *= order
        mom = lm.local_value(gauss512, mm.momentum_power(order), "S")
        partial += (1j * tau) ** order / factorial * mom.profile.values
    # |R4| <= max |G^(5)| * tau^5 / 5!, fifth derivative sampled at the
    # interval ends with a factor-2 guard for the interior
    amp = gauss512.amp
    d5 = amp
    for _ in range(5):
        d5 = spatial_derivative(d5, g)
    shift = 1
    g5_lo = g.hbar ** 5 * (d5 / (2 * amp) - np.conj(d5) / (2 * np.conj(amp)))
    g5_hi = g.hbar ** 5 * (np.roll(d5, -shift) / (2 * amp)
                           - np.conj(np.roll(d5, shift)) / (2 * np.conj(amp)))
    bound = (tau ** 5 / 120.0) * np.maximum(np.abs(g5_lo), np.abs(g5_hi)) * 2.0
    resid = np.abs(G.values - partial)
    assert np.all(resid[m] <= bound[m])
    assert resid[m].max() < 1e-4


def test_conditional_momentum_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    P = lm.conditional_momentum_S(psi)
    col = np.argmin(np.abs(grid512.p - PLANE_K))
    assert np.max(np.abs(P[:, col] - 1.0 / grid512.dp)) < 1e-10
    off = np.delete(P, col, axis=1)
    assert np.max(np.abs(off)) < 1e-10


def test_conditional_momentum_normalization_and_mean(gauss512):
    g = gauss512.grid
    P = lm.conditional_momentum_S(gauss512)
    m = gauss512.mask()
    sums = P[m].sum(axis=1) * g.dp
    assert np.max(np.abs(sums - 1.0)) < 1e-8
    first = (P * g.p[None, :]).sum(axis=1) * g.dp
    assert np.max(np.abs(first[m] - 2.0)) < 1e-7


def test_conditional_momentum_zero_rows_at_exact_nodes(grid512):
    psi = make_state("oscillator", grid512)
    node = np.flatnonzero(psi.amp == 0)
    assert list(node) == [grid512.n // 2]  # q = 0
    P = lm.conditional_momentum_S(psi)
    assert not P[node].any() and np.all(np.isfinite(P))


@pytest.mark.filterwarnings("error")
def test_conditional_momentum_zero_fills_rows_below_the_live_bound():
    """On [-160, 160] at n = 4096 the Gaussian falls through the subnormal
    range, where 1/(2 psi(q)) and the shift quotients overflow: those rows
    are zero-filled like exact nodes, every cell is finite and the Bayes
    check passes, with no floating-point warning."""
    psi = lm.synthesize(GAUSS, lm.make_grid(4096, -160.0, 160.0))
    modulus = np.abs(psi.amp)
    assert np.any((modulus > 0.0) & (modulus < np.finfo(float).tiny))
    P = lm.conditional_momentum_S(psi)
    assert np.all(np.isfinite(P))
    live = P.any(axis=1)
    assert modulus[~live].max() < modulus[live].min()
    assert not live[modulus < np.finfo(float).tiny].any()
    assert live[modulus >= 1e-300].all()
    lm.bayes_product(psi, P)


def test_bayes_product_reconstructs_mh(any_state):
    P = lm.conditional_momentum_S(any_state)
    B = lm.bayes_product(any_state, P)
    M = lm.margenau_hill_transform(any_state)
    assert np.max(np.abs(B.values - M.values)) < 1e-7


def test_bayes_product_tolerances_per_state(grid512, gauss512):
    plane = make_state("plane_wave", grid512)
    P = lm.conditional_momentum_S(plane)
    B = lm.bayes_product(plane, P)
    M = lm.margenau_hill_transform(plane)
    assert np.max(np.abs(B.values - M.values)) < 1e-10
    sup = make_state("superposition", grid512)
    P = lm.conditional_momentum_S(sup)
    B = lm.bayes_product(sup, P)
    M = lm.margenau_hill_transform(sup)
    assert np.max(np.abs(B.values - M.values)) < 1e-6
    assert B.values.min() < -1e-3  # negative cells reconstructed too


def test_bayes_product_flags_inconsistency(gauss512):
    P = lm.conditional_momentum_S(gauss512)
    with pytest.raises(lm.SelfCheckError, match="Bayes"):
        lm.bayes_product(gauss512, P + 1e-5)


def test_bayes_product_flags_nan_cell(gauss512):
    P = lm.conditional_momentum_S(gauss512)
    P[200, 256] = np.nan
    with pytest.raises(lm.SelfCheckError, match="Bayes"):
        lm.bayes_product(gauss512, P)


# A Gaussian cannot be both resolved (s >= dq) and decayed at the window
# edge on 16 points, so n = 16 covers the oscillator and the plane wave.
DIRECT_CASES = ([(16, 10.0, name) for name in ("plane_wave", "oscillator")]
                + [(32, 16.0, name) for name in CORPUS])


def row_relative(P, reference):
    """P(p|q) grows like 1/|psi(q)| in the tails: the deviation of each row
    relative to its largest cell (or to 1)."""
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=1, keepdims=True))
    return np.max(np.abs(P - reference) / scale)


@pytest.mark.parametrize("n,half,name", DIRECT_CASES)
def test_n2_transforms_match_their_direct_sums(n, half, name):
    grid = lm.make_grid(n, -half, half)
    psi = make_state(name, grid)
    W = lm.wigner_transform(psi).values
    assert np.max(np.abs(W - wigner_direct(
        grid, psi.amp, periodic=name == "plane_wave"))) < 1e-13
    M = lm.margenau_hill_transform(psi).values
    assert np.max(np.abs(M - margenau_hill_direct(grid, psi.amp))) < 1e-13
    P = lm.conditional_momentum_S(psi)
    assert row_relative(P, conditional_direct(grid, psi.amp)) < 1e-13


# n = 200 and 600 end in a partial block of N2_ROW_BLOCK rows; n = 202
# has an odd n/2, which flips the output sign pattern of _hermitian_rows
@pytest.mark.parametrize("n", [200, 202, 512, 600])
@pytest.mark.parametrize("name", CORPUS)
def test_n2_transforms_match_the_full_array_routes(n, name):
    """The row-blocked half-spectrum routes against the whole-array
    formulas, within the direct-sum bounds."""
    grid = lm.make_grid(n, -20.0, 20.0)
    psi = make_state(name, grid)
    W = lm.wigner_transform(psi).values
    assert np.max(np.abs(W - wigner_full(
        grid, psi.amp, periodic=name == "plane_wave"))) < 1e-13
    M = lm.margenau_hill_transform(psi).values
    assert np.max(np.abs(M - margenau_hill_full(grid, psi))) < 1e-13
    P = lm.conditional_momentum_S(psi)
    assert row_relative(P, conditional_full(grid, psi.amp)) < 1e-13


def test_n2_transforms_refuse_over_memory_budget(monkeypatch, gauss512):
    budget = 10 ** 6
    monkeypatch.setattr(ps, "N2_MEMORY_BUDGET", budget)
    for transform, per_cell in (
            (lm.wigner_transform, ps.WIGNER_BYTES_PER_CELL),
            (lm.margenau_hill_transform, ps.MH_BYTES_PER_CELL),
            (lm.conditional_momentum_S, ps.CONDITIONAL_BYTES_PER_CELL)):
        with pytest.raises(lm.PreconditionError,
                           match="memory budget") as info:
            transform(gauss512)
        message = str(info.value)
        assert ("at n = 512 (%d per cell): %r exceeds %r"
                % (per_cell, 512.0 ** 2 * per_cell, float(budget)) in message)
        fit = int(re.search(r"largest n that fits is (\d+)", message)[1])
        assert fit % 2 == 0
        assert fit ** 2 * per_cell <= budget < (fit + 2) ** 2 * per_cell


@pytest.fixture(scope="module")
def gauss2048():
    return lm.synthesize(GAUSS, lm.make_grid(2048, -40.0, 40.0))


def n2_routes(psi):
    """(name, call, bytes per cell of its estimate) of each n x n route;
    the Bayes check builds the Margenau-Hill rows."""
    P = lm.conditional_momentum_S(psi)
    return (("wigner", lambda: lm.wigner_transform(psi),
             ps.WIGNER_BYTES_PER_CELL),
            ("mh", lambda: lm.margenau_hill_transform(psi),
             ps.MH_BYTES_PER_CELL),
            ("conditional", lambda: lm.conditional_momentum_S(psi),
             ps.CONDITIONAL_BYTES_PER_CELL),
            ("bayes", lambda: lm.bayes_product(psi, P), ps.MH_BYTES_PER_CELL))


def test_n2_transform_peaks_stay_within_their_estimates(gauss512,
                                                       gauss2048):
    gauss256 = lm.synthesize(GAUSS, lm.make_grid(256, -20.0, 20.0))
    for psi in (gauss256, gauss512, gauss2048):
        n = psi.grid.n
        for name, call, per_cell in n2_routes(psi):
            assert traced_peak(call) <= n ** 2 * per_cell, (n, name)


def test_n2_routes_hold_no_complex_n_by_n_array(gauss2048):
    """The result is one float n x n array and the rest goes a row block
    at a time: an n x n complex array alone would take 16 n^2 bytes."""
    n = 2048
    for name, call, _ in n2_routes(gauss2048):
        assert traced_peak(call) < 16 * n ** 2, name


def test_memory_budget_admits_an_estimate_equal_to_it(monkeypatch,
                                                      gauss512):
    monkeypatch.setattr(ps, "N2_MEMORY_BUDGET",
                        512 ** 2 * ps.WIGNER_BYTES_PER_CELL)
    assert lm.wigner_transform(gauss512).values.shape == (512, 512)
    with pytest.raises(lm.PreconditionError, match="memory budget"):
        lm.conditional_momentum_S(gauss512)


# ---------------------------------------------------------------------------
# Variance difference term (W vs MH vs C)


def test_difference_term_spot_values(grid16, gauss16):
    term = lm.variance_difference_term(gauss16)
    q = grid16.q
    i2, i0 = np.argmin(np.abs(q - 2.0)), np.argmin(np.abs(q))
    assert term.values[i2] == pytest.approx(0.75, abs=1e-8)
    assert term.values[i0] == pytest.approx(-0.25, abs=1e-8)


def test_difference_term_plane_wave(grid512):
    psi = make_state("plane_wave", grid512)
    term = lm.variance_difference_term(psi)
    assert np.max(np.abs(term.values)) < 1e-12


def test_difference_relations_pointwise(any_state):
    term = lm.variance_difference_term(any_state)
    W = lm.wigner_transform(any_state)
    M = lm.margenau_hill_transform(any_state)
    vw = lm.phase_space_local_variance(W, any_state).profile
    vm = lm.phase_space_local_variance(M, any_state).profile
    vc = lm.local_variance_C(any_state, mm.momentum_power(1)).profile
    m = vw.mask
    assert np.max(np.abs(vw.values[m] - vm.values[m] - term.values[m])) < 1e-7
    assert np.max(np.abs(vw.values[m] - vc.values[m] + term.values[m])) < 1e-7
