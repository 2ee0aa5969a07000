"""The one tolerance check (errors.check / errors.failure): it passes only
when the measured value is at most its limit, so NaN fails, and every site
that compares a measured value with a threshold reports both in one
format."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import locmom as lm
from locmom import classical as cl
from locmom import cli, dynamics, moments, phasespace, states
from locmom.errors import check, failure

from conftest import GAUSS
from dense_oracle import characteristic_function_S


def test_check_passes_up_to_the_limit():
    for value in (-math.inf, 0.0, 1e-8):
        check("x", value, 1e-8, lm.PreconditionError)
    assert failure("x", 1e-8, 1e-8, lm.PreconditionError) is None


@pytest.mark.parametrize("value", [math.nextafter(1e-8, 1.0), math.inf,
                                   math.nan])
def test_check_fails_past_the_limit_and_on_nan(value):
    with pytest.raises(lm.SelfCheckError) as info:
        check("x", value, 1e-8, lm.SelfCheckError)
    assert str(info.value) == "x: %r exceeds 1e-08" % value


def test_strict_check_fails_at_the_limit_and_names_the_largest_pass():
    check("x", math.nextafter(0.5, 0.0), 0.5, lm.PreconditionError,
          strict=True)
    error = failure("x", 0.5, 0.5, lm.PreconditionError, strict=True)
    assert str(error) == "x: 0.5 exceeds 0.49999999999999994"


def test_message_carries_the_value_the_limit_and_the_hint():
    error = failure("budget", np.float64(3), 2, lm.PreconditionError,
                    hint="try less")
    assert isinstance(error, lm.PreconditionError)
    assert str(error) == "budget: 3.0 exceeds 2.0; try less"
    # a value that would round to its limit at a few digits prints apart
    error = failure("drift", math.nextafter(1e-9, 1.0), 1e-9,
                    lm.PreconditionError)
    assert str(error) == "drift: 1.0000000000000003e-09 exceeds 1e-09"


def test_stability_guard_message_carries_the_suggested_dt():
    grid = lm.make_grid(512, -20.0, 20.0)
    t_max = dynamics.max_kinetic_eigenvalue(grid)
    with pytest.raises(lm.PreconditionError) as info:
        dynamics.check_stability(grid, 0.001)
    assert str(info.value) == (
        "stability guard, dt*T_max/hbar: %r exceeds 0.49999999999999994; "
        "suggested dt < %.3g" % (0.001 * t_max, 0.45 / t_max))


# ---------------------------------------------------------------------------
# every threshold site fails closed on a NaN measured value

NAN = float("nan")


@pytest.fixture(scope="module")
def grid64():
    return lm.make_grid(64, -16.0, 16.0)


@pytest.fixture(scope="module")
def gauss64(grid64):
    return lm.synthesize(GAUSS, grid64)


def _classical_density(grid64, gauss64, monkeypatch):
    F = cl.gaussian_density(grid64, 0.0, 2.0, 1.0, 0.5)
    values = F.values.copy()
    values[3, 3] = NAN
    cl.classical_variance_decomposition(replace(F, values=values),
                                        cl.momentum_variable(F))


def _classical_normalization(grid64, gauss64, monkeypatch):
    F = cl.gaussian_density(grid64, 0.0, 2.0, 1.0, 0.5)
    cl.classical_variance_decomposition(replace(F, dp=NAN),
                                        cl.momentum_variable(F))


def _wigner_clip(grid64, gauss64, monkeypatch):
    W = phasespace.wigner_transform(gauss64)
    values = W.values.copy()
    values[0, 0] = NAN
    monkeypatch.setattr(cl, "wigner_transform",
                        lambda psi: replace(W, values=values))
    cl.wigner_as_classical(GAUSS, grid64, gauss64)


def _decompose_residual(grid64, gauss64, monkeypatch):
    monkeypatch.setattr(moments, "direct_variance", lambda psi, A: NAN)
    cli.cmd_decompose(cli.RunConfig(grid_n=64, q_min=-16.0, q_max=16.0,
                                    definition="S"))


def _normalization(grid64, gauss64, monkeypatch):
    amp = gauss64.amp.copy()
    amp[5] = NAN
    lm.wigner_transform(lm.Wavefunction(grid64, amp))


def _stability_guard(grid64, gauss64, monkeypatch):
    dynamics.check_stability(grid64, NAN)


def _unitarity(grid64, gauss64, monkeypatch):
    V = dynamics.Potential(np.full(64, NAN), np.zeros(64), "nan")
    lm.stream_trace(gauss64, V, lm.PropagationConfig(0.001, 3))


def _wigner_density_check(grid64, gauss64, monkeypatch):
    def nan_densities(amps, grid, orders):
        return np.full((len(orders), len(amps), grid.n), NAN), None
    monkeypatch.setattr(dynamics, "wigner_moment_density_stack",
                        nan_densities)
    raise lm.stream_trace(gauss64, lm.free_potential(grid64),
                          lm.PropagationConfig(0.001, 3))[0].error


def _masked_out_probability(grid64, gauss64, monkeypatch):
    monkeypatch.setattr(moments, "require_normalized", lambda psi: None)
    amp = gauss64.amp.copy()
    amp[0] = NAN
    lm.variance_decomposition(lm.Wavefunction(grid64, amp),
                              lm.momentum_power(1), "S")


def _wigner_edge(grid64, gauss64, monkeypatch):
    # every path to it checks the normalization of the same row first
    amps = gauss64.amp[None, :].copy()
    amps[0, -1] = NAN
    _, allowed, edge = phasespace._pad_modes(amps)
    assert not allowed[0]
    raise phasespace._edge_failure(edge[0])


def _off_grid_shift(grid64, gauss64, monkeypatch):
    characteristic_function_S(gauss64, NAN)


def _bayes_cell(grid64, gauss64, monkeypatch):
    P = lm.conditional_momentum_S(gauss64)
    P[7, 7] = NAN
    lm.bayes_product(gauss64, P)


def _plane_wave(grid64, gauss64, monkeypatch):
    lm.synthesize(lm.PlaneWave(k=NAN), grid64)


def _edge_decay(grid64, gauss64, monkeypatch):
    amp = gauss64.amp.copy()
    amp[0] = NAN
    monkeypatch.setattr(states, "normalize",
                        lambda psi: lm.Wavefunction(grid64, amp))
    lm.synthesize(GAUSS, grid64)


# The memory budget is the one site left out: its measured value is the
# integer n^2 * bytes_per_cell, which cannot be NaN.
NAN_SITES = [
    (_classical_density, lm.PreconditionError),
    (_classical_normalization, lm.PreconditionError),
    (_wigner_clip, lm.PreconditionError),
    (_decompose_residual, lm.SelfCheckError),
    (_normalization, lm.PreconditionError),
    (_stability_guard, lm.PreconditionError),
    (_unitarity, lm.PreconditionError),
    (_wigner_density_check, lm.SelfCheckError),
    (_masked_out_probability, lm.PreconditionError),
    (_wigner_edge, lm.PreconditionError),
    (_off_grid_shift, lm.PreconditionError),
    (_bayes_cell, lm.SelfCheckError),
    (_plane_wave, lm.PreconditionError),
    (_edge_decay, lm.PreconditionError),
]


@pytest.mark.parametrize("site, exc", NAN_SITES,
                         ids=[site.__name__[1:] for site, _ in NAN_SITES])
def test_threshold_site_fails_closed_on_nan(site, exc, grid64, gauss64,
                                            monkeypatch):
    with pytest.raises(exc, match=": nan exceeds "):
        site(grid64, gauss64, monkeypatch)


def test_decompose_nan_residual_exits_4_with_one_json_line(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(moments, "direct_variance", lambda psi, A: NAN)
    assert cli.main(["decompose", "--definition", "S"]) == 4
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == ("decomposition of definition S, |sum - direct|: nan "
                       "exceeds 9.999999999999999e-09")
