import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import locmom as lm
from locmom import phasespace as ps
from locmom.dynamics import split_step_chunks

sys.path.insert(0, str(Path(__file__).parent))

GAUSS = lm.Gaussian(s=1.0, k0=2.0, q0=0.0)
PLANE_K = 2.0 * np.pi * 4.0 / 40.0  # 4 cycles on the [-20, 20) window
TWO_GAUSS = lm.Superposition(branches=(
    (1 + 0j, lm.Gaussian(s=1.0, k0=0.0, q0=-4.0)),
    (1 + 0j, lm.Gaussian(s=1.0, k0=0.0, q0=4.0))))

CORPUS = ("gaussian", "plane_wave", "oscillator", "superposition")
LOCALIZED = ("gaussian", "oscillator", "superposition")


def density(psi, A, definition="S", order=1):
    """The moment density of A^order under the definition."""
    (values,) = lm.moment_densities(psi, A, definition, orders=(order,))
    return values


def trace_snapshots(psi0, V, cfg) -> list:
    """The snapshots of one trace, the chunks of split_step_chunks
    concatenated into Wavefunctions in time order."""
    return [lm.Wavefunction(psi0.grid, amp)
            for chunk in split_step_chunks(psi0, V, cfg) for amp in chunk]


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def use_bands(monkeypatch, cores=None):
    """Let the n x n routes split their rows into bands from any n, one
    band per block at most, on `cores` usable cores (None: this
    machine's)."""
    monkeypatch.setattr(ps, "N2_BAND_ROWS", 1)
    if cores is not None:
        monkeypatch.setattr(ps, "usable_cores", lambda: cores)


def make_state(name, grid):
    if name == "gaussian":
        return lm.synthesize(GAUSS, grid)
    if name == "plane_wave":
        k = 2.0 * np.pi * 4.0 / grid.length
        return lm.synthesize(lm.PlaneWave(k=k), grid)
    if name == "oscillator":
        return lm.synthesize(lm.OscillatorEigenstate(level=1, omega=1.0), grid)
    if name == "superposition":
        return lm.synthesize(TWO_GAUSS, grid)
    raise ValueError(name)


@pytest.fixture(scope="session")
def grid512():
    return lm.make_grid(512, -20.0, 20.0)


@pytest.fixture(scope="session")
def grid16():
    """Window chosen so q = 0, 1, 2 are grid points (spot-value checks)."""
    return lm.make_grid(512, -16.0, 16.0)


@pytest.fixture(scope="session")
def gauss512(grid512):
    return lm.synthesize(GAUSS, grid512)


@pytest.fixture(scope="session")
def gauss16(grid16):
    return lm.synthesize(GAUSS, grid16)


@pytest.fixture(scope="session", params=CORPUS)
def any_state(request, grid512):
    return make_state(request.param, grid512)


@pytest.fixture(scope="session", params=LOCALIZED)
def localized_state(request, grid512):
    return make_state(request.param, grid512)
