"""Exact covariances of the local statistics on the periodic grid.

Each map below is exact on the grid and has a known effect on every
profile and on the total-variance split:

* a boost by m dp, psi -> psi e^{i m dp q/hbar}, shifts the spectrum by m
  bins: local values move by m dp, local variances and both parts of the
  split stay;
* a roll by m points, a translation by m dq, rolls every profile;
* parity on the symmetric window, q_j -> -q_j, mirrors every profile and
  flips the sign of the local values;
* complex conjugation, time reversal, flips the sign of the local values
  and keeps the variances.

The split is centred on its mean, so a boost moves it by roundoff only.
The profiles are held to the suite's 1e-8 (local values) and 1e-7 (local
variances): the S and MH variances carry spectral roundoff over a rho
near the mask edge.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import locmom as lm
from locmom import moments as mm

from conftest import CORPUS, make_state

GRID = lm.make_grid(512, -20.0, 20.0)
P = mm.momentum_power(1)


def statistics(psi, definition):
    """Local value and local variance of p, and the two parts of the
    split."""
    value = lm.local_value(psi, P, definition).profile
    variance = lm.local_variance(psi, P, definition).profile
    deco = lm.variance_decomposition(psi, P, definition)
    return value, variance, np.array([deco.avg_local_variance,
                                      deco.variance_of_local_avg])


def assert_covariant(before, after, remap, sign, shift, split_tol):
    """after's profiles are before's remapped, the local values times sign
    plus shift, and the split is unchanged within split_tol."""
    value, variance, split = before
    value_after, variance_after, split_after = after
    mask = remap(value.mask)
    assert np.array_equal(value_after.mask, mask)
    expected = sign * remap(value.values) + shift
    assert np.max(np.abs(value_after.values - expected)[mask]) < 1e-8
    assert np.max(np.abs(variance_after.values
                         - remap(variance.values))[mask]) < 1e-7
    assert np.max(np.abs(split_after - split)) < split_tol


def momentum_support(psi):
    """Lowest and highest momentum whose |phi|^2 reaches 1e-20 of the
    peak."""
    weight = np.abs(lm.momentum_representation(psi)) ** 2
    p = psi.grid.p[weight >= 1e-20 * weight.max()]
    return p.min(), p.max()


def identity(values):
    return values


def mirror(values):
    """values at -q_j on the symmetric window: index j -> -j mod n."""
    return np.roll(values[::-1], 1)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(name=st.sampled_from(CORPUS),
       definition=st.sampled_from(mm.DEFINITIONS),
       m=st.integers(-200, 200))
@example(name="gaussian", definition="S", m=200)
@example(name="superposition", definition="C", m=-200)
@example(name="gaussian", definition="W", m=80)
def test_boost_shifts_local_values_and_keeps_the_split(name, definition, m):
    psi = make_state(name, GRID)
    # the shifted spectrum must stay inside the band of the route: the
    # Nyquist band for the spectral p^k, the half-band for the W kernel
    band = np.pi * GRID.hbar / GRID.dq / (2 if definition == "W" else 1)
    low, high = momentum_support(psi)
    assume(-band < low + m * GRID.dp and high + m * GRID.dp < band)
    boosted = lm.Wavefunction(
        GRID, psi.amp * np.exp(1j * m * GRID.dp * GRID.q / GRID.hbar))
    assert_covariant(statistics(psi, definition),
                     statistics(boosted, definition), identity, 1.0,
                     m * GRID.dp, 1e-12)


@pytest.mark.parametrize("kind", ["roll", "parity", "conjugation"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(name=st.sampled_from(CORPUS),
       definition=st.sampled_from(mm.DEFINITIONS),
       m=st.integers(-32, 32))
def test_roll_parity_and_conjugation_map_every_profile(kind, name,
                                                        definition, m):
    # the W kernel zero-pads outside the window, so a roll keeps the
    # state decayed there: 32 points (2.5 units) leave every localized
    # corpus state's mask more than 6 units inside the window
    psi = make_state(name, GRID)
    if kind == "roll":
        amp_map = remap = lambda values: np.roll(values, m)
        sign = 1.0
    elif kind == "parity":
        amp_map, remap, sign = mirror, mirror, -1.0
    else:
        amp_map, remap, sign = np.conj, identity, -1.0
    mapped = lm.Wavefunction(GRID, amp_map(psi.amp))
    assert_covariant(statistics(psi, definition),
                     statistics(mapped, definition), remap, sign, 0.0,
                     1e-14)
