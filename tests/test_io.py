"""The CSV writers of io against the per-line references of dense_oracle:
the same bytes on edge floats, mixed masks, one-snapshot chunks and every
kind of profile and distribution; and a traced peak bounded by one block
of rows, not by the whole output."""

from io import StringIO

import numpy as np
import pytest

import locmom as lm
from locmom import io

import dense_oracle as oracle
from conftest import GAUSS, traced_peak

# signed zeros, the smallest subnormal, the largest finite floats, and a
# value that takes all 17 digits
EDGE = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        1.0 / 3.0, -1.0 / 3.0, 2.5]
MIXED = np.array([True, False, True, True, False, False, True, False])
ORDERS = (1, 2, 3, 4, "variance")


def written(writer, *args) -> str:
    fh = StringIO()
    writer(*args, fh)
    return fh.getvalue()


@pytest.fixture(scope="module")
def grid8():
    return lm.make_grid(8, -2.0, 2.0)


@pytest.fixture(scope="module")
def gauss64():
    return lm.synthesize(GAUSS, lm.make_grid(64, -16.0, 16.0))


def test_profile_csv_bytes_on_edge_values(grid8):
    """Edge values under a mixed mask, and a tag holding % signs, which
    the block template must carry as literal text."""
    profile = lm.RealProfile(grid8, np.array(EDGE), MIXED)
    profiles = [lm.LocalProfile(d, order, profile)
                for d, order in (("S", 1), ("W", "variance"),
                                 ("MH%s", "100%d%%"))]
    assert written(io.profile_csv, profiles) == oracle.profile_csv_text(
        profiles)


@pytest.mark.parametrize("order", ORDERS)
def test_profile_csv_bytes_under_every_definition(gauss64, order):
    if order == "variance":
        profiles = [lm.local_variance(gauss64, lm.momentum_power(1), d)
                    for d in ("S", "C", "MH", "W")]
    else:
        profiles = [lm.local_value(gauss64, lm.momentum_power(order), d)
                    for d in ("S", "C", "MH", "W")]
    assert not all(prof.profile.mask.all() for prof in profiles)
    assert written(io.profile_csv, profiles) == oracle.profile_csv_text(
        profiles)


def test_distribution_csv_bytes_on_edge_values(grid8):
    values = np.array([np.roll(EDGE, i) for i in range(8)])
    dist = lm.QuasiDistribution("weyl_wigner", grid8, np.array(EDGE[::-1]),
                                0.5, values)
    assert written(io.distribution_csv, dist) == (
        oracle.distribution_csv_text(dist))


@pytest.mark.parametrize("kind", ["wigner", "mh", "classical"])
def test_distribution_csv_bytes_of_every_kind(gauss64, kind):
    if kind == "wigner":
        dist = lm.wigner_transform(gauss64)
    elif kind == "mh":
        dist = lm.margenau_hill_transform(gauss64)
    else:
        dist = lm.wigner_as_classical(GAUSS, gauss64.grid, gauss64)
    assert written(io.distribution_csv, dist) == (
        oracle.distribution_csv_text(dist))


@pytest.mark.parametrize("rows", [1, 3], ids=["one-snapshot", "three"])
def test_trace_csv_bytes_on_edge_values(grid8, rows):
    times = np.array(EDGE[-rows:])
    values = np.array([np.roll(EDGE, i) for i in range(rows)])
    masks = np.array([np.roll(MIXED, i) for i in range(rows)])
    assert written(io.trace_csv, grid8, times, values, masks) == (
        oracle.trace_csv_text(grid8, times, values, masks))
    assert written(io.trace_csv, grid8, times, values, None) == (
        oracle.trace_csv_text(grid8, times, values, np.ones_like(masks)))


def test_trace_csv_bytes_of_a_streamed_trace():
    """Both trace files of an evolve request in two chunks, whose pbar
    masks change from snapshot to snapshot, chunk by chunk as evolve
    writes them."""
    grid = lm.make_grid(128, -16.0, 16.0)
    psi = lm.synthesize(GAUSS, grid)
    chunks = []
    lm.stream_trace(psi, lm.harmonic_potential(grid, 1.0),
                    lm.PropagationConfig(1e-3, 400, 10),
                    emit=lambda *chunk: chunks.append(chunk))
    masks = np.concatenate([own for *_, own in chunks])
    assert len(chunks) == 2 and 0 < masks.sum() < masks.size
    assert len(set(map(bytes, masks))) > 1
    rho_fh, pbar_fh = StringIO(), StringIO()
    expected_rho = expected_pbar = ""
    for times, rho, pbar, own in chunks:
        io.trace_csv(grid, times, rho, None, rho_fh)
        io.trace_csv(grid, times, pbar, own, pbar_fh)
        expected_rho += oracle.trace_csv_text(grid, times, rho,
                                              np.ones_like(own))
        expected_pbar += oracle.trace_csv_text(grid, times, pbar, own)
    assert rho_fh.getvalue() == expected_rho
    assert pbar_fh.getvalue() == expected_pbar


# A writer holds one block of rows at a time: the block's lines and
# template, its values as Python floats, its text and that text encoded,
# about 4 to 6 times the block's text at n = 512.  The whole output is n
# lattice rows, or four profiles under --definition all.
BLOCKS_HELD = 8


def test_distribution_csv_peak_is_one_row(tmp_path, gauss512):
    dist = lm.wigner_transform(gauss512)
    row = lm.QuasiDistribution(dist.kind, dist.grid, dist.pgrid, dist.dp,
                               dist.values[:1])
    row_bytes = len(oracle.distribution_csv_text(row)) - len("q,p,value\n")
    with open(tmp_path / "dist.csv", "w", encoding="utf-8",
              newline="") as fh:
        peak = traced_peak(lambda: io.distribution_csv(dist, fh))
    assert peak < BLOCKS_HELD * row_bytes, (peak, row_bytes)


def test_profile_csv_peak_is_one_profile(tmp_path, gauss512):
    """What moments --definition all --order variance writes."""
    profiles = [lm.local_variance(gauss512, lm.momentum_power(1), d)
                for d in ("S", "C", "MH", "W")]
    block_bytes = len(oracle.profile_csv_text(profiles[:1]))
    with open(tmp_path / "profiles.csv", "w", encoding="utf-8",
              newline="") as fh:
        peak = traced_peak(lambda: io.profile_csv(profiles, fh))
    assert peak < BLOCKS_HELD * block_bytes, (peak, block_bytes)
