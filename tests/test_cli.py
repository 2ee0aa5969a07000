import argparse
import errno
import gc
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import locmom as lm
from locmom import classical, cli, phasespace, states
from locmom import dynamics as dyn
from locmom import moments as mm
from locmom.cli import RunConfig
from locmom.io import read_distribution_binary

from conftest import trace_snapshots, use_bands

GRID16 = ["--grid-n", "512", "--q-min", "-16", "--q-max", "16"]
EVOLVE_GRID = ["--grid-n", "128", "--q-min", "-16", "--q-max", "16"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv):
    """The CLI in a fresh interpreter that imports this same package."""
    src = str(Path(lm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "locmom.cli", *argv],
                          capture_output=True, env=env)


def read_profile_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.strip().split(",")
            rows.append(dict(zip(header, parts)))
    return rows


# ---------------------------------------------------------------------------
# moments


def test_moments_csv_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["moments", *GRID16, "--definition", "all", "--order", "variance"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_moments_variance_profiles(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code, _, _ = run(["moments", *GRID16, "--definition", "all",
                      "--order", "variance", "--out", str(out)], capsys)
    assert code == 0
    rows = read_profile_csv(out)
    assert {r["definition"] for r in rows} == {"S", "C", "MH", "W"}
    s_neg = [float(r["value"]) for r in rows
             if r["definition"] == "S" and r["mask"] == "1"
             and abs(abs(float(r["q"])) - 2.0) < 1e-9]
    assert s_neg and all(v < 0 for v in s_neg)
    s_at_1 = [float(r["value"]) for r in rows
              if r["definition"] == "S" and abs(float(r["q"]) - 1.0) < 1e-9]
    assert s_at_1[0] == pytest.approx(0.25, abs=1e-8)


def test_moments_plane_wave_constant_profile(tmp_path, capsys):
    out = tmp_path / "plane.csv"
    k = 2.0 * np.pi * 4.0 / 40.0
    code, _, _ = run(["moments", "--state", "plane_wave(k=%r)" % k,
                      "--definition", "S", "--order", "1",
                      "--out", str(out)], capsys)
    assert code == 0
    values = [float(r["value"]) for r in read_profile_csv(out)]
    assert np.max(np.abs(np.array(values) - k)) < 1e-10


def test_moments_json_format(capsys):
    code, out, _ = run(["moments", *GRID16, "--definition", "S",
                        "--order", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["definition"] == "S"
    assert payload[0]["order"] == "2"
    assert len(payload[0]["value"]) == 512


def test_malformed_recipe_exits_2(capsys):
    code, _, err = run(["moments", "--state", "gaussian(s=1.0,k0=2.0)"],
                       capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["code"] == 2
    assert payload["error"]["kind"] == "config"
    assert "q0" in payload["error"]["message"]


def test_bad_order_exits_2(capsys):
    code, _, err = run(["moments", "--order", "7"], capsys)
    assert code == 2
    assert "order" in json.loads(err)["error"]["message"]


def test_moments_c_block_labelled_c(capsys):
    code, out, _ = run(["moments", *GRID16, "--definition", "all",
                        "--order", "2", "--format", "json"], capsys)
    assert code == 0
    blocks = json.loads(out)
    assert [b["definition"] for b in blocks] == ["S", "C", "MH", "W"]
    # the C local value of p^k is Re[(p^k psi)/psi], the S one
    assert blocks[1]["value"] == blocks[0]["value"]
    code, out, _ = run(["moments", *GRID16, "--definition", "C",
                        "--order", "1"], capsys)
    assert code == 0
    assert {line.split(",")[3] for line in out.splitlines()[1:]} == {"C"}


def test_hbar_inf_exits_2(capsys):
    code, out, err = run(["decompose", *GRID16, "--hbar", "inf"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "hbar" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("state,code,message", [
    ("plane_wave(k=inf)", 2, "must be finite"),
    ("plane_wave(k=nan)", 2, "must be finite"),
    ("gaussian(s=1.0,k0=-inf,q0=0.0)", 2, "must be finite"),
    ("gaussian(s=1e-300,k0=0,q0=0)", 3, "grid spacing"),
    ("gaussian(s=1e-160,k0=0,q0=0.1)", 3, "grid spacing")])
def test_unusable_recipe_numbers_exit_with_one_json_line(state, code,
                                                         message):
    proc = run_subprocess(["moments", "--state", state])
    assert proc.returncode == code and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]["message"]


def test_entry_freezes_the_heap_and_exits_2_on_a_refused_flag():
    probe = ("import gc, sys; from locmom.cli import entry; "
             "before = gc.get_freeze_count(); code = entry(); "
             "print(before, gc.get_freeze_count()); sys.exit(code)")
    src = str(Path(lm.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe, "moments", "--kind",
                           "wigner"], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    before, after = map(int, proc.stdout.split())
    assert before == 0 and after > 0
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "config"


def test_main_leaves_the_collector_as_it_is(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["moments", "--kind", "wigner"]) == 2
    assert gc.get_freeze_count() == before
    capsys.readouterr()


# ---------------------------------------------------------------------------
# decompose


def test_decompose_gaussian_S(capsys):
    code, out, _ = run(["decompose", *GRID16, "--definition", "S"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["definition"] == "S"
    assert rec["avg_local_variance"] == pytest.approx(0.25, abs=1e-8)
    assert rec["variance_of_local_avg"] == pytest.approx(0.0, abs=1e-10)
    assert rec["total"] == pytest.approx(0.25, abs=1e-8)
    assert rec["residual"] < 1e-8


def test_decompose_plane_wave_zeros(capsys):
    k = 2.0 * np.pi * 4.0 / 40.0
    code, out, _ = run(["decompose", "--state", "plane_wave(k=%r)" % k,
                        "--definition", "all"], capsys)
    assert code == 0
    for rec in json.loads(out):
        assert abs(rec["avg_local_variance"]) < 1e-10
        assert abs(rec["variance_of_local_avg"]) < 1e-10
        assert abs(rec["total"]) < 1e-10


def test_decompose_superposition_all_definitions(capsys):
    state = ("superposition((1+0j)*gaussian(s=1.0,k0=0.0,q0=-4.0); "
             "(1+0j)*gaussian(s=1.0,k0=0.0,q0=4.0))")
    code, out, _ = run(["decompose", "--state", state,
                        "--definition", "all"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["definition"] for r in records] == ["S", "C", "MH", "W"]
    for rec in records:
        assert rec["residual"] < 1e-8
    # for momentum the components agree across definitions (the local
    # values coincide and both square densities share the integral);
    # the definitions differ pointwise, not in the q-averaged split
    firsts = [r["avg_local_variance"] for r in records]
    assert max(firsts) - min(firsts) < 1e-8


def test_decompose_self_check_exit_4(capsys):
    # a real disagreement between routes: at n = 64 a tenth of the level-3
    # spectrum lies beyond the W half-band, so the W kernel's second
    # density misses <p^2> by about 0.36
    code, _, err = run(["decompose", "--grid-n", "64", "--state",
                        "oscillator(level=3,omega=1.0)",
                        "--definition", "W"], capsys)
    assert code == 4
    payload = json.loads(err)
    assert payload["error"]["kind"] == "self-check"
    assert "definition W" in payload["error"]["message"]


@pytest.mark.parametrize("k0", ["30.0", "35.0"])
def test_decompose_resolved_boosted_state_exits_0(k0, capsys):
    # an uncentred split would lose k0^2 P_off off the rho mask (1.0e-8
    # and 1.4e-8 here, over the 1e-8 check); the centred one loses only
    # roundoff
    code, out, _ = run(["decompose", "--grid-n", "4096", "--q-min", "-40",
                        "--q-max", "40", "--state",
                        "gaussian(s=1.0,k0=%s,q0=0.0)" % k0], capsys)
    assert code == 0
    records = json.loads(out)
    assert [r["definition"] for r in records] == ["S", "C", "MH", "W"]
    assert max(r["residual"] for r in records) < 1e-12


# ---------------------------------------------------------------------------
# distribution


def test_distribution_wigner_oscillator_metadata(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, meta_text, _ = run(["distribution", "--state",
                              "oscillator(level=1,omega=1.0)",
                              "--kind", "wigner", "--format", "csv",
                              "--out", str(out)], capsys)
    assert code == 0
    meta = json.loads(meta_text)
    assert meta["kind"] == "weyl_wigner"
    assert meta["min_value"] == pytest.approx(-1.0 / np.pi, abs=1e-6)
    assert abs(meta["min_q"]) < 1e-12 and abs(meta["min_p"]) < 1e-12
    header = out.read_text().splitlines()[0]
    assert header == "q,p,value"


def test_distribution_mh_plane_wave(capsys):
    k = 2.0 * np.pi * 4.0 / 40.0
    code, meta_text, _ = run(["distribution", "--state",
                              "plane_wave(k=%r)" % k, "--kind", "mh"], capsys)
    assert code == 0
    meta = json.loads(meta_text)
    assert meta["kind"] == "margenau_hill"
    assert meta["min_value"] >= -1e-10


def test_distribution_classical_bridge(capsys):
    code, meta_text, _ = run(["distribution", "--kind", "classical"], capsys)
    assert code == 0
    meta = json.loads(meta_text)
    assert meta["kind"] == "classical"
    assert meta["min_value"] >= 0.0


@pytest.mark.parametrize("flag,header_kind,build", [
    ("wigner", "weyl_wigner",
     lambda recipe, grid: lm.wigner_transform(lm.synthesize(recipe, grid))),
    ("mh", "margenau_hill",
     lambda recipe, grid: lm.margenau_hill_transform(
         lm.synthesize(recipe, grid))),
    ("classical", "classical", lm.wigner_as_classical),
], ids=["wigner", "mh", "classical"])
def test_distribution_binary_round_trip(tmp_path, capsys, flag, header_kind,
                                        build):
    out = tmp_path / "w.bin"
    code, meta_text, _ = run(["distribution", *GRID16, "--kind", flag,
                              "--format", "binary", "--out", str(out)], capsys)
    assert code == 0
    kind, n, dq, dp, hbar, values = read_distribution_binary(out.read_bytes())
    assert (kind, n, hbar) == (header_kind, 512, 1.0)
    grid = lm.make_grid(512, -16.0, 16.0)
    dist = build(lm.parse_recipe(RunConfig().state), grid)
    assert dq == grid.dq and dp == dist.dp
    assert np.array_equal(values, dist.values)
    meta = json.loads(meta_text)
    assert (meta["min_value"], meta["min_q"], meta["min_p"]) == dist.min_cell()


def test_distribution_classical_synthesizes_the_state_once(monkeypatch,
                                                          capsys):
    calls = []
    synthesize = states.synthesize

    def counted(recipe, grid):
        calls.append(recipe)
        return synthesize(recipe, grid)

    for module in (states, classical):
        monkeypatch.setattr(module, "synthesize", counted)
    code, _, _ = run(["distribution", "--kind", "classical", "--grid-n", "64",
                      "--q-min", "-16", "--q-max", "16"], capsys)
    assert code == 0 and len(calls) == 1


def test_distribution_binary_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    argv = ["distribution", *GRID16, "--kind", "mh", "--format", "binary"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["wigner", "mh", "classical"])
def test_distribution_binary_does_not_depend_on_the_bands(monkeypatch,
                                                          tmp_path, capsys,
                                                          kind):
    """The same bytes whether the rows run on one band or on one band per
    core, from every block (n = 600 ends in a partial block)."""
    argv = ["distribution", "--grid-n", "600", "--q-min", "-20", "--q-max",
            "20", "--kind", kind, "--format", "binary", "--out", "d.bin"]

    def run_in(directory):
        # the same relative --out in its own directory, so stdout, which
        # names it, compares too
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert cli.main(argv) == 0
        return capsys.readouterr().out, (directory / "d.bin").read_bytes()

    default = phasespace.usable_cores()
    use_bands(monkeypatch, 1)
    serial = run_in(tmp_path / "one")
    for i, cores in enumerate((default, 3)):
        monkeypatch.setattr(phasespace, "usable_cores", lambda: cores)
        assert run_in(tmp_path / ("run%d" % i)) == serial, cores


# ---------------------------------------------------------------------------
# evolve


def test_evolve_free_gaussian_report(capsys):
    code, out, _ = run(["evolve", *EVOLVE_GRID, "--potential", "free",
                        "--dt", "0.002", "--steps", "50"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["continuity_residual_half_dt"] < 1e-5
    assert rep["euler_residual_half_dt"] < 1e-4
    assert 3.0 < rep["continuity_ratio"] < 5.0
    assert 3.0 < rep["euler_ratio"] < 5.0
    assert rep["norm_drift_max"] < 1e-9


def test_evolve_harmonic_sign_flip(capsys):
    code, out, _ = run(["evolve", *EVOLVE_GRID,
                        "--state", "gaussian(s=%r,k0=0.0,q0=1.0)"
                        % float(1.0 / np.sqrt(2.0)),
                        "--potential", "harmonic:1.0",
                        "--dt", "0.002", "--steps", "1570",
                        "--stride", "785"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["q_mean_initial"] == pytest.approx(1.0, abs=1e-9)
    assert rep["q_mean_final"] < -0.9  # past the quarter period


def test_evolve_long_run_takes_its_time_step_from_the_config(capsys):
    """At 5000 steps the float snapshot times of the dt/2 trace deviate
    from a uniform step by 6.1e-16, more than 1e-12 of it, so the
    residuals take their step, stride * dt, from the config."""
    code, out, err = run(["evolve", *EVOLVE_GRID, "--potential",
                          "harmonic:1.0", "--state",
                          "gaussian(s=1.0,k0=0.0,q0=0.0)", "--steps", "5000"],
                         capsys)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and json.loads(out)["steps"] == 5000


def test_evolve_stability_guard_exit_3(capsys):
    code, _, err = run(["evolve", "--grid-n", "512", "--dt", "0.001",
                        "--steps", "10"], capsys)
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["kind"] == "precondition"
    assert "suggested dt" in payload["error"]["message"]


def test_evolve_trace_exports(tmp_path, capsys):
    base = tmp_path / "run"
    code, _, _ = run(["evolve", *EVOLVE_GRID, "--dt", "0.002",
                      "--steps", "20", "--stride", "5",
                      "--out", str(base)], capsys)
    assert code == 0
    rho_lines = (tmp_path / "run_rho.csv").read_text().splitlines()
    assert rho_lines[0].startswith("# potential=free")
    assert rho_lines[4] == "t,q,value,mask"
    assert (tmp_path / "run_pbar.csv").exists()
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["steps"] == 20


@pytest.mark.parametrize("n, potential, build", [
    (128, "harmonic:1.0", lambda g: dyn.harmonic_potential(g, 1.0)),
    (256, "barrier:1.0,1.0,3.0",
     lambda g: dyn.gaussian_barrier(g, 1.0, 1.0, 3.0))],
    ids=["harmonic-128", "barrier-256"])
def test_evolve_pbar_rows_are_the_snapshot_local_values(tmp_path, capsys, n,
                                                        potential, build):
    """Each _pbar.csv row is the S local value of p of its snapshot, with
    its mask, at 17 digits."""
    state = "gaussian(s=1.0,k0=1.0,q0=-1.0)"
    base = tmp_path / "run"
    code, _, _ = run(["evolve", "--grid-n", str(n), "--q-min", "-16",
                      "--q-max", "16", "--state", state,
                      "--potential", potential, "--dt", "0.001",
                      "--steps", "20", "--stride", "2", "--mask-eps", "1e-9",
                      "--out", str(base)], capsys)
    assert code == 0
    grid = lm.make_grid(n, -16.0, 16.0)
    cfg = dyn.PropagationConfig(0.001, 20, 2)
    snapshots = trace_snapshots(lm.synthesize(lm.parse_recipe(state), grid),
                                build(grid), cfg)
    expected = []
    for t, snap in zip(dyn.snapshot_times(cfg), snapshots):
        pbar = lm.local_value(snap, mm.momentum_power(1), "S", 1e-9).profile
        expected += ["%.17g,%.17g,%.17g,%d" % (t, q, v, m)
                     for q, v, m in zip(grid.q, pbar.values, pbar.mask)]
    lines = (tmp_path / "run_pbar.csv").read_text().splitlines()
    assert lines[4] == "t,q,value,mask"
    assert lines[5:] == expected


@pytest.mark.parametrize("argv, code, message", [
    (["--potential", "barrier:2.0,1.0,3.0"], 4,
     '{"error": {"code": 4, "kind": "self-check", "message": "Wigner moment '
     'densities, deviation from their bilinear forms: 1.011507068382489e-08 '
     'exceeds 1e-08"}}\n'),
    # the first snapshot passes; snapshot 45 of 101 is the first to fail
    (["--state", "gaussian(s=0.5,k0=0.0,q0=6.0)", "--steps", "1000",
      "--stride", "10", "--dt", "0.002"], 3,
     '{"error": {"code": 3, "kind": "precondition", "message": "Wigner '
     'edge-decay, |psi| at the window edge: 1.1404612391762866e-10 exceeds '
     '9.999999999999999e-11; wraparound would corrupt the correlation '
     'product"}}\n')])
def test_evolve_reports_the_first_failing_snapshot(capsys, argv, code,
                                                   message):
    assert run(["evolve", *EVOLVE_GRID, *argv], capsys) == (code, "", message)


BARRIER_FAILURE = ["--potential", "barrier:2.0,1.0,3.0"]
EVOLVE_OUT = ("run_rho.csv", "run_pbar.csv", "run_report.json")


def test_a_failing_evolve_leaves_no_output_file(tmp_path, capsys):
    code, out, _ = run(["evolve", *EVOLVE_GRID, *BARRIER_FAILURE,
                        "--out", str(tmp_path / "run")], capsys)
    assert (code, out) == (4, "")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("existing", EVOLVE_OUT)
def test_a_failing_evolve_leaves_an_existing_target_unchanged(
        tmp_path, capsys, existing):
    (tmp_path / existing).write_text("kept\n")
    code, _, _ = run(["evolve", *EVOLVE_GRID, *BARRIER_FAILURE,
                      "--out", str(tmp_path / "run")], capsys)
    assert code == 4
    assert os.listdir(tmp_path) == [existing]
    assert (tmp_path / existing).read_text() == "kept\n"


# (unitarity limit, Wigner density limit, exit code, message) on the free
# Gaussian of EVOLVE_GRID.  The norm drifts are 2.9e-15 (dt) and 7.8e-15
# (dt/2); at a density limit of 4e-15 both traces fail a snapshot, at
# 7e-15 only the dt/2 trace does.  Each case fails every check after the
# one it pins.
EVOLVE_PRECEDENCE = [
    (0.0, 0.0, 3, "unitarity, norm drift |norm - 1|: 2.886579864025407e-15 "
     "exceeds 0.0"),
    (5e-15, 0.0, 3, "unitarity, norm drift |norm - 1|: 7.771561172376096e-15"
     " exceeds 5e-15"),
    (1e-9, 4e-15, 4, "Wigner moment densities, deviation from their bilinear"
     " forms: 5.329070518200751e-15 exceeds 4e-15"),
    (1e-9, 7e-15, 4, "Wigner moment densities, deviation from their bilinear"
     " forms: 7.105427357601002e-15 exceeds 7e-15")]


@pytest.mark.parametrize("unitarity, density, code, message",
                         EVOLVE_PRECEDENCE,
                         ids=["dt-unitarity", "half-dt-unitarity",
                              "dt-snapshot", "half-dt-snapshot"])
def test_evolve_errors_keep_their_precedence(monkeypatch, capsys, unitarity,
                                             density, code, message):
    """The unitarity of the dt trace, then of the dt/2 trace, then the
    first failing snapshot of the dt trace, then of the dt/2 trace."""
    monkeypatch.setattr(dyn, "UNITARITY_TOL", unitarity)
    monkeypatch.setattr(dyn, "WIGNER_MOMENT_DENSITY_TOL", density)
    status, out, err = run(["evolve", *EVOLVE_GRID], capsys)
    assert (status, out) == (code, "")
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_evolve_memory_does_not_grow_with_steps(tmp_path, capsys, out):
    """The traced peak of 1600 steps stays within one chunk's working set
    (16 complex arrays of CHUNK_ROWS points) of the peak of 100 steps:
    each trace is propagated, checked, reduced and written a chunk at a
    time."""
    def peak(steps):
        argv = ["evolve", *EVOLVE_GRID, "--steps", str(steps)]
        if out:
            argv += ["--out", str(tmp_path / str(steps))]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    short = peak(100)
    assert peak(1600) <= short + 16 * dyn.CHUNK_ROWS * 16


WRITERS = {
    "moments": ["moments", *GRID16, "--definition", "S", "--order", "1"],
    "decompose": ["decompose", *GRID16, "--definition", "S"],
    "distribution-csv": ["distribution", "--grid-n", "64", "--q-min", "-16",
                         "--q-max", "16"],
    "distribution-binary": ["distribution", "--grid-n", "64", "--q-min",
                            "-16", "--q-max", "16", "--format", "binary"],
    "evolve": ["evolve", *EVOLVE_GRID, "--steps", "4"]}


@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
def test_an_out_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys,
                                                         argv):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run([*argv, "--out", target], capsys)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith("cannot write output file " + target)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
def test_out_files_replace_their_targets_keeping_their_mode(tmp_path,
                                                             capsys, argv):
    """A new output file takes the mode a file that open(path, "w")
    creates takes, a replaced one keeps its permission bits, and nothing
    else is left beside them."""
    with open(tmp_path / "reference", "w"):
        pass
    mode = os.stat(tmp_path / "reference").st_mode
    os.remove(tmp_path / "reference")
    base = str(tmp_path / "x")
    assert cli.main([*argv, "--out", base]) == 0
    written = sorted(os.listdir(tmp_path))
    contents = [(tmp_path / name).read_bytes() for name in written]
    assert contents and all(contents)
    assert {os.stat(tmp_path / name).st_mode for name in written} == {mode}
    for name in written:
        (tmp_path / name).write_text("old\n")
        os.chmod(tmp_path / name, 0o600)
    assert cli.main([*argv, "--out", base]) == 0
    assert sorted(os.listdir(tmp_path)) == written
    assert [(tmp_path / name).read_bytes() for name in written] == contents
    assert {stat.S_IMODE(os.stat(tmp_path / name).st_mode)
            for name in written} == {0o600}
    capsys.readouterr()


def test_a_link_at_the_temporary_name_is_not_followed(tmp_path, capsys):
    """The temporary file is created new: a link (or any file) already at
    its name fails the request, and what the link names is untouched."""
    (tmp_path / "victim").write_text("kept\n")
    target = tmp_path / "x"
    os.symlink(tmp_path / "victim",
               "%s.%d.tmp" % (os.path.realpath(target), os.getpid()))
    code, out, err = run([*WRITERS["moments"], "--out", str(target)],
                         capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == (
        "cannot write output file %s: File exists" % target)
    assert (tmp_path / "victim").read_text() == "kept\n"
    assert not target.exists()


def test_an_out_that_is_a_directory_exits_2_before_any_work(
        monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("computed")

    monkeypatch.setattr(cli, "_setup", refuse)
    code, out, err = run([*WRITERS["moments"], "--out", str(tmp_path)],
                         capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == (
        "cannot write output file %s: Is a directory" % tmp_path)
    assert os.listdir(tmp_path) == []


def test_an_out_through_a_link_replaces_the_file_it_names(tmp_path, capsys):
    (tmp_path / "real.csv").write_text("old\n")
    os.symlink("real.csv", tmp_path / "link.csv")
    assert cli.main([*WRITERS["moments"], "--out",
                     str(tmp_path / "link.csv")]) == 0
    assert os.readlink(tmp_path / "link.csv") == "real.csv"
    assert (tmp_path / "real.csv").read_text().startswith("q,value,mask")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]
    capsys.readouterr()


def test_an_out_that_is_a_pipe_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        # the profile (about 25 KB) fits the pipe's buffer
        assert cli.main([*WRITERS["moments"], "--out", str(fifo)]) == 0
        received = os.read(reader, 1 << 20)
    finally:
        os.close(reader)
    assert received.startswith(b"q,value,mask")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
    capsys.readouterr()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
def test_a_write_that_fails_exits_2_naming_the_out(capsys):
    """The profile text (about 0.5 MB) outgrows the file's buffer, so the
    failure comes in a write, not at the close."""
    code, out, err = run(["moments", "--grid-n", "2048", "--q-min", "-64",
                          "--q-max", "64", "--state",
                          "gaussian(s=4.0,k0=0.5,q0=0.0)", "--out",
                          "/dev/full"], capsys)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["message"] == (
        "cannot write output file /dev/full: %s" % NO_SPACE)


@needs_dev_full
def test_a_write_that_fails_leaves_no_temporary_file(tmp_path, capsys):
    """The rho trace is written in place to what its link names; the
    failure closes the other files without raising again, and removes
    their temporary files."""
    os.symlink("/dev/full", tmp_path / "x_rho.csv")
    code, out, err = run(["evolve", *EVOLVE_GRID, "--out",
                          str(tmp_path / "x")], capsys)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["message"] == (
        "cannot write output file %s: %s" % (tmp_path / "x_rho.csv",
                                              NO_SPACE))
    assert os.listdir(tmp_path) == ["x_rho.csv"]


STDOUT_WRITERS = {
    "moments": ["moments", "--grid-n", "64", "--q-min", "-16", "--q-max",
                "16"],
    "decompose": ["decompose"],
    "distribution": ["distribution", "--grid-n", "64", "--q-min", "-16",
                     "--q-max", "16"],
    "evolve": ["evolve", *EVOLVE_GRID, "--steps", "20"],
}


def run_into(argv, stdout):
    """run_subprocess with stdout the given file object or descriptor."""
    src = str(Path(lm.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "locmom.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src))


def assert_one_write_error(proc, reason):
    assert proc.returncode == 2
    (line,) = proc.stderr.decode().splitlines()
    assert json.loads(line)["error"]["message"] == (
        "cannot write standard output: %s" % reason)


@needs_dev_full
@pytest.mark.parametrize("command", STDOUT_WRITERS)
def test_a_full_standard_output_exits_2_with_one_line(command):
    with open("/dev/full", "w") as full:
        proc = run_into(STDOUT_WRITERS[command], full)
    assert_one_write_error(proc, NO_SPACE)


@pytest.mark.parametrize("command", STDOUT_WRITERS)
def test_a_closed_pipe_on_standard_output_exits_2_with_one_line(command):
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = run_into(STDOUT_WRITERS[command], writer)
    finally:
        os.close(writer)
    assert_one_write_error(proc, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv, steps, stride", [
    (["--steps", "10", "--stride", "3"], 10, 3), (["--steps", "1"], 1, 1)])
def test_evolve_refuses_an_unusable_stride_before_propagating(
        monkeypatch, capsys, argv, steps, stride):
    def refuse(*args):
        raise AssertionError("propagated")

    monkeypatch.setattr(dyn, "split_step_chunks", refuse)
    message = ("stride must divide steps into at least 2 intervals, got "
               "steps %d and stride %d" % (steps, stride))
    assert run(["evolve", *EVOLVE_GRID, *argv], capsys) == (
        2, "", '{"error": {"code": 2, "kind": "config", "message": "%s"}}\n'
        % message)


@pytest.mark.parametrize("potential", [
    "harmonic:inf", "harmonic:nan", "barrier:nan,1.0,3.0",
    "barrier:1.0,inf,3.0"])
def test_non_finite_potential_exits_2_with_one_line(potential):
    proc = run_subprocess(["evolve", *EVOLVE_GRID, "--potential", potential])
    assert proc.returncode == 2 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert "potential" in json.loads(lines[0])["error"]["message"]


# ---------------------------------------------------------------------------
# config file, canonical form, environment


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_n": 512, "q_min": -16.0,
                                    "q_max": 16.0, "definition": "S",
                                    "order": "variance"}))
    out = tmp_path / "o.csv"
    code, _, _ = run(["moments", "--config", str(cfg_path),
                      "--definition", "C", "--out", str(out)], capsys)
    assert code == 0
    rows = read_profile_csv(out)
    assert {r["definition"] for r in rows} == {"C"}  # flag wins


def test_config_unknown_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_m": 12}))
    code, _, err = run(["moments", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "grid_m" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("data, field", [
    ({"grid_n": "512"}, "grid_n"), ({"order": 2.5}, "order"),
    ({"q_min": -10 ** 400}, "q_min")])
def test_config_wrong_type_exits_2(tmp_path, capsys, data, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code, out, err = run(["moments", "--config", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert field in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("via_config, value", [
    (True, 10 ** 400), (True, 2 ** 30), (False, 2 ** 30),
    (False, cli.GRID_N_MAX + 2)])
def test_grid_n_over_its_bound_exits_2_before_any_allocation(
        tmp_path, capsys, monkeypatch, via_config, value):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(cli, "make_grid", no_grid)
    argv = ["moments", "--grid-n", str(value)]
    if via_config:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_n": value}))
        argv = ["moments", "--config", str(cfg_path)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["message"] == (
        "grid_n must be an integer at most 262144, got %d" % value)


@pytest.mark.parametrize("text", [
    b'{"grid_n": %s}' % (b"9" * 5000), b'{"state": "\xff"}'])
def test_config_file_python_cannot_decode_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    code, out, err = run(["moments", "--config", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["message"].startswith(
        "config file is not valid JSON: ")


def test_grid_n_bound_is_admitted():
    RunConfig(grid_n=cli.GRID_N_MAX).validate()


@pytest.mark.parametrize("command", ["moments", "decompose", "evolve"])
def test_mask_eps_above_one_exits_2_with_one_line(capsys, command):
    """An eps over 1 empties every mask, where evolve reported residuals
    of 0.0 with exit 0; every subcommand that reads it refuses it."""
    code, out, err = run([command, *EVOLVE_GRID, "--mask-eps", "2"], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["message"] == (
        "mask_eps must be a number in (0, 1], got 2.0")
    RunConfig(mask_eps=1.0).validate(command)


FLOAT_FLAGS = sorted({(command, "--" + f.name.replace("_", "-"))
                      for f in fields(RunConfig) if type(f.default) is float
                      for command in f.metadata["commands"]})


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_float_flag_takes_a_negative_number_spaced(command, flag):
    for text in ("-1.6e1", "-1.6E+1", "-.16e2"):
        args = cli._build_parser().parse_args([command, flag, text])
        assert getattr(args, flag[2:].replace("-", "_")) == -16.0, text


def test_negative_exponent_flag_value_runs_as_the_joined_form(capsys):
    tail = ["--grid-n", "64", "--q-max", "1.6e1", "--definition", "S"]
    spaced = run(["moments", "--q-min", "-1.6e1", *tail], capsys)
    joined = run(["moments", "--q-min=-16", *tail], capsys)
    assert spaced == joined and spaced[0] == 0


def test_config_accepts_typed_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_n": 512, "q_min": -16,
                                    "q_max": 16.0, "order": 2,
                                    "definition": "S", "out": None}))
    code, out, _ = run(["moments", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert out.splitlines()[1].endswith(",S,2")


# The flags of each subcommand: the settings it reads, and --config.
FLAGS = {
    "moments": {"--config", "--grid-n", "--q-min", "--q-max", "--hbar",
                "--mass", "--state", "--definition", "--order", "--format",
                "--out", "--mask-eps"},
    "decompose": {"--config", "--grid-n", "--q-min", "--q-max", "--hbar",
                  "--mass", "--state", "--definition", "--out", "--mask-eps"},
    "distribution": {"--config", "--grid-n", "--q-min", "--q-max", "--hbar",
                     "--mass", "--state", "--format", "--out", "--kind"},
    "evolve": {"--config", "--grid-n", "--q-min", "--q-max", "--hbar",
               "--mass", "--state", "--out", "--mask-eps", "--potential",
               "--dt", "--steps", "--stride"},
}
# every flag some subcommand once took without reading it, with a value
# a subcommand that reads it accepts
VALID = {"--definition": "S", "--order": "2", "--format": "csv",
         "--mask-eps": "1e-10", "--potential": "free", "--dt": "0.001",
         "--steps": "7", "--stride": "1"}
CONFIG_VALUES = {"definition": "S", "order": "2", "format": "csv",
                 "mask_eps": 1e-9, "potential": "harmonic:1.0", "dt": 0.002,
                 "steps": 7, "stride": 7, "kind": "mh"}


def test_each_subcommand_takes_the_flags_of_the_settings_it_reads():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, expected in FLAGS.items():
        table = {"--config"} | {
            "--" + f.name.replace("_", "-") for f in fields(RunConfig)
            if command in f.metadata["commands"]}
        flags = {flag for action in sub.choices[command]._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == table == expected, command
    assert [len(FLAGS[c]) for c in cli._COMMANDS] == [12, 10, 10, 13]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in FLAGS for flag in sorted(VALID)
    if flag not in FLAGS[command]])
def test_flag_the_subcommand_does_not_read_exits_2(capsys, command, flag):
    code, out, err = run([command, "--grid-n", "64", flag, VALID[flag]],
                         capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert flag in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["decompose", "--definition", "S", "--format", "binary", "--order", "3",
     "--potential", "harmonic:1", "--dt", "5", "--steps", "7"],
    ["evolve", "--definition", "W", "--format", "json", "--order", "2"]])
def test_ignored_flags_are_refused(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["kind"] == "config"


@pytest.mark.parametrize("argv", [
    ["moments", *GRID16, "--definition", "S", "--order", "1"],
    ["decompose", *GRID16, "--definition", "S"],
    ["distribution", "--grid-n", "64", "--q-min", "-16", "--q-max", "16"],
    ["evolve", *EVOLVE_GRID, "--steps", "10"]], ids=lambda argv: argv[0])
def test_config_fields_the_subcommand_does_not_read_change_nothing(
        tmp_path, capsys, argv):
    unread = {name: value for name, value in CONFIG_VALUES.items()
              if "--" + name.replace("_", "-") not in FLAGS[argv[0]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(unread))
    plain = run(argv, capsys)
    assert plain[0] == 0 and plain[1] != ""
    assert run([*argv, "--config", str(cfg_path)], capsys) == plain


def test_read_distribution_binary_rejects_cut_blob(tmp_path, capsys):
    out = tmp_path / "w.bin"
    code, _, _ = run(["distribution", "--grid-n", "64", "--q-min", "-16",
                      "--q-max", "16", "--format", "binary",
                      "--out", str(out)], capsys)
    assert code == 0
    blob = out.read_bytes()
    for cut in (blob[:20], blob[:-8], blob + b"\0" * 8,
                b"\xff" * 16 + blob[16:]):
        with pytest.raises(lm.ConfigError):
            read_distribution_binary(cut)


def test_runconfig_canonical_round_trip():
    cfg = RunConfig(grid_n=256, q_min=-16.0, q_max=16.0, definition="MH",
                    order="2", state="oscillator(level=2,omega=1.0)")
    text = cfg.canonical()
    again = RunConfig.from_mapping(json.loads(text))
    assert again == cfg
    assert again.canonical() == text


def test_state_recipe_canonical_round_trip_through_cli():
    recipe = lm.parse_recipe(RunConfig().state)
    assert lm.recipe_text(recipe) == RunConfig().state


def test_transform_over_memory_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(phasespace, "N2_MEMORY_BUDGET", 10 ** 6)
    for argv in (["distribution", "--kind", "wigner"],
                 ["distribution", "--kind", "mh"]):
        code, out, err = run([*argv, *GRID16], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)["error"]["message"]
        assert "n = 512" in message and "largest n that fits is" in message
    # W profiles build no n x n array, so the budget does not refuse them
    for argv in (["moments", "--definition", "W"],
                 ["decompose", "--definition", "W"]):
        code, out, err = run([*argv, *GRID16], capsys)
        assert code == 0 and out != "" and err == ""


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(["transmogrify"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_subprocess_invocations_byte_identical(tmp_path):
    argv = ["moments", "--grid-n", "64", "--q-min", "-16", "--q-max", "16",
            "--definition", "S", "--order", "1"]
    runs = [run_subprocess(argv) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"q,value,mask,definition,order")


def test_subprocess_invocations_byte_identical_W(tmp_path):
    argv = ["moments", "--grid-n", "64", "--q-min", "-16", "--q-max", "16",
            "--definition", "W", "--order", "variance"]
    runs = [run_subprocess(argv) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"q,value,mask,definition,order")


def test_subprocess_evolve_out_byte_identical(tmp_path):
    argv = ["evolve", *EVOLVE_GRID, "--dt", "0.002", "--steps", "20",
            "--stride", "2"]
    runs = [run_subprocess([*argv, "--out", str(tmp_path / name)])
            for name in ("a", "b")]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout != b""
    for suffix in ("_rho.csv", "_pbar.csv", "_report.json"):
        first = (tmp_path / ("a" + suffix)).read_bytes()
        assert first == (tmp_path / ("b" + suffix)).read_bytes() != b""
