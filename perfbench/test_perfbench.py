"""Tests of the benchmark itself (not of locmom).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    a = workloads.generate(workload, 7, "w")
    assert a == workloads.generate(workload, 7, "w")
    assert a != workloads.generate(workload, 8, "w")
    assert len({r["id"] for r in a}) == len(a)


def _cli(argv):
    from locmom import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _request(workload, command, tmp_path):
    for seed in range(20):
        for req in workloads.generate(workload, seed, str(tmp_path)):
            if req["command"] == command and req["spec"]["grid_n"] <= 512:
                if req["config"] is not None:
                    with open(req["argv"][2], "w", encoding="utf-8") as fh:
                        json.dump(req["config"], fh)
                return req
    raise AssertionError("no small %s request" % command)


def test_corrupted_evolve_report_counts_as_failed(tmp_path):
    req = _request("evolve", "evolve", tmp_path)
    code, out, err = _cli(req["argv"])
    assert code == 0 and checks.check_cli(req, code, out, err) == []
    report = json.loads(out)
    report["norm_drift_max"] = 1e-6
    failed = checks.check_cli(req, code, json.dumps(report), err)
    assert "evolve.norm_drift" in failed
    records = [{"id": req["id"], "exit": 0, "failed": failed}]
    assert run.tally(records) == records


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_stay_on_validated_grids(workload):
    """No grid finer than dq = 1/16 and no subnormal amplitude anywhere on
    it (nodes are exact zeros): outside that the program's answers miss
    the checks' tolerances."""
    for seed in range(5):
        for req in workloads.generate(workload, seed, "w"):
            _, amp, dq = checks.reference_state(req["spec"])
            assert dq >= 1.0 / 16.0
            mod = np.abs(amp)
            assert not ((mod > 0.0) & (mod < 1e-300)).any(), req["spec"]


def test_corrupted_profile_counts_as_failed(tmp_path):
    req, rows = _variance_csv(tmp_path)
    n = req["spec"]["grid_n"]
    middle = 1 + 3 * n + n // 2          # a masked-in W row
    fields = rows[middle].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    rows[middle] = ",".join(fields)
    failed = checks.check_cli(req, 0, "\n".join(rows) + "\n", "")
    assert "moments.w_is_mean_of_s_and_c" in failed


def test_corrupted_library_result_counts_as_failed():
    import locmom
    import library
    spec = {"grid_n": 128, "q_min": -16.0, "q_max": 16.0,
            "state": "gaussian(s=1.0,k0=1.0,q0=0.5)"}
    case = library.Case(locmom, {"id": "c", "spec": spec})
    for op in case.operations():
        assert case.run(op)[1] == [], op
    W = case.results["transforms"][0]
    W.values[64, 64] += 1e-3
    assert "transforms.q_marginal" in case.check("transforms",
                                                 case.results["transforms"])


def test_clean_exit_is_failed():
    line = json.dumps({"error": {"code": 4, "kind": "self-check",
                                 "message": "x"}})
    assert checks.check_cli({}, 4, "", line + "\n") == []
    assert checks.check_cli({}, 4, "", "Traceback ...\n") == ["error_line"]
    records = [{"id": "a", "exit": 4, "failed": []},
               {"id": "b", "exit": 0, "failed": []}]
    assert run.tally(records) == [records[0]]


def test_printed_metric_names_are_declared():
    end_to_end, per_layer, names = declared()
    assert tuple(names) == workloads.WORKLOADS
    result = {"setups": [1.0, 2.0, 3.0], "busy": 4.0, "peak_rss_mb": 5.0,
              "records": [{"id": str(i), "latency": 0.1 * i, "exit": 0,
                           "failed": []} for i in range(1, 30)]}
    assert set(run.end_to_end(result)) == end_to_end
    spans = [["main", "cli", -1, "r", 0.0, 1.0, False]]
    summary = {"passes": 1, "cpu_s": 1.0, "untraced_s": 1.0,
               "traced_s": 1.1, "transform_peak_mb": 1.0,
               "counts": {"phasespace.cells": 1, "dynamics.steps": 1,
                          "io.bytes": 1}}
    assert set(run.per_layer(spans, summary, 0.1, 0.5)) == per_layer


def test_layer_shares_and_unaccounted_sum_to_one():
    spans = [
        ["op", None, -1, "r1", 0.0, 10.0, False],          # glue: 1.5 s
        ["wigner_transform", "phasespace", 0, "r1", 1.0, 6.0, False],
        ["require_normalized", "core", 1, "r1", 1.5, 2.0, False],
        ["synthesize", "states", 0, "r1", 6.0, 9.5, True],
        ["main", "cli", -1, "r2", 20.0, 24.0, False],
        ["profile_csv", "io", 4, "r2", 21.0, 23.0, False],
    ]
    m = tracer.layer_metrics(spans, passes=2)
    total = sum(m[layer + ".share"] for layer in tracer.LAYERS)
    assert math.isclose(total + m["trace.unaccounted_share"], 1.0)
    assert math.isclose(m["trace.unaccounted_share"], 1.5 / 14.0)
    assert math.isclose(m["phasespace.self_s"], 4.5 / 2)
    assert m["states.errors"] == 0.5 and m["phasespace.errors"] == 0.0
    assert m["cli.calls"] == 0.5


def test_tracer_wraps_and_restores():
    import locmom
    from locmom import cli, phasespace
    original = phasespace.wigner_transform
    t = tracer.Tracer()
    patched = tracer.install(t)
    try:
        assert cli._COMMANDS["moments"] is cli.cmd_moments
        assert cli.cmd_moments.__wrapped__ is not None
        assert locmom.wigner_transform is not original
        code, _, _ = _cli(["moments", "--grid-n", "64", "--q-min", "-16",
                           "--q-max", "16", "--definition", "W"])
    finally:
        tracer.uninstall(patched)
    assert code == 0 and phasespace.wigner_transform is original
    names = {s[tracer.NAME] for s in t.spans}
    assert {"main", "cmd_moments", "wigner_transform",
            "profile_csv"} <= names
    assert t.counts["phasespace.cells"] == 64 * 64


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(run.UsageError):
        run.main(["--workload", "profiles", "--seed", "1", "--seconds", "1"])


def test_tail_has_ten_samples_beyond_or_is_p90():
    lat = list(range(200))
    value, pct, beyond = run.tail(lat)
    assert sum(x > value for x in lat) == beyond == 10 and pct == 95.0
    lat = list(range(20))
    value, pct, beyond = run.tail(lat)
    assert value == 17 and pct == 90.0 and beyond == 2


def _variance_csv(tmp_path):
    spec = dict(_request("profiles", "moments", tmp_path)["spec"],
                definition="all", order="variance", format="csv")
    spec.pop("out", None)
    code, out, err = _cli(["moments", "--grid-n", str(spec["grid_n"]),
                           "--q-min", repr(spec["q_min"]),
                           "--q-max", repr(spec["q_max"]),
                           "--state", spec["state"], "--definition", "all",
                           "--order", "variance", "--format", "csv"])
    req = {"command": "moments", "spec": spec}
    assert code == 0 and checks.check_cli(req, code, out, err) == []
    return req, out.splitlines()


def test_narrowed_mask_counts_as_failed(tmp_path):
    req, rows = _variance_csv(tmp_path)
    n = req["spec"]["grid_n"]
    masked_in = [i for i in range(1, 1 + n) if rows[i].split(",")[2] == "1"]
    fields = rows[masked_in[0]].split(",")
    fields[1], fields[2] = "0.0", "0"
    rows[masked_in[0]] = ",".join(fields)
    failed = checks.check_cli(req, 0, "\n".join(rows) + "\n", "")
    assert "moments.mask" in failed


def test_edge_only_failure_is_named_and_failed():
    q = np.linspace(-10.0, 10.0, 201)
    rho = np.exp(-q * q)
    mask = rho >= checks.MASK_EPS * rho.max()
    edge = rho < 1e-6
    assert checks.on_mask("x", lambda m: not (m & edge).any(), mask,
                          rho) == ["x.edge"]
    assert checks.on_mask("x", lambda m: False, mask, rho) == ["x"]
    records = [{"id": "a", "exit": 0, "failed": ["x.edge"]},
               {"id": "b", "exit": 0, "failed": ["x"]}]
    assert run.tally(records) == records
