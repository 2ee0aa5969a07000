"""locmom benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
`src/locmom`.  One request is in flight at a time and the client starts no
threads of its own beyond one timeout timer per request.  The workloads and
the reasons for them are in BENCHMARK.json.

With --trace 0 the client measures the end-to-end metrics.  CLI workloads
(`profiles`, `evolve`) spawn `python3 -m locmom.cli` per request and time
it from spawn to exit; `identities` times library calls in one worker
process.  The request list of one pass comes from the seed; the
client runs whole passes, as many as fit the requested seconds best, so the
mix of work is the same in every run.  Each output is checked after its
request (outside the timed part).

With --trace 1 a fresh process (tracer.py) runs the same requests
in-process, untraced and then traced, and the client prints the per-layer
metrics.

The last line of standard output is the result JSON; the full record
(every request's argv, latency and failed checks, the failure breakdown
and the environment) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 120.0
STARTUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "LOCMOM_THREADS")


class UsageError(Exception):
    """The benchmark cannot run here (no program to measure)."""


# ---------------------------------------------------------------------------
# Environment


def environment(env: dict) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_vars": {k: env.get(k) for k in THREAD_VARS},
    }


def child_env(root: str) -> dict:
    """The default environment plus the checkout's source tree; thread
    variables are left as they are."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


# ---------------------------------------------------------------------------
# Statistics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least ten samples beyond it, but never below the 90th (nearest
    rank; the percentile is the share of samples at or below the value).
    From 110 samples up that is the 11th-largest sample; with fewer it is
    the 90th percentile, and fewer than ten samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def tally(records: list[dict]) -> list[dict]:
    """The failed requests: a request fails on a non-zero exit, a timeout,
    a raised library error or a failed check.  The workloads hold only
    requests the program answers correctly, so one failed request makes
    the run's outputs incorrect."""
    return [r for r in records if r.get("exit", 0) != 0 or r["failed"]]


def failure_breakdown(records: list[dict]) -> dict:
    by_exit, by_check = {}, {}
    for rec in records:
        if rec.get("exit", 0) != 0:
            key = str(rec["exit"])
            by_exit[key] = by_exit.get(key, 0) + 1
        for name in rec["failed"]:
            by_check[name] = by_check.get(name, 0) + 1
    return {"by_exit_code": by_exit, "by_check": by_check}


# ---------------------------------------------------------------------------
# CLI workloads


def run_request(request: dict, root: str, env: dict, workdir: str) -> dict:
    """Spawn one CLI request and reap it with wait4; stdout and stderr go
    to files so a large output cannot block the child."""
    cmd = [sys.executable, "-m", "locmom.cli"] + request["argv"]
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"latency": latency, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "stdout": stdout, "stderr": stderr}


def write_configs(deck: list[dict], root: str) -> None:
    for req in deck:
        for path in req["outputs"]:
            path = os.path.join(root, path)
            if os.path.exists(path):
                os.remove(path)
        if req["config"] is not None:
            with open(os.path.join(root, req["argv"][2]), "w",
                      encoding="utf-8") as fh:
                json.dump(req["config"], fh)


def cli_setup(workload, seed, root, env, rel_workdir):
    """Generate the requests, write the config files, warm up (one fresh
    interpreter importing the CLI).  Returns (seconds, request list)."""
    t0 = time.perf_counter()
    deck = workloads.generate(workload, seed, rel_workdir)
    write_configs(deck, root)
    subprocess.run([sys.executable, "-c", "import locmom.cli"], env=env,
                   cwd=root, check=True)
    return time.perf_counter() - t0, deck


def measure_cli(args, root, env, rel_workdir) -> dict:
    """Set-up runs SETUP_REPEATS times, spread over the run (before the
    first pass, between passes and after the last), so that it sees the
    same machine as the requests."""
    import checks
    setups = []

    def set_up():
        seconds, deck = cli_setup(args.workload, args.seed, root, env,
                                  rel_workdir)
        setups.append(seconds)
        return deck

    deck = set_up()
    workdir = os.path.join(root, rel_workdir)
    records, busy, passes = [], 0.0, 0
    while True:
        for req in deck:
            res = run_request(req, root, env, workdir)
            busy += res["latency"]
            failed = checks.check_cli(req, res["exit"], res["stdout"],
                                      res["stderr"])
            for path in req["outputs"]:
                if os.path.exists(os.path.join(root, path)):
                    os.remove(os.path.join(root, path))
            records.append({"id": req["id"], "latency": res["latency"],
                            "exit": res["exit"], "rss_mb": res["rss_mb"],
                            "cpu_s": res["cpu_s"], "failed": failed})
        passes += 1
        if not workloads.another_pass(busy, passes, args.seconds):
            break
        deck = set_up()
    while len(setups) < SETUP_REPEATS:
        set_up()
    return {"setups": setups, "records": records, "busy": busy,
            "passes": passes, "peak_rss_mb": max(r["rss_mb"] for r in records)}


# ---------------------------------------------------------------------------
# Library workload


def measure_library(args, root, env, rel_workdir) -> dict:
    """Set-up is timed from spawning a worker until it reports READY, in
    SETUP_REPEATS fresh workers; the middle one goes on to the measured
    loop, so that set-ups run before and after it."""
    worker = [sys.executable, os.path.join(HERE, "library.py"),
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups, records, tail_info = [], [], None
    for i in range(SETUP_REPEATS):
        measured = i == SETUP_REPEATS // 2
        t0 = time.perf_counter()
        argv = worker if measured else worker + ["--setup-only"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                cwd=root, text=True)
        try:
            first = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            if first.strip() != "READY":
                raise RuntimeError("library worker failed during set-up")
            for line in proc.stdout:
                rec = json.loads(line)
                if "op" in rec:
                    records.append(rec)
                else:
                    tail_info = rec
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0:
            raise RuntimeError("library worker exited with code %d" % code)
    busy = sum(r["latency"] for r in records)
    return {"setups": setups, "records": records, "busy": busy,
            "passes": tail_info["passes"],
            "peak_rss_mb": tail_info["peak_rss_mb"]}


def end_to_end(result: dict) -> dict:
    """Latency and throughput count every request that ran to its end,
    failed checks and self-check exits included; a request killed by the
    timeout or a library call that raised did not."""
    records = result["records"]
    ok = [r for r in records if r.get("exit", 0) == 0 and not r["failed"]]
    done = [r for r in records if r.get("exit", 0) >= 0
            and not any(f.startswith("exception.") for f in r["failed"])]
    latencies = [r["latency"] for r in done] or [float("nan")]
    tail_value, tail_pct, beyond = tail(latencies)
    result["tail"] = {"percentile": tail_pct, "samples": len(latencies),
                      "beyond": beyond}
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_rps": (len(done) / result["busy"], "req/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_ratio": (len(ok) / len(records), "1"),
    }


# ---------------------------------------------------------------------------
# Traced run


def startup_times(root, env) -> tuple[float, float]:
    """Medians of a bare interpreter start and of `import locmom` timed
    inside a fresh interpreter."""
    bare, imports = [], []
    probe = ("import time; t = time.perf_counter(); import locmom; "
             "print(time.perf_counter() - t)")
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root,
                       check=True)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root,
                             check=True, capture_output=True, text=True)
        imports.append(float(out.stdout))
    return statistics.median(bare), statistics.median(imports)


def traced(args, root, env, rel_workdir) -> dict:
    interpreter_s, import_s = startup_times(root, env)
    spans_path = os.path.join(root, rel_workdir, "spans.json")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "tracer.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--workdir", rel_workdir,
         "--spans", spans_path],
        env=env, cwd=root, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    summary["records"] = summary.pop("failures")
    summary["attempted"] = summary["passes"] * summary["requests_per_pass"]
    return {"metrics": per_layer(spans, summary, interpreter_s, import_s),
            "summary": summary}


def per_layer(spans, summary, interpreter_s, import_s) -> dict:
    import tracer
    metrics = {k: (v, _layer_unit(k)) for k, v in
               tracer.layer_metrics(spans, summary["passes"]).items()}
    counts = summary["counts"]
    metrics.update({
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.cpu_wall_ratio": (summary["cpu_s"] / summary["untraced_s"], "1"),
        "phasespace.cells": (counts["phasespace.cells"], "count"),
        "phasespace.peak_mb": (summary["transform_peak_mb"], "MB"),
        "dynamics.steps": (counts["dynamics.steps"], "count"),
        "io.bytes": (counts["io.bytes"], "bytes"),
        "trace.overhead_ratio": (summary["traced_s"] / summary["untraced_s"],
                                 "1"),
    })
    return metrics


def _layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "errors": "count"}.get(kind, "1")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "locmom", "cli.py")):
        raise UsageError("no program to measure: run from the root of a "
                         "checkout that holds src/locmom")
    env = child_env(root)
    # The client's own numpy (the output checks) gets one BLAS thread, so
    # that its idle BLAS workers do not spin on the cores of a request.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rel_workdir = os.path.join("perfbench", ".work", name)
    rel_keep = os.path.join("perfbench", "results", name)
    workdir = os.path.join(root, rel_workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(env)}
    try:
        if args.trace:
            res = traced(args, root, env, rel_workdir)
            metrics, summary = res["metrics"], res["summary"]
            records = summary["records"]
            attempted = summary["attempted"]
            record["trace_summary"] = summary
        else:
            measure = (measure_library if args.workload == "identities"
                       else measure_cli)
            summary = measure(args, root, env, rel_workdir)
            metrics = end_to_end(summary)
            records = summary["records"]
            attempted = len(records)
            record.update({"setups_s": summary["setups"],
                           "passes": summary["passes"],
                           "tail": summary["tail"],
                           "requests": records})
        # replays read the kept config files and write next to them
        record["request_list"] = [
            {"id": r["id"], "spec": r["spec"], "config": r["config"],
             "replay": None if r["argv"] is None else
             "PYTHONPATH=src python3 -m locmom.cli " + shlex.join(r["argv"])}
            for r in workloads.generate(args.workload, args.seed, rel_keep)]
    finally:
        keep = os.path.join(root, rel_keep)
        shutil.rmtree(keep, ignore_errors=True)
        os.makedirs(keep)
        for entry in os.listdir(workdir):
            if re.fullmatch(r"[a-z]+-\d+\.json", entry):  # config files
                shutil.move(os.path.join(workdir, entry), keep)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = tally(records)
    record["failures"] = failure_breakdown(failed)
    record["failed_requests"] = failed
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(root, rel_keep + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (key, value, unit))
    print("failures: %s" % json.dumps(record["failures"], sort_keys=True))
    print(json.dumps({"correct": not failed,
                      "attempted": attempted, "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except UsageError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
