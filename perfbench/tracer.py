"""Traced run: per-layer spans from the benchmark's own files.

A fresh process runs a workload's requests in-process, in passes that
alternate between untraced and traced.  Tracing wraps the layers'
public functions where they are looked up at call time: every module
attribute, and every value of a module-level dict (the CLI's command
table), that refers to one of them.  `src/` is not touched.  The wrapped
functions are

    - the functions `locmom/__init__.py` exports, each under the layer of
      the module that defines it (states, core, moments, phasespace,
      classical, dynamics)
    - the `io` serializers
    - the CLI entry point and its `cmd_*` commands (layer `cli`)
    - the private `moments._local_*` helpers the CLI calls

Only names that exist are wrapped, so a refactor that deletes a helper
does not break the trace.

A span is (name, layer, parent index, request id, start, end, raised).
Spans stay in memory and are written out when the run ends.  Each request
is a root span: `cli.main` for the CLI workloads, and for the library
workload a span without a layer around one operation, whose self time is
the benchmark's own glue (the "unaccounted" share).  `phasespace.peak_mb`
comes from a first, untimed pass that runs tracemalloc around each
transform call, so that the timed spans are not slowed by it.

    PYTHONPATH=src python3 perfbench/tracer.py --workload W --seed N \
        --seconds S --workdir DIR --spans FILE
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io as _io
import json
import sys
import time
import tracemalloc

import checks
import workloads

LAYERS = ("cli", "states", "core", "moments", "phasespace", "classical",
          "dynamics", "io")
TRANSFORMS = ("wigner_transform", "margenau_hill_transform",
              "conditional_momentum_S")
IO_SERIALIZERS = ("profile_csv", "distribution_csv", "distribution_binary",
                  "trace_csv", "json_text")
EXTRA = {"io": IO_SERIALIZERS,
         "moments": ("_local_variance_profile", "_local_value_profile")}

NAME, LAYER, PARENT, REQUEST, START, END, RAISED = range(7)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries.
    With memory=True it also runs tracemalloc around each transform call
    and keeps the peak; that slows the calls, so the timed passes use a
    tracer without it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.counts = {"phasespace.cells": 0, "dynamics.steps": 0,
                       "io.bytes": 0}
        self.peak_bytes = 0

    def call(self, layer, name, fn, args, kwargs):
        rec = [name, layer, self.stack[-1] if self.stack else -1,
               self.request, 0.0, 0.0, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        mem = (self.memory and name in TRANSFORMS
               and not tracemalloc.is_tracing())
        if mem:
            tracemalloc.start()
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()
            if mem:
                self.peak_bytes = max(self.peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        if name in TRANSFORMS:
            values = getattr(result, "values", result)
            self.counts["phasespace.cells"] += int(values.size)
        elif name == "split_step_propagate":
            self.counts["dynamics.steps"] += int(args[2].steps)
        elif layer == "io" and isinstance(result, (str, bytes)):
            self.counts["io.bytes"] += len(result)
        return result

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)
        return traced


def _targets(locmom) -> dict:
    """{id(original function): (layer, name, function)}"""
    found = {}

    def add(layer, fn):
        found[id(fn)] = (layer, fn.__name__, fn)

    for name in getattr(locmom, "__all__", dir(locmom)):
        obj = getattr(locmom, name)
        if inspect.isfunction(obj) and obj.__module__.startswith("locmom."):
            layer = obj.__module__.split(".")[1]
            if layer in LAYERS:
                add(layer, obj)
    for layer, names in EXTRA.items():
        module = getattr(locmom, layer)
        for name in names:
            if inspect.isfunction(getattr(module, name, None)):
                add(layer, getattr(module, name))
    for name, obj in vars(locmom.cli).items():
        if inspect.isfunction(obj) and (name == "main"
                                        or name.startswith("cmd_")):
            add("cli", obj)
    return found


def install(tracer: Tracer) -> list:
    """Wrap every reference to a target in the locmom modules; returns the
    (container, key, original) list that uninstall() restores."""
    import locmom
    import locmom.cli  # noqa: F401  (not imported by the package itself)
    found = _targets(locmom)
    wrappers = {key: tracer.wrap(*spec) for key, spec in found.items()}
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "locmom" and not modname.startswith("locmom."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in wrappers and value is found[id(value)][2]:
                patched.append((namespace, attr, value))
                namespace[attr] = wrappers[id(value)]
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in wrappers and entry is found[id(entry)][2]:
                        patched.append((value, key, entry))
                        value[key] = wrappers[id(entry)]
    return patched


def uninstall(patched: list) -> None:
    for container, key, original in patched:
        container[key] = original


def layer_metrics(spans: list, passes: int) -> dict:
    """Per-layer calls, self time, share of request wall time and escaped
    exceptions, per pass over the request list.

    Self time is a span's duration minus the durations of its child spans.
    Request wall time is the summed duration of the root spans.  Self time
    of spans without a layer is the unaccounted share, so the shares of
    the layers and the unaccounted share sum to 1.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    stats = {layer: [0, 0.0, 0] for layer in LAYERS}
    wall = unaccounted = 0.0
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        if s[PARENT] < 0:
            wall += duration
        own = duration - child[i]
        if s[LAYER] is None:
            unaccounted += own
            continue
        st = stats[s[LAYER]]
        st[0] += 1
        st[1] += own
        if s[RAISED] and (s[PARENT] < 0
                          or spans[s[PARENT]][LAYER] != s[LAYER]):
            st[2] += 1
    out = {}
    for layer, (calls, own, errors) in stats.items():
        out[layer + ".calls"] = calls / passes
        out[layer + ".self_s"] = own / passes
        out[layer + ".share"] = own / wall if wall else 0.0
        out[layer + ".errors"] = errors / passes
    out["trace.unaccounted_share"] = unaccounted / wall if wall else 0.0
    return out


def _run_cli(cli_main, request):
    """(latency, CPU seconds, exit code, stdout, stderr) of one in-process
    CLI call."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        code = cli_main(request["argv"])
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return latency, cpu, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    import locmom.cli
    deck = workloads.generate(args.workload, args.seed, args.workdir)
    if args.workload == "identities":
        import library
        cases = library.setup(args.seed)
    else:
        for req in deck:
            if req["config"] is not None:
                with open(req["argv"][2], "w", encoding="utf-8") as fh:
                    json.dump(req["config"], fh)

    def one_pass(tracer=None):
        """Runs every request once; returns (wall seconds, CPU seconds,
        failure records) of the requests, checks excluded."""
        wall, cpu, failures = 0.0, [0.0], []
        if args.workload == "identities":
            for case in cases:
                for op in case.operations():
                    if tracer is not None:
                        tracer.request = "%s:%s" % (case.request["id"], op)

                    def call(op, case=case):
                        c0 = time.process_time()
                        try:
                            if tracer is None:
                                return case.call(op)
                            return tracer.call(None, "op:" + op, case.call,
                                               (op,), {})
                        finally:
                            cpu[0] += time.process_time() - c0
                    latency, failed = case.run(op, call)
                    wall += latency
                    if failed:
                        failures.append({"id": case.request["id"], "op": op,
                                         "failed": failed})
                case.release()
            return wall, cpu[0], failures
        for req in deck:
            if tracer is not None:
                tracer.request = req["id"]
            latency, used, code, out, err = _run_cli(locmom.cli.main, req)
            wall += latency
            cpu[0] += used
            failed = checks.check_cli(req, code, out, err)
            if code != 0 or failed:
                failures.append({"id": req["id"], "exit": code,
                                 "failed": failed})
        return wall, cpu[0], failures

    # A first, untimed pass warms up and measures phasespace.peak_mb.
    memory = Tracer(memory=True)
    patched = install(memory)
    try:
        one_pass(memory)
    finally:
        uninstall(patched)
    # Untraced and traced passes alternate, so that a drift in machine
    # speed does not show up as tracing overhead; the untraced passes fill
    # half the run.
    tracer = Tracer()
    untraced = cpu = traced = 0.0
    passes, failures = 0, []
    while True:
        wall, used, _ = one_pass()
        untraced += wall
        cpu += used
        patched = install(tracer)
        try:
            wall, _, failed = one_pass(tracer)
        finally:
            uninstall(patched)
        traced += wall
        failures += failed
        passes += 1
        if not workloads.another_pass(untraced, passes, args.seconds / 2.0):
            break

    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    per_pass = len(deck) if args.workload != "identities" else sum(
        len(c.operations()) for c in cases)
    print(json.dumps({
        "passes": passes, "requests_per_pass": per_pass,
        "untraced_s": untraced, "traced_s": traced, "cpu_s": cpu,
        "counts": {k: v / passes for k, v in tracer.counts.items()},
        "transform_peak_mb": memory.peak_bytes / 2.0 ** 20,
        "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
