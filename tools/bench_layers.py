"""Time CLI processes and the library's layers, alternating source trees.

    python3 tools/bench_layers.py --tree LABEL=SRC [--tree LABEL=SRC]
        [--rounds K] [--out FILE]

A round runs, under each tree (PYTHONPATH=SRC), every process case once,
timed from spawn to exit: `-c pass`, `-c "import numpy"`, `-c "import
locmom.cli"`, the same import followed by gc.freeze(), and one small
request per subcommand through `python -m locmom.cli`.  Then, per tree,
one fresh interpreter runs every layer case of layers(): one warm-up call,
the best of BEST_OF timed calls, and one call under tracemalloc for its
peak.  The inputs a case is given are built before it is timed and are not
in its peak.  The trees take turns going first, the order reversed every
other round, so that drift of the machine falls on both alike.  One
untimed round of the process cases first leaves the trees' bytecode caches
as the timed rounds find them.  A process that exits non-zero stops the
run.

Per case and tree the record holds the median and quartiles of the rounds'
times and, for a layer case, the largest peak; with two trees it also
holds the rounds that the second tree won.  The environment holds the
Python and numpy versions, PYTHONDONTWRITEBYTECODE and, per tree, whether
locmom/__pycache__ exists (without it every start compiles the package),
and the cores, usable cores and row bands (threads) of the n x n routes
per n that its layer process saw (null for a tree without
phasespace.row_bands).  The record is printed as JSON; with --out it is
appended to the JSON list in FILE, which is created if absent.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from functools import partial
from io import StringIO

GRID = ["--q-min", "-16", "--q-max", "16"]
PROCESS_CASES = (
    ("pass", ["-c", "pass"]),
    ("import numpy", ["-c", "import numpy"]),
    ("import locmom.cli", ["-c", "import locmom.cli"]),
    # what cli.entry does before main(): the gap to the case above is the
    # exit-time collection of the post-import heap
    ("import locmom.cli; gc.freeze()",
     ["-c", "import gc, locmom.cli; gc.freeze()"]),
    ("moments", ["-m", "locmom.cli", "moments", "--grid-n", "256", *GRID,
                 "--definition", "all"]),
    ("decompose", ["-m", "locmom.cli", "decompose", "--grid-n", "256", *GRID,
                   "--definition", "all"]),
    ("distribution", ["-m", "locmom.cli", "distribution", "--grid-n", "64",
                      *GRID]),
    ("evolve", ["-m", "locmom.cli", "evolve", "--grid-n", "128", *GRID,
                "--steps", "20"]),
)
LAYER_PROCESS = ["-c", "import sys; sys.path.append(%r); import bench_layers; "
                 "bench_layers.child()" % os.path.dirname(
                     os.path.abspath(__file__))]

BEST_OF = 5
ORDERS = (1, 2)
N2_SIZES = (512, 1024, 2048, 4096)
# the grid sizes of the perfbench profiles and evolve decks
PROFILE_SIZES = (256, 512, 2048)
EVOLVE_SIZES = (128, 256)


def layers():
    """(layer, sizes, setup) per layer: setup(n) builds the inputs at grid
    size n and returns the call that is timed."""
    # imported here, in the layer process, so that the parent process,
    # which runs other trees, imports none
    import numpy as np

    import locmom as lm
    from locmom import classical, cli, dynamics, io, moments

    def gaussian(n):
        # window and width grow with n, so that dq stays 5/64
        scale = n / 512
        grid = lm.make_grid(n, -20.0 * scale, 20.0 * scale)
        recipe = lm.parse_recipe("gaussian(s=%r,k0=2.0,q0=0.0)" % scale)
        return recipe, grid, lm.synthesize(recipe, grid)

    def evolve(n, steps):
        # the default Gaussian in a harmonic potential, as evolve runs it
        grid = lm.make_grid(n, -16.0, 16.0)
        psi = lm.synthesize(lm.parse_recipe("gaussian(s=1.0,k0=2.0,q0=0.0)"),
                            grid)
        return (psi, lm.harmonic_potential(grid, 1.0),
                lm.PropagationConfig(1e-3, steps, 1))

    def split_step(n):
        return lambda: deque(dynamics.split_step_chunks(*evolve(n, 100)),
                             maxlen=0)

    def residuals(n):
        psi, V, cfg = evolve(n, 100)
        chunks = list(dynamics.split_step_chunks(psi, V, cfg))

        def call():
            reduced = dynamics.ResidualPass(psi.grid, V, cfg)
            for amps in chunks:
                reduced.feed(amps)
        return call

    def pipeline_evolve(n):
        # both traces of one request, in process, with the report discarded
        argv = ["evolve", "--grid-n", str(n), "--q-min", "-16", "--q-max",
                "16", "--potential", "harmonic:1.0", "--steps", "100"]

        def call():
            with contextlib.redirect_stdout(StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError("evolve failed: %r" % argv)
        return call

    def bayes(n):
        psi = gaussian(n)[2]
        return partial(lm.bayes_product, psi, lm.conditional_momentum_S(psi))

    def pipeline(n):
        recipe, grid, psi = gaussian(n)
        return partial(classical.classical_pipeline_profiles,
                       classical.wigner_as_classical(recipe, grid, psi), psi)

    def single(n):
        psi = gaussian(n)[2]
        return partial(lm.wigner_moment_density_stack, psi.amp[None, :],
                       psi.grid, ORDERS)

    def stack(n):
        # 4096 // n + 1 snapshots: 33 x 128 and 17 x 256
        psi, V, cfg = evolve(n, 4096 // n)
        return partial(lm.wigner_moment_density_stack,
                       np.concatenate(list(dynamics.split_step_chunks(
                           psi, V, cfg))), psi.grid, ORDERS)

    # a tree whose CSV writers return their text, rather than write it to
    # the file they are given, has the text written
    streams = "fh" in inspect.signature(io.trace_csv).parameters

    def devnull():
        # opened as the CLI opens its --out files
        return open(os.devnull, "w", encoding="utf-8", newline="")

    def written(writer, *args):
        fh = devnull()
        if streams:
            return partial(writer, *args, fh)
        return lambda: fh.write(writer(*args))

    def profiles(n):
        # what moments --definition all --order variance writes
        psi = gaussian(n)[2]
        return written(io.profile_csv, [
            lm.local_variance(psi, lm.momentum_power(1), d)
            for d in moments.DEFINITIONS])

    def trace_csv(n):
        # both trace files of a 100-step trace, a chunk at a time, as evolve
        # writes them: rho with a mask of ones, pbar with its own mask
        psi, V, cfg = evolve(n, 100)
        chunks = []
        lm.stream_trace(psi, V, cfg, emit=lambda *chunk: chunks.append(chunk))
        rho_fh, pbar_fh = devnull(), devnull()

        def call():
            for times, rho, pbar, own in chunks:
                if streams:
                    io.trace_csv(psi.grid, times, rho, None, rho_fh)
                    io.trace_csv(psi.grid, times, pbar, own, pbar_fh)
                else:
                    rho_fh.write(io.trace_csv(psi.grid, times, rho,
                                              np.ones_like(own)))
                    pbar_fh.write(io.trace_csv(psi.grid, times, pbar, own))
        return call

    def binary(n):
        dist = lm.wigner_transform(gaussian(n)[2])
        return partial(io.distribution_binary, dist, open(os.devnull, "wb"))

    return (
        ("wigner", N2_SIZES,
         lambda n: partial(lm.wigner_transform, gaussian(n)[2])),
        ("margenau_hill", N2_SIZES,
         lambda n: partial(lm.margenau_hill_transform, gaussian(n)[2])),
        ("conditional", N2_SIZES,
         lambda n: partial(lm.conditional_momentum_S, gaussian(n)[2])),
        ("bayes", N2_SIZES, bayes),
        ("moment_densities", N2_SIZES,
         lambda n: partial(lm.wigner_transform(gaussian(n)[2])
                           .moment_densities, ORDERS)),
        ("wigner_as_classical", N2_SIZES,
         lambda n: partial(classical.wigner_as_classical, *gaussian(n))),
        ("classical_pipeline_profiles", N2_SIZES, pipeline),
        ("w_kernel", (512, 1024, 2048, 4096, 8192), single),
        ("w_kernel_stack", EVOLVE_SIZES, stack),
        ("synthesize", PROFILE_SIZES,
         lambda n: partial(lm.synthesize, *gaussian(n)[:2])),
        ("momentum_power", PROFILE_SIZES,
         lambda n: partial(lm.apply_momentum_power, gaussian(n)[2], 2)),
        ("split_step", EVOLVE_SIZES, split_step),
        ("hydrodynamic_residuals", EVOLVE_SIZES, residuals),
        ("evolve", EVOLVE_SIZES, pipeline_evolve),
        ("profile_csv", PROFILE_SIZES, profiles),
        ("trace_csv", EVOLVE_SIZES, trace_csv),
        ("distribution_csv", (256, 512), lambda n: written(
            io.distribution_csv, lm.wigner_transform(gaussian(n)[2]))),
        ("distribution_binary", PROFILE_SIZES, binary),
    )


def measure(call) -> dict:
    call()
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": best, "peak_bytes": peak}


def child() -> None:
    """The layer process: measure every layer case, print JSON."""
    from locmom import phasespace

    cases = {"%s n=%d" % (layer, n): measure(setup(n))
             for layer, sizes, setup in layers() for n in sizes}
    bands = getattr(phasespace, "row_bands", None)
    print(json.dumps({
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "row_bands": bands and {n: len(bands(n)) for n in N2_SIZES},
        "cases": cases}))


def tree(text: str) -> tuple[str, str]:
    label, sep, src = text.partition("=")
    if not sep or not os.path.isdir(os.path.join(src, "locmom")):
        raise argparse.ArgumentTypeError("expected LABEL=SRC, SRC holding "
                                         "locmom/, got %r" % text)
    return label, os.path.abspath(src)


def run(args: list[str], src: str) -> tuple[float, bytes]:
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s exited %d under %s: %s"
                         % (" ".join(args), proc.returncode, src,
                            proc.stderr.decode(errors="replace")))
    return seconds, proc.stdout


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=tree, action="append", required=True,
                        help="LABEL=SRC; give one or two")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.tree) > 2 or len(dict(args.tree)) < len(args.tree):
        parser.error("give one or two trees, with different labels")
    if args.rounds < 2:
        parser.error("quartiles need at least two rounds")
    for _, argv in PROCESS_CASES:
        for _, src in args.tree:
            run(argv, src)
    times, peaks, seen = {}, {}, {}
    for r in range(args.rounds):
        order = args.tree if r % 2 == 0 else args.tree[::-1]
        for name, argv in PROCESS_CASES:
            for label, src in order:
                times.setdefault((name, label), []).append(run(argv, src)[0])
        for label, src in order:
            seen[label] = json.loads(run(LAYER_PROCESS, src)[1])
            for name, case in seen[label].pop("cases").items():
                times.setdefault((name, label), []).append(case["best_s"])
                peaks[name, label] = max(peaks.get((name, label), 0),
                                         case["peak_bytes"])
    cases = []
    for name in dict.fromkeys(name for name, _ in times):
        case = {"case": name, "trees": {}}
        for label, _ in args.tree:
            case["trees"][label] = summary(times[name, label])
            if (name, label) in peaks:
                case["trees"][label]["peak_bytes"] = peaks[name, label]
        if len(args.tree) == 2:
            (first, _), (second, _) = args.tree
            case["second_won"] = sum(
                b < a for a, b in zip(times[name, first],
                                      times[name, second]))
        cases.append(case)
    record = {
        "environment": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "trees": [dict(label=label, pycache=os.path.isdir(
                          os.path.join(src, "locmom", "__pycache__")),
                           **seen[label])
                      for label, src in args.tree]},
        "rounds": args.rounds, "best_of": BEST_OF,
        "process_cases": dict(PROCESS_CASES), "cases": cases}
    print(json.dumps(record, indent=1))
    if args.out:
        records = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                records = json.load(f)
        records.append(record)
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
