"""Time and trace the n x n phase-space routes.

    PYTHONPATH=src python3 tools/bench_n2_routes.py --label TEXT
        [--repeats K] [--out FILE]

Runs, on one Gaussian per n = 512..4096, each route that reads or writes
an n x n lattice: the Wigner and Margenau-Hill transforms, the
conditional P_S(p|q), the Bayes check (bayes_product, given P_S), the
lattice moment densities of orders 1 and 2 (of the Wigner transform),
wigner_as_classical and classical_pipeline_profiles (given the classical
density).  Each case records the wall time of one call, best of K, and
the tracemalloc peak of one call; the inputs a route is given are built
before it is timed and are not in its peak.  The Gaussians' window and
width grow with n, so that dq stays 5/64.  The environment records the
cores this process may use and, per n, the number of row bands (threads)
the n x n routes run (phasespace.row_bands).

The record (label, environment, cases) is printed as JSON; with --out it
is appended to the JSON list in FILE, which is created if absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
import tracemalloc

import numpy as np

import locmom as lm
from locmom import classical, phasespace

SIZES = (512, 1024, 2048, 4096)
ORDERS = (1, 2)


def state(n: int):
    scale = n / 512
    grid = lm.make_grid(n, -20.0 * scale, 20.0 * scale)
    recipe = lm.parse_recipe("gaussian(s=%r,k0=2.0,q0=0.0)" % scale)
    return recipe, grid, lm.synthesize(recipe, grid)


def routes(recipe, grid, psi):
    """(name, build, call) per route: build() makes the route's inputs,
    call(inputs) is what is timed."""
    return (
        ("wigner", lambda: None, lambda _: lm.wigner_transform(psi)),
        ("margenau_hill", lambda: None,
         lambda _: lm.margenau_hill_transform(psi)),
        ("conditional", lambda: None,
         lambda _: lm.conditional_momentum_S(psi)),
        ("bayes", lambda: lm.conditional_momentum_S(psi),
         lambda P: lm.bayes_product(psi, P)),
        ("moment_densities", lambda: lm.wigner_transform(psi),
         lambda W: W.moment_densities(ORDERS)),
        ("wigner_as_classical", lambda: None,
         lambda _: classical.wigner_as_classical(recipe, grid, psi)),
        ("classical_pipeline_profiles",
         lambda: classical.wigner_as_classical(recipe, grid, psi),
         lambda F: classical.classical_pipeline_profiles(F, psi)))


def measure(call, inputs, repeats: int) -> dict:
    call(inputs)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call(inputs)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        call(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": best, "peak_bytes": peak}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--label", required=True,
                        help="names the code measured, e.g. its commit")
    parser.add_argument("--out")
    args = parser.parse_args()
    cases = []
    for n in SIZES:
        recipe, grid, psi = state(n)
        for name, build, call in routes(recipe, grid, psi):
            case = {"route": name, "n": n}
            case.update(measure(call, build(), args.repeats))
            cases.append(case)
    record = {
        "label": args.label,
        "environment": {"cpus": os.cpu_count(),
                        "usable_cores": phasespace.usable_cores(),
                        "workers": {str(n): len(phasespace.row_bands(n))
                                    for n in SIZES},
                        "platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
        "repeats": args.repeats, "cases": cases}
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
