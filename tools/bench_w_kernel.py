"""Time and trace the Wigner moment-density kernel.

    PYTHONPATH=src python3 tools/bench_w_kernel.py --label TEXT
        [--repeats K] [--out FILE]

Runs phasespace.wigner_moment_density_stack for the orders (1, 2) of a W
local variance on single states at n = 512..8192 and on two stacks of
evolve snapshots (33 x 128 and 17 x 256: the default Gaussian in a
harmonic potential).  Each case records the wall time of one call, best of
K, and the tracemalloc peak of one call.  The single states are Gaussians
whose window and width grow with n, so that dq stays 5/64.

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

SINGLE_SIZES = (512, 1024, 2048, 4096, 8192)
# (n, snapshots): two chunks of the evolve cross-check
STACKS = ((128, 33), (256, 17))
ORDERS = (1, 2)


def single(n: int) -> tuple[np.ndarray, lm.GridSpec]:
    scale = n / 512
    grid = lm.make_grid(n, -20.0 * scale, 20.0 * scale)
    recipe = lm.parse_recipe("gaussian(s=%r,k0=2.0,q0=0.0)" % scale)
    return lm.synthesize(recipe, grid).amp[None, :], grid


def stack(n: int, count: int) -> tuple[np.ndarray, lm.GridSpec]:
    grid = lm.make_grid(n, -16.0, 16.0)
    psi = lm.synthesize(lm.parse_recipe("gaussian(s=1.0,k0=2.0,q0=0.0)"),
                        grid)
    trace = lm.split_step_propagate(psi, lm.harmonic_potential(grid, 1.0),
                                    lm.PropagationConfig(1e-3, count - 1, 1))
    return np.stack([s.amp for s in trace.snapshots]), grid


def measure(amps: np.ndarray, grid: lm.GridSpec, repeats: int) -> dict:
    kernel = lm.wigner_moment_density_stack
    _, error = kernel(amps, grid, ORDERS)
    if error is not None:
        raise error
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel(amps, grid, ORDERS)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        kernel(amps, grid, ORDERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"rows": amps.shape[0], "n": amps.shape[1], "best_s": best,
            "peak_bytes": peak}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--label", required=True,
                        help="names the code measured, e.g. its commit")
    parser.add_argument("--out")
    args = parser.parse_args()
    cases = [measure(*single(n), args.repeats) for n in SINGLE_SIZES]
    cases += [measure(*stack(n, count), args.repeats) for n, count in STACKS]
    record = {
        "label": args.label,
        "environment": {"cpus": len(os.sched_getaffinity(0)),
                        "platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": np.__version__},
        "orders": list(ORDERS), "repeats": args.repeats, "cases": cases}
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
