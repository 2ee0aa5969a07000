"""Time the start-up and exit of CLI processes, alternating source trees.

    python3 tools/bench_startup.py --tree LABEL=SRC [--tree LABEL=SRC]
        [--rounds K] [--out FILE]

Each case is one fresh interpreter with PYTHONPATH=SRC, timed from spawn
to exit: `-c pass`, `-c "import numpy"`, `-c "import locmom.cli"`, the
same import followed by gc.freeze(), and one small request per subcommand
through `python -m locmom.cli`.  A round runs every case once under each
tree, pairwise, with the order of the trees reversed every other round,
so that drift of the machine falls on both alike.  One untimed round
first leaves the trees' bytecode caches as the timed rounds find them.
A request that exits non-zero stops the run.

Per case and tree the record holds the median and quartiles of the wall
time; with two trees it also holds the rounds that the second tree won.
It records PYTHONDONTWRITEBYTECODE and whether each tree's
locmom/__pycache__ exists: without that cache every start compiles the
package.  The record is printed as JSON; with --out it is appended to the
JSON list in FILE, which is created if absent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

GRID = ["--q-min", "-16", "--q-max", "16"]
CASES = (
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


def tree(text: str) -> tuple[str, str]:
    label, sep, src = text.partition("=")
    if not sep or not os.path.isdir(os.path.join(src, "locmom")):
        raise argparse.ArgumentTypeError("expected LABEL=SRC, SRC holding "
                                         "locmom/, got %r" % text)
    return label, os.path.abspath(src)


def run_once(args: list[str], src: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s exited %d under %s: %s"
                         % (" ".join(args), proc.returncode, src,
                            proc.stderr.decode(errors="replace")))
    return seconds


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=tree, action="append", required=True,
                        help="LABEL=SRC; give one or two")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.tree) > 2:
        parser.error("at most two trees")
    for _, argv in CASES:
        for _, src in args.tree:
            run_once(argv, src)
    times = {(name, label): [] for name, _ in CASES
             for label, _ in args.tree}
    for r in range(args.rounds):
        order = args.tree if r % 2 == 0 else args.tree[::-1]
        for name, argv in CASES:
            for label, src in order:
                times[name, label].append(run_once(argv, src))
    cases = []
    for name, argv in CASES:
        case = {"case": name, "argv": argv,
                "trees": {label: summary(times[name, label])
                          for label, _ in args.tree}}
        if len(args.tree) == 2:
            (first, _), (second, _) = args.tree
            case["second_won"] = sum(
                b < a for a, b in zip(times[name, first],
                                      times[name, second]))
        cases.append(case)
    record = {
        "environment": {"cpus": len(os.sched_getaffinity(0)),
                        "platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": importlib.metadata.version("numpy"),
                        "PYTHONDONTWRITEBYTECODE":
                            os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "trees": [{"label": label, "pycache": os.path.isdir(
                       os.path.join(src, "locmom", "__pycache__"))}
                  for label, src in args.tree],
        "rounds": args.rounds, "cases": cases}
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
