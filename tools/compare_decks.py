"""Run the benchmark's CLI deck requests under two source trees and compare
what they write.

    python3 tools/compare_decks.py --tree LABEL=SRC --tree LABEL=SRC
        [--seeds 1-5] [--workload profiles --workload evolve]

The requests are the `profiles` and `evolve` passes that
perfbench/workloads.py generates for each seed (14 per seed, 70 for seeds
1-5).  Each runs as `python -m locmom.cli` with PYTHONPATH=SRC, in a
directory of its own per tree, so that both trees see the same argv, and
its --config file is written there first.

Per request the tool prints its exit codes when they differ, its stderr
when it differs, and one line per output (stdout, then each file the
request writes, where it does): "identical" when the bytes are, or else
the largest absolute deviation of each column whose numbers differ.  A column is a
CSV column or a JSON key, split by the row's or record's `definition`
where it has one (`value[W]`); a field that is not a number counts the
cells that differ, and outputs of different shapes say so.  The last line
counts the outputs that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(TOOLS), "perfbench"), TOOLS]

import workloads  # noqa: E402
from bench_layers import tree  # noqa: E402

WORKDIR = "work"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(request: dict, src: str, cwd: str) -> dict:
    """Exit code, stderr and outputs (name -> bytes) of one request."""
    os.makedirs(os.path.join(cwd, WORKDIR), exist_ok=True)
    if request["config"] is not None:
        path = request["argv"][request["argv"].index("--config") + 1]
        with open(os.path.join(cwd, path), "w") as fh:
            json.dump(request["config"], fh)
    proc = subprocess.run([sys.executable, "-m", "locmom.cli",
                           *request["argv"]], cwd=cwd, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))
    outputs = {"stdout": proc.stdout}
    for path in request["outputs"]:
        # a failing request writes no file
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(cwd, path), "rb") as fh:
                outputs[os.path.basename(path)] = fh.read()
            os.remove(os.path.join(cwd, path))
    return {"code": proc.returncode, "stderr": proc.stderr,
            "outputs": outputs}


def cells(text: str) -> dict:
    """{column: [cell, ...]} of a CSV or JSON output, in order."""
    columns: dict = {}

    def add(record: dict) -> None:
        group = record.get("definition")
        for key, value in record.items():
            name = key if group is None else "%s[%s]" % (key, group)
            columns.setdefault(name, []).extend(
                value if isinstance(value, list) else [value])

    if text.lstrip().startswith(("{", "[")):
        payload = json.loads(text)
        for record in payload if isinstance(payload, list) else [payload]:
            add(record)
        return columns
    lines = text.splitlines()
    columns["#"] = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    for row in rows[1:]:
        add(dict(zip(rows[0], row)))
    return columns


def number(cell):
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def deviations(a: bytes, b: bytes) -> str:
    """'identical', or the columns that differ and by how much."""
    if a == b:
        return "identical"
    try:
        first, second = cells(a.decode()), cells(b.decode())
    except ValueError:
        return "differs (not CSV or JSON)"
    if {k: len(v) for k, v in first.items()} != {
            k: len(v) for k, v in second.items()}:
        return "differs in shape"
    moved = []
    for name, column in first.items():
        worst, unequal = 0.0, 0
        for x, y in zip(column, second[name]):
            if x == y:
                continue
            u, v = number(x), number(y)
            if u is None or v is None:
                unequal += 1
            else:
                worst = max(worst, abs(u - v))
        if unequal:
            moved.append("%s: %d cells" % (name, unequal))
        elif worst:
            moved.append("%s=%.2g" % (name, worst))
    return " ".join(moved) or "equal numbers, different text"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=tree, action="append", required=True,
                        help="LABEL=SRC; give two")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"),
                        help="FIRST-LAST or one seed (default 1-5)")
    parser.add_argument("--workload", action="append",
                        choices=("profiles", "evolve"),
                        help="default: both")
    args = parser.parse_args()
    if len(args.tree) != 2:
        parser.error("give two trees")
    (first, src_a), (second, src_b) = args.tree
    differ = total = 0
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for workload in args.workload or ("profiles", "evolve"):
                for request in workloads.generate(workload, seed, WORKDIR):
                    a = run(request, src_a, os.path.join(scratch, first))
                    b = run(request, src_b, os.path.join(scratch, second))
                    head = "seed %d %s" % (seed, request["id"])
                    if a["code"] != b["code"]:
                        print("%s exit %d -> %d" % (head, a["code"],
                                                    b["code"]))
                    if a["stderr"] != b["stderr"]:
                        print("%s stderr differs" % head)
                    for name in {**a["outputs"], **b["outputs"]}:
                        text, other = (a["outputs"].get(name),
                                       b["outputs"].get(name))
                        verdict = ("missing under one tree"
                                   if text is None or other is None
                                   else deviations(text, other))
                        total += 1
                        differ += verdict != "identical"
                        print("%s %s %s" % (head, name, verdict), flush=True)
    print("%d of %d outputs differ (%s -> %s)" % (differ, total, first,
                                                  second))


if __name__ == "__main__":
    main()
