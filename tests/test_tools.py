"""The layer-timing tool, tools/bench_layers.py, against this package: each
of its layer cases runs once, at the smallest size of its family, and each
CLI request it times exits 0, so that a renamed function or flag fails
here rather than in the next timing run."""

import importlib.util
from pathlib import Path

import pytest

from locmom import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)

LAYERS = bench_layers.layers()
REQUESTS = [(name, argv) for name, argv in bench_layers.PROCESS_CASES
            if argv[:2] == ["-m", "locmom.cli"]]


@pytest.mark.parametrize("sizes, setup", [case[1:] for case in LAYERS],
                         ids=[case[0] for case in LAYERS])
def test_layer_case_runs_at_its_smallest_size(sizes, setup):
    setup(min(sizes))()


@pytest.mark.parametrize("argv", [argv for _, argv in REQUESTS],
                         ids=[name for name, _ in REQUESTS])
def test_process_case_request_exits_0(capsys, argv):
    assert cli.main(argv[2:]) == 0
    capsys.readouterr()
