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


COMPARE = TOOL.parent / "compare_decks.py"
spec = importlib.util.spec_from_file_location("compare_decks", COMPARE)
compare_decks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_decks)


def test_compare_decks_runs_one_request_and_reports_columns(tmp_path):
    """One deck request that writes a file, run twice under this package:
    every output identical; and a moved number is reported by column."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    request = next(r for r in compare_decks.workloads.generate(
        "profiles", 1, compare_decks.WORKDIR) if r["outputs"])
    runs = [compare_decks.run(request, src, str(tmp_path / label))
            for label in "ab"]
    assert runs[0]["code"] == 0 and len(runs[0]["outputs"]) == 2
    for name, text in runs[0]["outputs"].items():
        assert compare_decks.deviations(text, runs[1]["outputs"][name]) == (
            "identical")
    a = b"q,value,mask,definition,order\n0,1.5,1,W,1\n0,2,1,S,1\n"
    assert compare_decks.deviations(a, a.replace(b"1.5", b"1.25")) == (
        "value[W]=0.25")
