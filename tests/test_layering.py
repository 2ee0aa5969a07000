"""Import layering of the package: imports run one way at module level,
no module reaches into another's private names, nothing imports scipy
(numpy.fft covers every transform, and scipy.fft alone tripled the import
time of the command-line tool), and no 1D profile goes through the n x n
Wigner transform."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import locmom
from locmom import cli, dynamics, phasespace

SRC = Path(locmom.__file__).parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s:%d" % (name, node.lineno)
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_private_access_across_modules():
    found = []
    for name, tree in _trees():
        # names bound to sibling modules by `from . import moments`
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings |= {a.asname or a.name for a in node.names}
                else:
                    found += ["%s:%d imports %s" % (name, node.lineno, a.name)
                              for a in node.names if a.name.startswith("_")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings
                    and node.attr.startswith("_")):
                found.append("%s:%d uses %s.%s" % (name, node.lineno,
                                                    node.value.id, node.attr))
    assert found == []


def test_no_scipy_import():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += ["%s:%d imports %s" % (name, node.lineno, m)
                      for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_fft_round_trips_go_through_the_core_seam():
    """Only core calls np.fft.fft, ifft and fftfreq, and fftfreq only once,
    for GridSpec.p_wrapped: every other module multiplies a spectrum
    through core.spectral_multiply on that one momentum grid.  phasespace
    keeps its rfft/irfft row routes."""
    seam = {"np.fft.fft", "np.fft.ifft", "np.fft.fftfreq"}
    found, fftfreq = [], 0
    for name, tree in _trees():
        calls = [ast.unparse(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        if name == "core.py":
            fftfreq = calls.count("np.fft.fftfreq")
        else:
            found += ["%s calls %s" % (name, c) for c in calls if c in seam]
    assert found == []
    assert fftfreq == 1


def _scales_a_max(node) -> bool:
    """node is `eps * y.max(...)` (either order)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "max"
                    for side in (node.left, node.right)))


# README's library section documents these two observable constructors,
# next to momentum_power, as how a user states any other observable, and
# recipe_text, the canonical text of a state recipe; no command, benchmark
# request or acceptance criterion calls one.
DOCUMENTED_IN_README = {"position_function", "linear_action", "recipe_text"}


def test_every_public_name_has_a_user():
    """Each public name of locmom is read by another package module, the
    benchmark (perfbench/) or an acceptance criterion; code that only tests
    read belongs to tests/dense_oracle.py."""
    repo = SRC.parent.parent
    readers = ([path for path in sorted(SRC.glob("*.py"))
                if path.name != "__init__.py"]
               + sorted((repo / "perfbench").glob("*.py"))
               + [repo / "tests" / "test_acceptance.py"])
    used = set()

    def scan(node, defining):
        # a use inside the name's own definition, such as a recursive
        # call, is not a user
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name):
            used.update({node.id} - defining)
        elif isinstance(node, ast.Attribute):
            used.update({node.attr} - defining)
        for child in ast.iter_child_nodes(node):
            scan(child, defining)

    for path in readers:
        scan(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    public = {name for name in dir(locmom) if not name.startswith("_")
              and not isinstance(getattr(locmom, name), types.ModuleType)}
    assert sorted(public - used - DOCUMENTED_IN_README) == []


def test_mask_rule_lives_in_core():
    """Only core compares a weight with eps times its maximum, once, in
    core.support_mask: every mask (rho, the evolve stacks and a lattice's
    q-marginal) goes through that rule."""
    found, in_core = [], 0
    for name, tree in _trees():
        rules = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Compare)
                 and any(isinstance(op, ast.GtE) for op in node.ops)
                 and any(map(_scales_a_max, node.comparators))]
        if name == "core.py":
            in_core = len(rules)
        else:
            found += ["%s:%d" % (name, line) for line in rules]
    assert found == []
    assert in_core == 1


def test_threshold_messages_come_from_errors_only():
    """Every measured-value-versus-threshold message is built by
    errors.check, so no other module spells out "exceeds" or "tolerance"
    in a string (docstrings aside)."""
    found = []
    for name, tree in _trees():
        if name == "errors.py":
            continue
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr)}
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings
                  and ("exceeds" in node.value or "tolerance" in node.value)]
    assert found == []


def test_cli_flags_come_from_the_settings_table():
    """Apart from --config, cli.py adds flags at one call site: the loop
    over the fields of RunConfig, so a new flag goes through the table."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"]
    in_table_loop = [call for loop in ast.walk(tree)
                     if isinstance(loop, ast.For)
                     and ast.unparse(loop.iter) == "fields(RunConfig)"
                     for call in ast.walk(loop) if call in calls]
    literal = [call.args[0].value for call in calls
               if isinstance(call.args[0], ast.Constant)]
    assert len(calls) == 2 and literal == ["--config"]
    assert len(in_table_loop) == 1


def test_cli_import_loads_no_scipy():
    probe = ("import sys, locmom.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.strip() == "[]"


def test_no_setting_comes_from_the_environment():
    """Settings come from the command line and the config file alone (the
    settings table of cli.RunConfig): nothing reads os.environ or
    os.getenv, the number of row bands included."""
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv", "environb")):
                found.append("%s:%d reads %s" % (name, node.lineno,
                                                 node.attr))
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and {a.name for a in node.names}
                  & {"environ", "getenv", "environb"}):
                found.append("%s:%d imports it from os" % (name, node.lineno))
    assert found == []


def test_cli_import_loads_no_concurrent_futures():
    """The row bands run on plain threads: concurrent.futures would add its
    import to every start-up."""
    probe = ("import sys, locmom.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'concurrent'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.strip() == "[]"


def test_profiles_and_evolve_build_no_wigner_transform(monkeypatch, capsys):
    def refuse(psi):
        raise AssertionError("the n x n Wigner transform was built")

    original = phasespace.wigner_transform
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "locmom"
                and getattr(module, "wigner_transform", None) is original):
            monkeypatch.setattr(module, "wigner_transform", refuse)
    grid = ["--grid-n", "128", "--q-min", "-16", "--q-max", "16"]
    for argv in (["moments", "--definition", "W"],
                 ["moments", "--definition", "all", "--order", "4"],
                 ["decompose", "--definition", "W"],
                 ["evolve", "--steps", "10"]):
        assert cli.main([*argv, *grid]) == 0, argv
    capsys.readouterr()
    psi = locmom.synthesize(locmom.Gaussian(s=1.0, k0=2.0, q0=0.0),
                            locmom.make_grid(128, -16.0, 16.0))
    assert set(dynamics.kinetic_energy_densities(psi)) == {"W", "MH", "C"}
    with pytest.raises(AssertionError, match="transform was built"):
        locmom.wigner_transform(psi)
