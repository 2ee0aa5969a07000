"""Import layering of the package: imports run one way at module level,
no module reaches into another's private names, and nothing imports scipy
(numpy.fft covers every transform, and scipy.fft alone tripled the import
time of the command-line tool)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import locmom

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


def test_cli_import_loads_no_scipy():
    probe = ("import sys, locmom.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.strip() == "[]"
