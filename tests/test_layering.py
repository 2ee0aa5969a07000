"""Import layering of the package: imports run one way at module level,
and no module reaches into another's private names."""

import ast
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

