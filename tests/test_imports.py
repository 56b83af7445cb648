"""Rules on the package's modules: the runtime depends on the standard
library only, and no top-level function or class is there for the tests
alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import reachfuzz

PACKAGE = Path(reachfuzz.__file__).parent


def test_runtime_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_every_definition_is_named_outside_the_tests():
    """Each top-level function and class of a module is named again, as
    a name, an attribute or an import, in the package's modules (not
    __init__.py, whose exports do not count), scripts/ or perfbench/. A
    helper that only tests call belongs in tests/runs.py."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    repo = PACKAGE.parent.parent
    named = set()
    for path in [*modules, *sorted(repo.glob("scripts/*.py")), *sorted(repo.glob("perfbench/*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = [
        f"{path.name}: {node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert unnamed == []
