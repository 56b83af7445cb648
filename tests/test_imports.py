"""The runtime depends on the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import reachfuzz


def test_runtime_imports_only_the_standard_library():
    for path in sorted(Path(reachfuzz.__file__).parent.glob("*.py")):
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
