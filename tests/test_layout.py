"""Package layout: the root module re-exports nothing, and the trace
format module depends on no other depsim module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "depsim"


def imports(name):
    """(module, level) of every import statement in src/depsim/<name>.py."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.module or "", node.level))
    return found


def test_package_root_imports_nothing():
    assert imports("__init__") == []


def test_tracing_imports_no_depsim_module():
    own = [(module, level) for module, level in imports("tracing") if level > 0 or module.split(".")[0] == "depsim"]
    assert own == []
