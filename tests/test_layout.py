"""Package layout: the root module re-exports nothing, the trace
format module depends on no other depsim module, and the command line
never loads a whole trace file."""

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


def test_cli_never_loads_a_whole_trace():
    """``depsim verify`` streams the file through the checks; the loader
    that builds the list of every entry must not come back into cli.py."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "read_rows" in names
    assert "load_jsonl" not in names
