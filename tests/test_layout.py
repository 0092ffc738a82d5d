"""Package layout: the root module re-exports nothing, the trace
format module depends on no other depsim module, the command line never
loads a whole trace file, and only the trace file's line parser reads
an entry dict."""

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


def calls_of(tree, name):
    """Every call of the plain name ``name`` in ``tree``."""
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_cli_never_loads_a_whole_trace():
    """``depsim verify`` streams the file through the checks: cli.py reads
    the file with ``read_rows`` and never hands those rows, directly or
    through a wrapper, to ``list``, ``tuple`` or ``sorted``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert calls_of(tree, "read_rows")
    for collect in ("list", "tuple", "sorted"):
        for call in calls_of(tree, collect):
            assert not any(calls_of(arg, "read_rows") for arg in call.args), ast.unparse(call)


ENTRY_KEYS = {"seq", "kind", "detail"}


def entry_key_reads(name):
    """(top-level definition, key) of every subscript by a constant entry
    key (``["seq"]``, ``["kind"]`` or ``["detail"]``) in src/depsim/<name>.py."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) and node.slice.value in ENTRY_KEYS:
                found.append((owner, node.slice.value))
    return found


def test_only_the_line_parser_reads_entry_dicts():
    """Every consumer reads rows; an entry dict exists only while
    ``tracing`` parses a line of the file."""
    found = {(path.stem, owner) for path in PACKAGE.glob("*.py") for owner, _ in entry_key_reads(path.stem)}
    assert found == {("tracing", "read_rows"), ("tracing", "_shape_problem")}
