"""The traced benchmark (perfbench/spans.py) wraps functions of the
package by name, from outside. A rename would leave a span unwrapped and
the traced run reporting ``correct: false``; this test fails first."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_on_the_package():
    depsim = load("setup_probe").import_depsim()
    targets = load("spans").targets(depsim)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, _, owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert targets
    assert missing == []
