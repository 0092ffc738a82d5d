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


# Spans that only the CLI's output stages reach.
CLI_SPANS = {"tracing.encode", "metrics.compute", "verify.verify"}


def test_every_span_is_reached_by_the_bundled_scenarios():
    """A wrap target can resolve and still never be called, say after
    its call site moved; its layer would then read zero. Each span but
    the CLI's output stages records a call over in-process runs of the
    bundled scenarios."""
    depsim = load("setup_probe").import_depsim()
    spans = load("spans")
    tracer = spans.Tracer(depsim)
    tracer.install()
    try:
        for path in sorted((PERFBENCH.parent / "scenarios").glob("*.yaml")):
            depsim["run"].SimulationRun(depsim["scenario"].load_scenario(path)).run()
    finally:
        tracer.uninstall()
    assert tracer.problems() == []
    calls = {name: row[0] for name, row in tracer.drain().items()}
    names = {f"{layer}.{name}" for layer, name, _, _ in spans.targets(depsim)}
    assert sorted(name for name in names - CLI_SPANS if not calls.get(name)) == []
