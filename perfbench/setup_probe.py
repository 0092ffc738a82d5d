"""One cold set-up of depsim, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC SCENARIO

Imports depsim from the directory SRC, loads the scenario file SCENARIO
and builds a ``SimulationRun``, then prints the seconds that took. A
fresh interpreter makes every set-up as cold as the first one is in a
new ``depsim run`` process.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MODULES = ("sim", "membership", "runtime", "containers", "analysis", "repair", "security",
           "tracing", "metrics", "verify", "scenario", "run", "cli")


def import_depsim() -> dict:
    return {name: importlib.import_module(f"depsim.{name}") for name in MODULES}


def setup(mods: dict, scenario):
    return mods["run"].SimulationRun(mods["scenario"].load_scenario(scenario))


def main() -> None:
    src, scenario = sys.argv[1:3]
    sys.path.insert(0, src)
    start = perf_counter()
    setup(import_depsim(), scenario)
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
