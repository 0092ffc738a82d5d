"""Golden traces: the seed-0 JSONL of every bundled scenario is locked
byte for byte by its sha256.

A refactor must keep these hashes. A change that alters behaviour on
purpose updates the hash here and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from depsim.run import SimulationRun
from depsim.scenario import load_scenario
from depsim.tracing import dumps_jsonl

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "crash-and-heal": "a3f873a5d710898c05fcc97310ff856b995a924c2ecf7554795e2a754a5289bb",
    "large-cluster-detect": "2e28fe4bd2ac6b8f60e921d6082a7eb31cdc6a1bb57afaed2bee569b0e4a39c0",
    "learn-and-predict": "3b4d13e874ac58e8dc1183de22e7e5659cf87fa5a663db38cb7a378641a6987a",
    "lossy-gossip": "faba0746bf73b7fafebabd10b87a4bed42053d5c3672991fc611a03dcfe6fcde",
    "partition-and-propagate": "0e80d7237b0f387cb79573468f42362aa2b22899f6664b659ffd36e1d69ce37f",
    "vo-security-probe": "0eb204f3e3e0028baa374b409ad49e45e290fc54457b0b1b3bd242b3b6393c20",
    "vote-under-corruption": "3045fedbe4a037e82f9f4f65d6ef10e10861cf996e506cb92259e9c0d78e4c46",
}


def test_every_bundled_scenario_has_a_golden_hash():
    assert sorted(p.stem for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_trace_matches_golden_hash(name):
    run = SimulationRun(load_scenario(SCENARIOS / f"{name}.yaml"), seed=0).run()
    digest = hashlib.sha256(dumps_jsonl(run.trace).encode()).hexdigest()
    assert digest == GOLDEN[name]
