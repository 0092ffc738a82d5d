"""Golden traces: the seed-0 JSONL of every bundled scenario, and one
more seed of the crash and loss scenarios, is locked byte for byte by
its sha256.

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

# Seed 7 takes paths seed 0 does not: crash-and-heal suspects and
# removes 3 peers, and lossy-gossip drops 2,363 messages to loss.
GOLDEN_SEED7 = {
    "crash-and-heal": "50a2dd22dc873ae94af3723c3aff5127622f11043aa6a78e5e4c88e53d55c5b2",
    "lossy-gossip": "9995b4e03fa6f8a94968d94d94992ee254987a1b2fbe3d7bcf823f0e0e3764e5",
}


def trace_sha256(name, seed):
    run = SimulationRun(load_scenario(SCENARIOS / f"{name}.yaml"), seed=seed).run()
    return hashlib.sha256(dumps_jsonl(run.trace).encode()).hexdigest()


def test_every_bundled_scenario_has_a_golden_hash():
    assert sorted(p.stem for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_trace_matches_golden_hash(name):
    assert trace_sha256(name, 0) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SEED7))
def test_seed7_trace_matches_golden_hash(name):
    assert trace_sha256(name, 7) == GOLDEN_SEED7[name]
