"""Deterministic simulation of a self-healing, hierarchically monitored
distributed system: gossip failure detection, replicated service
containers, telemetry analysis with pattern learning, automated repair
with reliable change propagation, and audited access mediation."""

__version__ = "0.1.0"
