"""Deterministic simulation of a self-healing, hierarchically monitored
distributed system: gossip failure detection, replicated service
containers, telemetry analysis with pattern learning, automated repair
with reliable change propagation, and audited access mediation."""

from .analysis import (
    AnalysisEngine,
    AnalysisParams,
    Diagnosis,
    MonitoringRecord,
    Pattern,
    Prediction,
    Sequence,
    Threshold,
    Trend,
    compare,
    forecast_ma,
)
from .containers import Alternative, ContainerRegistry, ContainerSpec, JobSpec, Replica, ServiceSpec, Strategy, vote
from .membership import (
    ClusterSummary,
    ClusterTopology,
    Detector,
    DetectorParams,
    adapt_timeout,
)
from .metrics import compute_metrics
from .repair import ChangeNotice, RepairPlan, ServicePorts, apply_notice, notice_for, plan
from .run import SimulationRun
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .security import AuditRecord, ObjectEntry, ReferenceMonitor, Rule, Subject, decide
from .sim import Crash, NetworkModel, Partition, Recover, SetLoss, Simulator
from .tracing import dump_jsonl, dumps_jsonl, load_jsonl
from .verify import Violation, verify_trace

__version__ = "0.1.0"

__all__ = [
    "AnalysisEngine",
    "AnalysisParams",
    "Alternative",
    "AuditRecord",
    "ChangeNotice",
    "ClusterSummary",
    "ClusterTopology",
    "ContainerRegistry",
    "ContainerSpec",
    "Crash",
    "Detector",
    "DetectorParams",
    "Diagnosis",
    "JobSpec",
    "MonitoringRecord",
    "NetworkModel",
    "ObjectEntry",
    "Partition",
    "Pattern",
    "Prediction",
    "Recover",
    "ReferenceMonitor",
    "Replica",
    "RepairPlan",
    "Rule",
    "Scenario",
    "ScenarioError",
    "Sequence",
    "ServicePorts",
    "ServiceSpec",
    "SetLoss",
    "SimulationRun",
    "Simulator",
    "Strategy",
    "Subject",
    "Threshold",
    "Trend",
    "Violation",
    "adapt_timeout",
    "apply_notice",
    "compare",
    "compute_metrics",
    "decide",
    "dump_jsonl",
    "dumps_jsonl",
    "forecast_ma",
    "load_jsonl",
    "load_scenario",
    "notice_for",
    "parse_scenario",
    "plan",
    "verify_trace",
    "vote",
]
