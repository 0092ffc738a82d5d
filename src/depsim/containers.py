"""Fault-tolerant service containers.

A container groups replicas of a deterministic service under one of two
strategies: failover (try replicas in configured order, skipping any
the caller believes suspect, dead or degraded) and active replication
(invoke all live replicas and take the strict-majority answer). Voting
is over exact response equality against the configured replica count,
so with n = 2f + 1 replicas up to f wrong or silent replicas cannot
produce a wrong result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class UnknownReplica(Exception):
    pass


class UnknownContainer(Exception):
    pass


class Strategy(Enum):
    FAILOVER = "failover"
    ACTIVE = "active"


@dataclass(frozen=True)
class Replica:
    host: str
    service_id: str


@dataclass(frozen=True)
class ServiceSpec:
    """Deterministic request -> response function, given as a table.

    Requests missing from the table fall back to ``default`` when set,
    else echo the request."""

    service_id: str
    equivalence_class: str
    table: dict[str, str] = field(default_factory=dict)
    default: str | None = None

    def respond(self, request: str) -> str:
        value = self.table.get(request)
        if value is not None:
            return value
        if self.default is not None:
            return self.default
        return request


@dataclass(frozen=True)
class ContainerSpec:
    container_id: str
    strategy: Strategy
    timeout: int
    replicas: tuple[Replica, ...]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError(f"container {self.container_id!r} has no replicas")
        if self.timeout < 1:
            raise ValueError(f"container {self.container_id!r} timeout must be >= 1")
        if self.strategy is Strategy.ACTIVE and len(self.replicas) % 2 == 0:
            raise ValueError(
                f"container {self.container_id!r} uses active replication with an even replica count"
            )


@dataclass(frozen=True)
class Alternative:
    """Replacement replica that can be activated by a repair. Must share
    the failed service's equivalence class by construction."""

    container_id: str
    host: str
    service_id: str


def vote(responses: Iterable[str], n: int) -> str | None:
    """Strict-majority vote over exact equality.

    Returns the value held by strictly more than n/2 of the ``n``
    configured replicas, or None when no such value exists among the
    responses actually received.
    """
    counts = Counter(responses)
    if not counts:
        return None
    value, cnt = counts.most_common(1)[0]
    if 2 * cnt > n:
        return value
    return None


class ContainerState:
    """Mutable per-node view of one container: the (repairable) replica
    list and the set of currently degraded hosts."""

    __slots__ = ("spec", "replicas", "degraded")

    def __init__(self, spec: ContainerSpec):
        self.spec = spec
        self.replicas: list[Replica] = list(spec.replicas)
        self.degraded: set[str] = set()

    def add_replica(self, replica: Replica) -> None:
        if replica not in self.replicas:
            self.replicas.append(replica)


@dataclass(frozen=True)
class JobSpec:
    job_id: str
    checkpoint: str | None = None


class JobState:
    __slots__ = ("spec", "status")

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.status = "running"


class ContainerRegistry:
    """One node's registry of services, containers, alternatives and
    jobs. Every node starts from the same scenario baseline; repairs
    mutate the origin's copy and change notices carry the mutation to
    everyone else."""

    def __init__(
        self,
        services: dict[str, ServiceSpec],
        containers: Iterable[ContainerSpec],
        alternatives: Iterable[Alternative] = (),
        jobs: Iterable[JobSpec] = (),
    ):
        self.services = dict(services)
        self.containers: dict[str, ContainerState] = {c.container_id: ContainerState(c) for c in containers}
        self.alternatives: dict[str, list[Alternative]] = {}
        for alt in alternatives:
            if alt.container_id not in self.containers:
                raise UnknownContainer(alt.container_id)
            self.alternatives.setdefault(alt.container_id, []).append(alt)
        self.used_alternatives: set[tuple[str, str, str]] = set()
        self.jobs: dict[str, JobState] = {j.job_id: JobState(j) for j in jobs}

    def container(self, container_id: str) -> ContainerState:
        state = self.containers.get(container_id)
        if state is None:
            raise UnknownContainer(container_id)
        return state

    def available_alternative(self, container_id: str) -> Alternative | None:
        for alt in self.alternatives.get(container_id, []):
            key = (alt.container_id, alt.host, alt.service_id)
            if key not in self.used_alternatives:
                return alt
        return None

    def consume_alternative(self, alt: Alternative) -> None:
        self.used_alternatives.add((alt.container_id, alt.host, alt.service_id))

    def mark_degraded(self, container_id: str, host: str) -> bool:
        """Exclude a replica host from future invocations until the
        membership layer reports it alive again. Returns True when this
        newly degraded the host."""
        state = self.container(container_id)
        if host not in {r.host for r in state.replicas}:
            raise UnknownReplica(f"{host!r} is not a replica of {container_id!r}")
        if host in state.degraded:
            return False
        state.degraded.add(host)
        return True

    def clear_degraded(self, host: str) -> None:
        """Membership refuted suspicion of ``host``: re-include it
        everywhere."""
        for state in self.containers.values():
            state.degraded.discard(host)
