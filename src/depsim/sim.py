"""Deterministic discrete-event simulation harness.

The harness owns a logical integer clock, an event queue ordered by
(fire_at, seq), a latency/loss/partition network model and one liveness
handle per node. Protocol code runs inside node handlers that the
harness invokes; handlers emit new work exclusively through the harness
(:meth:`Simulator.send`, :meth:`Simulator.set_timer`), which keeps the
whole run reproducible: for a fixed scenario and master seed, two runs
produce byte-identical traces.

Randomness is never drawn from a shared stream. Every (node, purpose)
pair gets its own ``random.Random`` seeded by stable hashing, so adding
a node or reordering setup does not perturb anyone else's draws.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .tracing import TraceRecorder

logger = logging.getLogger(__name__)

SimTime = int


class SchedulingInPast(Exception):
    """An event was scheduled with fire_at below the current clock."""


class UnknownNode(Exception):
    """A node id was used that the simulation does not know."""


# --- fault directives ------------------------------------------------------


@dataclass(frozen=True)
class Crash:
    node: str
    at: SimTime


@dataclass(frozen=True)
class Recover:
    node: str
    at: SimTime


@dataclass(frozen=True)
class SetLoss:
    probability: float
    at: SimTime


@dataclass(frozen=True)
class Partition:
    """Nodes in ``a`` cannot exchange messages with nodes in ``b`` while
    the partition is active. Active means start <= t < stop, checked at
    delivery time."""

    a: frozenset[str]
    b: frozenset[str]
    start: SimTime
    stop: SimTime


# --- network ----------------------------------------------------------------


@dataclass
class NetworkModel:
    base_latency: int = 1
    jitter: int = 0
    loss_probability: float = 0.0
    partitions: list[Partition] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.base_latency < 1:
            raise ValueError("base_latency must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")

    def separated(self, x: str, y: str, t: SimTime) -> bool:
        for p in self.partitions:
            if p.start <= t < p.stop:
                if (x in p.a and y in p.b) or (x in p.b and y in p.a):
                    return True
        return False


# --- rng --------------------------------------------------------------------


class RngFactory:
    """Per-(node, purpose) seeded random streams derived from the master
    seed by stable hashing."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: dict[tuple[str, str], random.Random] = {}

    def stream(self, node: str, purpose: str) -> random.Random:
        key = (node, purpose)
        rng = self._streams.get(key)
        if rng is None:
            digest = hashlib.sha256(f"{self.master_seed}|{node}|{purpose}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[key] = rng
        return rng


# --- node handle ------------------------------------------------------------


class NodeHandle:
    """Liveness bookkeeping for one node.

    ``up`` is False from a crash until the next recovery. ``epoch``
    increments on every crash and recovery; timers carry the epoch they
    were armed under and fire only if it still matches, which is how a
    crash cancels pending timers without touching the heap.
    """

    __slots__ = ("up", "epoch")

    def __init__(self) -> None:
        self.up = True
        self.epoch = 0


# --- events -----------------------------------------------------------------

_DELIVER = 0
_TIMER = 1
_DIRECTIVE = 2


class Simulator:
    """Composable deterministic event loop.

    Handlers are attached per node:

    - ``on_message(sim, node, src, msg)`` for deliveries
    - ``on_timer(sim, node, kind, data)`` for timer fires
    - the harness itself handles fault directives

    ``run_until(t)`` may be called repeatedly; splitting a run into
    segments yields the same trace as a single longer run.
    """

    def __init__(
        self,
        node_ids: list[str],
        network: NetworkModel,
        seed: int,
        directive_handler: Callable[["Simulator", Any], None] | None = None,
    ):
        self.now: SimTime = 0
        self.network = network
        self.rng = RngFactory(seed)
        self.trace = TraceRecorder()
        self.nodes: dict[str, NodeHandle] = {}
        for nid in node_ids:
            if nid in self.nodes:
                raise ValueError(f"duplicate node id {nid!r}")
            self.nodes[nid] = NodeHandle()
        self._heap: list[tuple[int, int, int, Any]] = []
        self._next_seq = 0
        self._msg_seq = 0
        self._message_handlers: dict[str, Callable[..., None]] = {}
        self._timer_handlers: dict[str, Callable[..., None]] = {}
        self._directive_handler = directive_handler

    # -- wiring

    def attach(
        self,
        node: str,
        on_message: Callable[..., None],
        on_timer: Callable[..., None],
    ) -> None:
        self._require_node(node)
        self._message_handlers[node] = on_message
        self._timer_handlers[node] = on_timer

    def _require_node(self, node: str) -> NodeHandle:
        handle = self.nodes.get(node)
        if handle is None:
            raise UnknownNode(node)
        return handle

    # -- scheduling primitives

    def schedule(self, fire_at: SimTime, kind: int, payload: Any) -> None:
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at {fire_at} < now {self.now}")
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (fire_at, seq, kind, payload))

    def set_timer(self, node: str, delay: int, timer_kind: str, data: Any = None) -> None:
        handle = self._require_node(node)
        self.schedule(self.now + delay, _TIMER, (node, timer_kind, handle.epoch, data))

    def send(self, src: str, dst: str, msg: Any) -> None:
        """Queue a message. Loss is drawn at send time from the sender's
        network stream; partitions are checked at delivery time."""
        nodes = self.nodes
        sender = nodes.get(src)
        if sender is None:
            raise UnknownNode(src)
        if nodes.get(dst) is None:
            raise UnknownNode(dst)
        if not sender.up:
            raise UnknownNode(f"send from crashed node {src}")
        msg_id = self._msg_seq
        self._msg_seq = msg_id + 1
        kind = getattr(msg, "kind", type(msg).__name__)
        now = self.now
        network = self.network
        delay = network.base_latency
        loss = network.loss_probability
        # A stream is created untouched and no other stream depends on
        # it, so a run without loss or jitter need not create it.
        if loss > 0.0 or network.jitter:
            net = self.rng.stream(src, "net")
            if loss > 0.0 and net.random() < loss:
                self.trace.drop(now, dst, "loss", src, kind, msg_id)
                return
            if network.jitter:
                delay += net.randrange(network.jitter + 1)
        self.trace.send(now, src, dst, kind, msg_id)
        # base_latency >= 1, so the delivery is never in the past.
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (now + delay, seq, _DELIVER, (src, dst, msg, msg_id, now)))

    def inject_fault(self, directive: Crash | Recover | SetLoss | Partition) -> None:
        if isinstance(directive, Partition):
            for nid in directive.a | directive.b:
                self._require_node(nid)
            self.network.partitions.append(directive)
            return
        if isinstance(directive, (Crash, Recover)):
            self._require_node(directive.node)
        self.schedule(directive.at, _DIRECTIVE, directive)

    def schedule_directive(self, at: SimTime, directive: Any) -> None:
        """Scenario-level directive delivered to the directive handler."""
        self.schedule(at, _DIRECTIVE, directive)

    # -- main loop

    def run_until(self, t: SimTime) -> None:
        if t < self.now:
            raise SchedulingInPast(f"run_until({t}) but now is {self.now}")
        heap = self._heap
        while heap and heap[0][0] <= t:
            fire_at, _seq, kind, payload = heapq.heappop(heap)
            self.now = fire_at
            if kind == _DELIVER:
                self._process_delivery(payload)
            elif kind == _TIMER:
                self._process_timer(payload)
            else:
                self._process_directive(payload)
        self.now = t

    def _process_delivery(self, payload: tuple) -> None:
        src, dst, msg, msg_id, sent_at = payload
        kind = getattr(msg, "kind", type(msg).__name__)
        handle = self.nodes[dst]
        if not handle.up:
            self.trace.drop(self.now, dst, "target_crashed", src, kind, msg_id)
            return
        if self.network.partitions and self.network.separated(src, dst, self.now):
            self.trace.drop(self.now, dst, "partition", src, kind, msg_id)
            return
        self.trace.deliver(self.now, dst, src, kind, msg_id, sent_at)
        handler = self._message_handlers.get(dst)
        if handler is None:
            self.trace.record(self.now, "unrouted", dst, {"msg": kind})
            return
        try:
            handler(self, dst, src, msg)
        except Exception as exc:  # node code must not take down the loop
            logger.exception("message handler failed on %s", dst)
            self.trace.record(self.now, "module_error", dst, {"msg": kind, "error": repr(exc)})

    def _process_timer(self, payload: tuple) -> None:
        node, timer_kind, epoch, data = payload
        handle = self.nodes[node]
        if not handle.up or handle.epoch != epoch:
            return  # cancelled by crash or recovery
        handler = self._timer_handlers.get(node)
        if handler is None:
            self.trace.record(self.now, "unrouted", node, {"timer": timer_kind})
            return
        try:
            handler(self, node, timer_kind, data)
        except Exception as exc:
            logger.exception("timer handler failed on %s", node)
            self.trace.record(self.now, "module_error", node, {"timer": timer_kind, "error": repr(exc)})

    def _process_directive(self, directive: Any) -> None:
        if isinstance(directive, Crash):
            handle = self.nodes[directive.node]
            if handle.up:
                handle.up = False
                handle.epoch += 1
                self.trace.record(self.now, "crash", directive.node, {})
            return
        if isinstance(directive, Recover):
            handle = self.nodes[directive.node]
            if not handle.up:
                handle.up = True
                handle.epoch += 1
                self.trace.record(self.now, "recover", directive.node, {})
                if self._directive_handler is not None:
                    self._handle_directive(directive)
            return
        if isinstance(directive, SetLoss):
            self.network.loss_probability = directive.probability
            self.trace.record(self.now, "set_loss", None, {"probability": directive.probability})
            return
        if self._directive_handler is not None:
            self._handle_directive(directive)
        else:
            self.trace.record(self.now, "unrouted", None, {"directive": repr(directive)})

    def _handle_directive(self, directive: Any) -> None:
        try:
            self._directive_handler(self, directive)
        except Exception as exc:  # like node handlers, a directive handler must not take down the loop
            logger.exception("directive handler failed")
            self.trace.record(self.now, "module_error", None, {"directive": repr(directive), "error": repr(exc)})
