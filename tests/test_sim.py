"""Harness-level behavior: ordering, timers, network effects, crash
semantics. Everything here must hold for the component stack above to
be trustworthy."""

import heapq

import pytest
from conftest import entries
from hypothesis import given, settings
from hypothesis import strategies as st

from depsim.sim import (
    _DELIVER,
    _TIMER,
    Crash,
    NetworkModel,
    Partition,
    Recover,
    RngFactory,
    SchedulingInPast,
    SetLoss,
    Simulator,
    UnknownNode,
)


def make_sim(nodes=("a", "b"), **net):
    sim = Simulator(list(nodes), NetworkModel(**net), seed=1)
    return sim


def attach_collector(sim, node):
    got = []
    sim.attach(
        node,
        on_message=lambda s, n, src, msg: got.append(("msg", s.now, src, msg)),
        on_timer=lambda s, n, kind, data: got.append(("timer", s.now, kind, data)),
    )
    return got


def test_timer_fires_once_at_deadline():
    sim = make_sim()
    got = attach_collector(sim, "a")
    sim.set_timer("a", 5, "ping", {"x": 1})
    sim.run_until(4)
    assert got == []
    sim.run_until(10)
    assert got == [("timer", 5, "ping", {"x": 1})]


def test_scheduling_in_past_raises():
    sim = make_sim()
    sim.run_until(10)
    with pytest.raises(SchedulingInPast):
        sim.schedule(9, 1, None)
    with pytest.raises(SchedulingInPast):
        sim.run_until(5)


def test_send_delivers_after_base_latency():
    sim = make_sim(base_latency=3)
    attach_collector(sim, "a")
    got_b = attach_collector(sim, "b")
    sim.send("a", "b", "hello")
    sim.run_until(2)
    assert got_b == []
    sim.run_until(3)
    assert got_b == [("msg", 3, "a", "hello")]
    send = [e for e in entries(sim.trace) if e["kind"] == "send"]
    deliver = [e for e in entries(sim.trace) if e["kind"] == "deliver"]
    assert send[0]["detail"]["msg_id"] == deliver[0]["detail"]["msg_id"]
    assert deliver[0]["detail"]["sent_at"] == 0


def test_jitter_bounded_and_deterministic():
    delays = set()
    for _ in range(2):
        sim = Simulator(["a", "b"], NetworkModel(base_latency=2, jitter=5), seed=7)
        attach_collector(sim, "b")
        local = []
        for i in range(50):
            sim.send("a", "b", i)
        sim.run_until(100)
        for e in entries(sim.trace):
            if e["kind"] == "deliver":
                local.append(e["t"])
        delays.add(tuple(local))
        assert all(2 <= t <= 7 for t in local)
    assert len(delays) == 1  # same seed, same draws


def test_full_loss_drops_everything_at_send():
    sim = make_sim(loss_probability=1.0)
    got_b = attach_collector(sim, "b")
    sim.send("a", "b", "x")
    sim.run_until(10)
    assert got_b == []
    drops = [e for e in entries(sim.trace) if e["kind"] == "drop"]
    assert len(drops) == 1 and drops[0]["detail"]["reason"] == "loss"
    assert not any(e["kind"] == "send" for e in entries(sim.trace))


def test_partition_checked_at_delivery_time():
    sim = make_sim(base_latency=2)
    got_b = attach_collector(sim, "b")
    sim.network.partitions.append(Partition(frozenset(["a"]), frozenset(["b"]), start=2, stop=5))
    sim.send("a", "b", "in-flight")  # sent at 0, delivery at 2 falls inside the window
    sim.run_until(10)
    assert got_b == []
    assert [e["detail"]["reason"] for e in entries(sim.trace) if e["kind"] == "drop"] == ["partition"]
    # after the window closes traffic flows again
    sim.send("a", "b", "later")
    sim.run_until(20)
    assert got_b == [("msg", 12, "a", "later")]


def test_crash_cancels_timers_and_drops_deliveries():
    sim = make_sim(base_latency=5)
    got_b = attach_collector(sim, "b")
    sim.set_timer("b", 10, "never")
    sim.send("a", "b", "in-flight")
    sim.inject_fault(Crash("b", at=2))
    sim.run_until(30)
    assert got_b == []
    drops = [e for e in entries(sim.trace) if e["kind"] == "drop"]
    assert drops and drops[0]["detail"]["reason"] == "target_crashed"


def test_send_from_crashed_node_raises():
    sim = make_sim()
    sim.inject_fault(Crash("a", at=1))
    sim.run_until(2)
    with pytest.raises(UnknownNode):
        sim.send("a", "b", "x")


def test_recover_bumps_epoch_and_calls_handler():
    recovered = []
    sim = Simulator(
        ["a", "b"],
        NetworkModel(),
        seed=1,
        directive_handler=lambda s, d: recovered.append((s.now, d)),
    )
    attach_collector(sim, "a")
    sim.set_timer("a", 10, "pre-crash")
    sim.inject_fault(Crash("a", at=2))
    sim.inject_fault(Recover("a", at=5))
    sim.run_until(20)
    assert recovered == [(5, Recover("a", 5))]
    assert sim.nodes["a"].epoch == 2
    # the timer armed before the crash stayed cancelled across recovery
    timer_fires = [e for e in entries(sim.trace) if e["kind"] == "module_error"]
    assert timer_fires == []


def test_recover_handler_exception_becomes_module_error():
    def boom(s, d):
        raise RuntimeError("recovery bug")

    sim = Simulator(["a", "b"], NetworkModel(), seed=1, directive_handler=boom)
    got = attach_collector(sim, "b")
    sim.inject_fault(Crash("a", at=1))
    sim.inject_fault(Recover("a", at=4))
    sim.set_timer("b", 6, "after")
    sim.run_until(10)  # the loop runs on past the failed handler
    assert sim.nodes["a"].up
    assert got == [("timer", 6, "after", None)]
    errors = [e for e in entries(sim.trace) if e["kind"] == "module_error"]
    assert [(e["t"], e["node"]) for e in errors] == [(4, None)]
    assert "recovery bug" in errors[0]["detail"]["error"]


def test_timer_after_recovery_fires():
    sim = Simulator(["a"], NetworkModel(), seed=1, directive_handler=lambda s, d: s.set_timer("a", 3, "fresh"))
    got = attach_collector(sim, "a")
    sim.inject_fault(Crash("a", at=1))
    sim.inject_fault(Recover("a", at=4))
    sim.run_until(10)
    assert got == [("timer", 7, "fresh", None)]


def test_set_loss_directive_mutates_network():
    sim = make_sim()
    sim.inject_fault(SetLoss(0.5, at=3))
    sim.run_until(5)
    assert sim.network.loss_probability == 0.5
    assert any(e["kind"] == "set_loss" for e in entries(sim.trace))


def test_unknown_node_rejected_everywhere():
    sim = make_sim()
    with pytest.raises(UnknownNode):
        sim.send("a", "zz", "x")
    with pytest.raises(UnknownNode):
        sim.set_timer("zz", 1, "t")
    with pytest.raises(UnknownNode):
        sim.inject_fault(Crash("zz", at=1))


def test_handler_exception_becomes_module_error():
    sim = make_sim()

    def boom(s, n, src, msg):
        raise RuntimeError("component bug")

    sim.attach("b", on_message=boom, on_timer=lambda *a: None)
    sim.send("a", "b", "x")
    sim.run_until(5)
    errors = [e for e in entries(sim.trace) if e["kind"] == "module_error"]
    assert len(errors) == 1
    assert "component bug" in errors[0]["detail"]["error"]


def test_same_tick_events_fire_in_schedule_order():
    sim = make_sim(nodes=("a",))
    got = attach_collector(sim, "a")
    sim.set_timer("a", 5, "first")
    sim.set_timer("a", 5, "second")
    sim.run_until(5)
    assert [g[2] for g in got] == ["first", "second"]


def test_rng_streams_independent_of_creation_order():
    f1 = RngFactory(42)
    a_first = f1.stream("a", "x").random()
    f2 = RngFactory(42)
    f2.stream("b", "x").random()  # interleave another stream
    a_second = f2.stream("a", "x").random()
    assert a_first == a_second


def test_run_until_is_composable():
    def drive(stops):
        sim = Simulator(["a", "b"], NetworkModel(jitter=3), seed=3)
        attach_collector(sim, "a")
        attach_collector(sim, "b")

        def tick(s, n, kind, data):
            if s.now < 50:
                s.send(n, "b" if n == "a" else "a", s.now)
                s.set_timer(n, 3, "tick")

        sim._timer_handlers["a"] = tick
        sim._timer_handlers["b"] = tick
        sim.set_timer("a", 1, "tick")
        for t in stops:
            sim.run_until(t)
        return entries(sim.trace)

    assert drive([100]) == drive([7, 8, 30, 99, 100])


class Halt(BaseException):
    """Stands for an interrupt: not an Exception, so no handler catches it."""


def test_escaping_exception_leaves_the_rest_of_the_tick_queued():
    sim = make_sim(nodes=("a",))
    got = []

    def on_timer(s, n, kind, data):
        got.append((s.now, kind))
        if kind == "second" and got.count((s.now, kind)) == 1:
            s.set_timer(n, 0, "same-tick")
            raise Halt

    sim.attach("a", on_message=lambda *a: None, on_timer=on_timer)
    for kind in ("first", "second", "third", "fourth"):
        sim.set_timer("a", 5, kind)
    sim.set_timer("a", 6, "later")
    with pytest.raises(Halt):
        sim.run_until(10)
    assert sim.now == 5
    assert got == [(5, "first"), (5, "second")]
    sim.run_until(10)  # the tick resumes where it stopped; nothing runs twice
    assert got == [(5, "first"), (5, "second"), (5, "third"), (5, "fourth"), (5, "same-tick"), (6, "later")]


# --- differential against a (fire_at, seq) heap ------------------------------


class HeapSimulator(Simulator):
    """Reference queue: one heap of (fire_at, seq, kind, payload), popped
    in order. Everything else is the Simulator's own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap = []
        self._seq = 0

    def schedule(self, fire_at, kind, payload):
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at {fire_at} < now {self.now}")
        heapq.heappush(self._heap, (fire_at, self._seq, kind, payload))
        self._seq += 1

    def run_until(self, t):
        if t < self.now:
            raise SchedulingInPast(f"run_until({t}) but now is {self.now}")
        while self._heap and self._heap[0][0] <= t:
            fire_at, _, kind, payload = heapq.heappop(self._heap)
            self.now = fire_at
            if kind == _DELIVER:
                self._process_delivery(payload)
            elif kind == _TIMER:
                self._process_timer(payload)
            else:
                self._process_directive(payload)
        self.now = t


NODES = ("a", "b", "c")
# What an event with a given label does when it runs: set a timer
# (delay 0 included) or send a message, each naming the label the new
# event carries. Labels only point forward, so every script ends.
actions = st.lists(
    st.tuples(st.sampled_from(["timer", "send"]), st.sampled_from(NODES), st.integers(0, 3), st.integers(1, 8)),
    max_size=3,
)


@st.composite
def scripts(draw):
    table = [draw(actions) for _ in range(8)]
    starts = draw(st.lists(st.tuples(st.sampled_from(NODES), st.integers(0, 6), st.integers(0, 7)), min_size=1, max_size=8))
    faults = []
    for node, at, down in draw(st.lists(st.tuples(st.sampled_from(NODES), st.integers(0, 20), st.integers(0, 6)), max_size=3)):
        faults += [Crash(node, at), Recover(node, at + down)]
    if draw(st.booleans()):
        faults.append(SetLoss(draw(st.sampled_from([0.0, 0.5])), draw(st.integers(0, 20))))
    net = {"base_latency": draw(st.integers(1, 3)), "jitter": draw(st.integers(0, 2)), "loss_probability": draw(st.sampled_from([0.0, 0.3]))}
    stops = sorted(draw(st.lists(st.integers(0, 40), max_size=4))) + [40]
    return table, starts, faults, net, stops


def replay(cls, script):
    """Run a script on a simulator of class ``cls``; return what ran, in
    order, and the trace entries."""
    table, starts, faults, net, stops = script
    log = []

    def act(s, node, label):
        log.append((s.now, node, label))
        for what, other, delay, step in table[label]:
            nxt = min(label + step, len(table) - 1)
            if nxt == label:
                continue
            if what == "timer":
                s.set_timer(node, delay, "t", nxt)
            else:
                s.send(node, other, nxt)

    def on_recover(s, directive):
        log.append((s.now, directive.node, "recovered"))
        s.set_timer(directive.node, 0, "t", 0)  # a delay-0 timer from the directive handler

    sim = cls(list(NODES), NetworkModel(**net), seed=5, directive_handler=on_recover)
    for node in NODES:
        sim.attach(node, on_message=lambda s, n, src, msg: act(s, n, msg), on_timer=lambda s, n, kind, data: act(s, n, data))
    for node, delay, label in starts:
        sim.set_timer(node, delay, "t", label)
    for fault in faults:
        sim.inject_fault(fault)
    for t in stops:
        sim.run_until(t)
    return log, entries(sim.trace)


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_tick_buckets_run_events_in_heap_order(script):
    assert replay(Simulator, script) == replay(HeapSimulator, script)
