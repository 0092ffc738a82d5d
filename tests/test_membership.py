"""Failure detector internals: adaptive timeout, digest merge,
suspicion state machine, representative election and summary flow."""

import random
import statistics
from math import ceil, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.membership import (
    ClusterSummary,
    ClusterTopology,
    Detector,
    DetectorParams,
    GossipDigest,
    HeartbeatEntry,
    PeerState,
    SummaryBatch,
    adapt_timeout,
)


def entry_with_gaps(gaps, params, counter=0, incarnation=0):
    e = HeartbeatEntry(counter, incarnation, 0, params)
    e.gaps.extend(gaps)
    return e


# --- adaptive timeout ---------------------------------------------------------


def test_adapt_timeout_worked_example():
    # mean 10, population stddev sqrt(2); 10 + 4*1.41421 = 15.657 -> 16
    params = DetectorParams(gossip_interval=1, window=4, k=4.0, t_min=1, t_max=1000, t_bootstrap=500)
    e = entry_with_gaps([8, 12, 10, 10], params)
    assert adapt_timeout(e, params) == 16


def test_adapt_timeout_floor_on_constant_gaps():
    params = DetectorParams(gossip_interval=10, window=4, k=4.0)  # t_min defaults to 30
    e = entry_with_gaps([10, 10, 10, 10], params)
    assert adapt_timeout(e, params) == 30


def test_adapt_timeout_ceiling():
    params = DetectorParams(gossip_interval=1, window=4, k=4.0, t_min=1, t_max=50, t_bootstrap=10)
    e = entry_with_gaps([100, 300, 100, 300], params)
    assert adapt_timeout(e, params) == 50


def test_adapt_timeout_empty_window_is_bootstrap():
    params = DetectorParams(gossip_interval=10)
    e = HeartbeatEntry(0, 0, 0, params)
    assert adapt_timeout(e, params) == params.t_bootstrap == 100


def test_adapt_timeout_partial_window_keeps_bootstrap_floor():
    # two lucky small gaps must not collapse the timeout while the
    # window is still filling
    params = DetectorParams(gossip_interval=10, window=16)
    e = entry_with_gaps([10, 10], params)
    assert adapt_timeout(e, params) == params.t_bootstrap
    # but a large computed value wins over the floor
    e2 = entry_with_gaps([200, 600], params)
    assert adapt_timeout(e2, params) > params.t_bootstrap


@given(gaps=st.lists(st.integers(min_value=0, max_value=500), min_size=6, max_size=6), k=st.floats(0.0, 8.0))
def test_adapt_timeout_matches_statistics_oracle(gaps, k):
    params = DetectorParams(gossip_interval=1, window=6, k=k, t_min=5, t_max=10_000, t_bootstrap=50)
    e = entry_with_gaps(gaps, params)
    expected = ceil(statistics.fmean(gaps) + k * statistics.pstdev(gaps))
    expected = max(5, min(expected, 10_000))
    assert adapt_timeout(e, params) == expected


def test_window_slides():
    params = DetectorParams(gossip_interval=1, window=2, k=0.0, t_min=1, t_max=1000)
    e = entry_with_gaps([100, 100, 10, 10], params)
    # only the last two gaps remain
    assert adapt_timeout(e, params) == 10


# --- merge ----------------------------------------------------------------------


def fresh_detector(peers=("p1", "p2")):
    topo = ClusterTopology(clusters={"c": ("me",) + tuple(peers)}, parent={"c": None})
    return Detector("me", topo, DetectorParams(), rng=random.Random(1))


def test_merge_advances_counter_and_records_gap():
    det = fresh_detector()
    det.merge(GossipDigest({"p1": (3, 0)}), now=7)
    e = det.table["p1"]
    assert e.counter == 3 and e.incarnation == 0 and e.last_bump == 7
    # the first advance crossed an incarnation boundary: no usable gap baseline
    assert list(e.gaps) == []
    det.merge(GossipDigest({"p1": (4, 0)}), now=12)
    assert list(e.gaps) == [5]
    det.merge(GossipDigest({"p1": (6, 0)}), now=20)
    assert list(e.gaps) == [5, 8]


def test_merge_never_regresses_counter():
    det = fresh_detector()
    det.merge(GossipDigest({"p1": (9, 0)}), now=5)
    det.merge(GossipDigest({"p1": (4, 0)}), now=9)
    assert det.table["p1"].counter == 9
    assert det.table["p1"].last_bump == 5


def test_merge_higher_incarnation_accepts_lower_counter():
    det = fresh_detector()
    det.merge(GossipDigest({"p1": (50, 0)}), now=5)
    det.merge(GossipDigest({"p1": (1, 3)}), now=9)
    e = det.table["p1"]
    assert (e.counter, e.incarnation) == (1, 3)
    assert list(e.gaps) == []  # history voided on restart


def test_merge_ignores_own_row():
    det = fresh_detector()
    det.local_tick(5)
    det.merge(GossipDigest({"me": (99, 9)}), now=5)
    own = det.table["me"]
    assert (own.counter, own.incarnation) == (1, 0)


def test_merge_inserts_unknown_node_without_gap():
    det = fresh_detector()
    det.merge(GossipDigest({"px": (2, 0)}), now=5)
    assert det.table["px"].counter == 2
    assert list(det.table["px"].gaps) == []


@settings(max_examples=50)
@given(
    updates=st.lists(
        st.tuples(st.sampled_from(["p1", "p2", "p3"]), st.integers(0, 30), st.integers(0, 3)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 1000),
)
def test_merge_order_independent_in_counter_space(updates, seed):
    """Any interleaving of the same digests converges to the same
    (incarnation, counter) per node: componentwise max with incarnation
    priority."""
    def final(order):
        det = fresh_detector(peers=("p1", "p2", "p3"))
        for i, (nid, counter, inc) in enumerate(order):
            det.merge(GossipDigest({nid: (counter, inc)}), now=i + 1)
        return {n: (e.incarnation, e.counter) for n, e in det.table.items() if n != "me"}

    shuffled = list(updates)
    random.Random(seed).shuffle(shuffled)
    expected = {}
    for nid, counter, inc in updates:
        cur = expected.get(nid, (-1, 0))
        expected[nid] = max(cur, (inc, counter))
    got = final(updates)
    got_shuffled = final(shuffled)
    for nid, pair in expected.items():
        assert got[nid] == pair
        assert got_shuffled[nid] == pair


def test_digest_carries_whole_table():
    det = fresh_detector()
    det.merge(GossipDigest({"px": (2, 0)}), now=5)
    (_, d), _ = det.local_tick(10)
    # table insertion order: own row, seeded peers, then rows learned later
    assert list(d.entries) == ["me", "p1", "p2", "px"]
    assert d.entries["me"] == (1, 0)
    assert d.entries["p1"] == (0, -1)
    assert d.entries["px"] == (2, 0)


# --- topology and election ------------------------------------------------------


def two_level_topology():
    return ClusterTopology(
        clusters={"top": ("a0", "a1"), "leaf": ("b0", "b1", "b2")},
        parent={"top": None, "leaf": "top"},
    )


def test_topology_validation():
    with pytest.raises(ValueError):
        ClusterTopology(clusters={"c": ("x",)}, parent={"c": "c"})  # self-parent cycle
    with pytest.raises(ValueError):
        ClusterTopology(clusters={"c": ("x",), "d": ("x",)}, parent={"c": None, "d": None})  # dup member + two roots
    with pytest.raises(ValueError):
        ClusterTopology(clusters={"c": ("x",)}, parent={"c": "nope"})
    with pytest.raises(ValueError):
        ClusterTopology(clusters={"c": ()}, parent={"c": None})


@pytest.mark.parametrize("interval", [0, -5])
def test_detector_params_reject_summary_interval_below_one(interval):
    # A node's first summary timer is drawn from [0, summary_interval).
    with pytest.raises(ValueError, match="summary_interval must be >= 1"):
        DetectorParams(summary_interval=interval)


def test_topology_accessors():
    topo = two_level_topology()
    assert topo.root == "top"
    assert topo.children("top") == ["leaf"]
    assert topo.parent == {"top": None, "leaf": "top"}
    assert topo.cluster_of["b2"] == "leaf"
    with pytest.raises(TypeError):  # derived, not a constructor argument
        ClusterTopology(clusters=topo.clusters, parent=topo.parent, cluster_of={})
    assert set(topo.nodes()) == {"a0", "a1", "b0", "b1", "b2"}


def test_elect_representative_min_live():
    det = Detector("b2", two_level_topology(), DetectorParams(), rng=random.Random(1))
    assert det.representative("leaf") == "b0"
    det.view["b0"].state = PeerState.SUSPECTED
    assert det.representative("leaf") == "b1"
    det.view["b1"].state = PeerState.REMOVED
    # the owner is always alive in its own view, so its cluster always has a representative
    assert det.representative("leaf") == "b2"


# --- detector state machine ------------------------------------------------------


def make_detector(**kw):
    topo = ClusterTopology(clusters={"c": ("me", "p1", "p2")}, parent={"c": None})
    params = DetectorParams(gossip_interval=10, window=4, k=4.0, t_min=30, t_cleanup=50, **kw)
    return Detector("me", topo, params, rng=random.Random(1)), params


def test_local_tick_bumps_and_targets_fanout():
    det, _ = make_detector()
    sends = det.local_tick(10)
    assert det.table["me"].counter == 1
    assert len(sends) == 2
    targets = {t for t, _ in sends}
    assert targets <= {"p1", "p2"} and len(targets) == 2


def test_singleton_cluster_gossips_nowhere():
    topo = ClusterTopology(clusters={"c": ("solo",)}, parent={"c": None})
    det = Detector("solo", topo, DetectorParams(), rng=random.Random(1))
    assert det.local_tick(10) == []


def test_cycle_sweep_visits_every_peer():
    topo = ClusterTopology(clusters={"c": tuple(["me"] + [f"p{i}" for i in range(7)])}, parent={"c": None})
    det = Detector("me", topo, DetectorParams(fanout=2), rng=random.Random(9))
    seen = set()
    for _ in range(4):  # ceil(7/2) = 4 draws per cycle
        seen.update(det._draw_peers())
    assert seen == {f"p{i}" for i in range(7)}


def test_suspect_refute_remove_lifecycle():
    det, params = make_detector()
    # p1 advances at t=10, then goes silent
    det.merge(GossipDigest({"p1": (1, 0)}), now=10)
    # timeout is bootstrap (window not full): 100
    assert det.evaluate(100) == []
    trs = det.evaluate(111)
    assert [(t.peer, t.kind) for t in trs if t.peer == "p1"] == [("p1", "suspect")]
    assert trs[0].gap == 101
    # a fresher counter refutes
    det.merge(GossipDigest({"p1": (2, 0)}), now=112)
    trs = det.evaluate(120)
    assert [(t.peer, t.kind) for t in trs if t.peer == "p1"] == [("p1", "refute")]


def test_remove_after_cleanup_window():
    det, params = make_detector()
    det.merge(GossipDigest({"p1": (1, 0)}), now=10)
    det.evaluate(111)  # suspect
    assert det.evaluate(161) == []  # t_cleanup=50 not yet exceeded
    trs = det.evaluate(162)
    assert [(t.peer, t.kind) for t in trs if t.peer == "p1"] == [("p1", "remove")]
    assert det.view["p1"].state is PeerState.REMOVED
    # stale counters at the same incarnation do not resurrect it
    det.merge(GossipDigest({"p1": (9, 0)}), now=170)
    assert all(t.peer != "p1" for t in det.evaluate(180))


def test_rejoin_needs_higher_incarnation():
    det, _ = make_detector()
    det.merge(GossipDigest({"p1": (1, 0)}), now=10)
    det.evaluate(111)
    det.evaluate(162)  # removed
    det.merge(GossipDigest({"p1": (0, 200)}), now=200)
    trs = det.evaluate(210)
    hits = [t for t in trs if t.peer == "p1"]
    assert len(hits) == 1 and hits[0].kind == "refute" and hits[0].rejoin
    assert det.view["p1"].state is PeerState.ALIVE


def test_removed_peers_not_gossip_targets():
    det, _ = make_detector()
    det.merge(GossipDigest({"p1": (1, 0)}), now=10)
    det.merge(GossipDigest({"p2": (1, 0)}), now=105)
    det.evaluate(111)  # p1 suspected
    assert [(t.peer, t.kind) for t in det.evaluate(162)] == [("p1", "remove")]
    for _ in range(6):
        assert det._draw_peers() == ["p2"]
    # a restarted p1 rejoins and is drawn again
    det.merge(GossipDigest({"p1": (0, 200), "p2": (2, 0)}), now=200)
    assert [(t.peer, t.kind, t.rejoin) for t in det.evaluate(210)] == [("p1", "refute", True)]
    assert "p1" in det._draw_peers()


def test_suspected_peers_still_gossip_targets():
    # a suspected node must keep receiving digests or it could never refute us
    det, _ = make_detector()
    det.view["p1"].state = PeerState.SUSPECTED
    seen = set()
    for _ in range(6):
        seen.update(det._draw_peers())
    assert "p1" in seen


class EagerDetector:
    """Reference for Detector.merge/evaluate: the suspicion state machine
    as specified, scanning every peer on every call with a timeout that
    adapt_timeout computes afresh each time."""

    def __init__(self, peers, params):
        self.params = params
        self.rows = {p: HeartbeatEntry(0, -1, 0, params) for p in peers}
        self.view = {p: ("alive", 0, (-1, -1)) for p in peers}

    def merge(self, entries, now):
        for nid, (counter, incarnation) in entries.items():
            row = self.rows.get(nid)  # None for the owner's own row
            if row is None:
                continue
            if incarnation > row.incarnation:
                row.counter, row.incarnation, row.last_bump = counter, incarnation, now
                row.gaps.clear()
            elif incarnation == row.incarnation and counter > row.counter:
                row.gaps.append(now - row.last_bump)
                row.counter, row.last_bump = counter, now

    def evaluate(self, now):
        out = []
        for peer, row in self.rows.items():
            state, since, snapshot = self.view[peer]
            gap = now - row.last_bump
            if state == "alive" and gap > adapt_timeout(row, self.params):
                self.view[peer] = ("suspected", now, (row.incarnation, row.counter))
                out.append((peer, "suspect", gap, False))
            elif state == "suspected" and (row.incarnation, row.counter) > snapshot:
                self.view[peer] = ("alive", since, snapshot)
                out.append((peer, "refute", 0, False))
            elif state == "suspected" and now - since > self.params.t_cleanup:
                self.view[peer] = ("removed", now, snapshot)
                out.append((peer, "remove", 0, False))
            elif state == "removed" and row.incarnation > snapshot[0]:
                self.view[peer] = ("alive", since, snapshot)
                out.append((peer, "refute", 0, True))
        return out


CLUSTER4 = ("me", "p1", "p2", "p3")
# (ticks since the previous step, what to do at the new time): digest
# entries to merge, None to evaluate once, or "sweep" to evaluate at
# every tick since the previous step, which lands on each deadline.
detector_steps = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.none()
        | st.just("sweep")
        | st.dictionaries(st.sampled_from(CLUSTER4), st.tuples(st.integers(0, 12), st.integers(0, 2))),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    steps=detector_steps,
    window=st.integers(1, 4),
    k=st.sampled_from([0.0, 1.5, 4.0]),
    t_min=st.integers(1, 8),
    t_bootstrap=st.integers(1, 12),
    t_cleanup=st.integers(1, 12),
)
@example(  # suspect, refute, remove, then rejoin after a restart
    steps=[(0, {"p1": (1, 0), "p2": (1, 0), "p3": (1, 0)}), (9, None), (1, {"p1": (2, 0), "p2": (2, 0), "p3": (2, 0)}),
           (1, None), (11, None), (12, None), (1, {"p2": (0, 1)}), (0, None)],
    window=2, k=0.0, t_min=3, t_bootstrap=8, t_cleanup=10,
)
@example(  # p1 restarts right after a scan, so it crosses its timeout one tick past now + lo
    steps=[(0, {"p1": (1, 0), "p2": (1, 0), "p3": (1, 0)}), (2, {"p1": (2, 0), "p2": (2, 0), "p3": (2, 0)}),
           (4, None), (0, {"p1": (0, 1)}), (4, "sweep")],
    window=1, k=0.0, t_min=8, t_bootstrap=3, t_cleanup=10,
)
def test_evaluate_matches_eager_reference(steps, window, k, t_min, t_bootstrap, t_cleanup):
    """The lazy timeouts, the deadline skip and the removed set change
    nothing: every evaluate gives the transitions and views of a full
    eager scan."""
    params = DetectorParams(gossip_interval=1, window=window, k=k, t_min=t_min, t_max=40,
                            t_bootstrap=t_bootstrap, t_cleanup=t_cleanup)
    topo = ClusterTopology(clusters={"c": CLUSTER4}, parent={"c": None})
    det = Detector("me", topo, params, rng=random.Random(0))
    ref = EagerDetector(CLUSTER4[1:], params)
    now = 0
    for dt, action in steps:
        if isinstance(action, dict):
            now += dt
            det.merge(GossipDigest(action), now)
            ref.merge(action, now)
            continue
        times = range(now + 1, now + dt + 1) if action == "sweep" else [now + dt]
        for now in times:
            got = [(t.peer, t.kind, t.gap, t.rejoin) for t in det.evaluate(now)]
            assert got == ref.evaluate(now)
            views = {p: (v.state.value, v.since, v.snapshot) for p, v in det.view.items()}
            assert views == ref.view
            assert det.removed == {p for p, (state, _, _) in ref.view.items() if state == "removed"}


# --- summaries --------------------------------------------------------------------


def hierarchy_detector(owner):
    topo = ClusterTopology(
        clusters={"top": ("a0", "a1"), "leaf": ("b0", "b1")},
        parent={"top": None, "leaf": "top"},
    )
    return Detector(owner, topo, DetectorParams(), rng=random.Random(3))


def test_only_representative_emits_summary():
    det = hierarchy_detector("a1")  # a0 alive in a1's view, so a0 is rep
    summary, sends = det.summarize_and_channel(40)
    assert summary is None and sends == []
    det.view["a0"].state = PeerState.SUSPECTED
    summary, sends = det.summarize_and_channel(60)
    assert summary is not None
    assert summary.rep == "a1" and summary.epoch == 60
    assert summary.suspected == ("a0",)
    # root cluster rep relays to the child cluster's presumed rep
    assert [dst for dst, _ in sends] == ["b0"]


def test_summary_channels_to_parent_rep():
    det = hierarchy_detector("b0")
    summary, sends = det.summarize_and_channel(40)
    assert summary is not None and summary.cluster == "leaf"
    assert [dst for dst, _ in sends] == ["a0"]
    batch = sends[0][1]
    assert batch.summaries == (summary,)


def test_apply_summaries_keeps_freshest():
    det = hierarchy_detector("a0")
    s1 = ClusterSummary("leaf", epoch=40, rep="b0", alive=("b0", "b1"), suspected=())
    s2 = ClusterSummary("leaf", epoch=60, rep="b0", alive=("b0",), suspected=("b1",))
    det.apply_summaries(SummaryBatch((s2,)))
    assert det.latest["leaf"] is s2
    det.apply_summaries(SummaryBatch((s1,)))  # stale
    assert det.latest["leaf"] is s2
    assert det.global_suspected() == {"b1"}


def test_rep_tiebreak_on_equal_epoch():
    det = hierarchy_detector("a0")
    s_old = ClusterSummary("leaf", epoch=40, rep="b0", alive=("b0",), suspected=())
    s_new = ClusterSummary("leaf", epoch=40, rep="b1", alive=("b1",), suspected=("b0",))
    det.apply_summaries(SummaryBatch((s_old,)))
    det.apply_summaries(SummaryBatch((s_new,)))
    assert det.latest["leaf"] is s_new


def test_tree_targets_parent_then_children():
    topo = ClusterTopology(
        clusters={"top": ("a0",), "mid": ("m0", "m1"), "x": ("x0",), "y": ("y0", "y1")},
        parent={"top": None, "mid": "top", "x": "mid", "y": "mid"},
    )
    det = Detector("m1", topo, DetectorParams(), rng=random.Random(1))
    assert det.tree_targets() == ["a0", "x0", "y0"]
    det.apply_summaries(SummaryBatch((ClusterSummary("y", 50, "y1", ("y1",), ("y0",)),)))
    assert det.tree_targets() == ["a0", "x0", "y1"]


def test_remote_rep_follows_latest_summary():
    det = hierarchy_detector("a0")
    assert det.representative("leaf") == "b0"  # default: lowest id
    det.apply_summaries(SummaryBatch((ClusterSummary("leaf", 50, "b1", ("b1",), ("b0",)),)))
    assert det.representative("leaf") == "b1"
    # a summary with no live member says nothing about who represents the cluster
    det.apply_summaries(SummaryBatch((ClusterSummary("leaf", 60, "b1", (), ("b0", "b1")),)))
    assert det.representative("leaf") == "b0"
