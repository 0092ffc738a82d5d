"""Gossip heartbeat failure detection and cluster hierarchy.

Every node keeps a heartbeat table for its cluster: per peer a counter,
an incarnation and the local time the counter last advanced, plus the
window of observed inter-advance gaps that feeds the adaptive timeout.
Detection is local to a cluster; clusters are organized in a static
tree and elected representatives exchange per-cluster summaries along
it, so the root representative ends up with a global liveness view
without any cross-cluster gossip.

State machine per observed peer: Alive -> Suspected (timeout exceeded),
Suspected -> Alive (counter advanced, refutation), Suspected -> Removed
(cleanup window expired). Removed is terminal until the peer comes back
with a higher incarnation, which is how a restarted node rejoins after
losing its state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

SimTime = int


@dataclass(frozen=True)
class DetectorParams:
    gossip_interval: int = 10
    fanout: int = 2
    window: int = 16
    k: float = 4.0
    t_min: int | None = None
    t_max: int | None = None
    t_bootstrap: int | None = None
    t_cleanup: int | None = None
    summary_interval: int = 20

    def __post_init__(self) -> None:
        gi = self.gossip_interval
        if gi < 1:
            raise ValueError("gossip_interval must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.summary_interval < 1:
            raise ValueError("summary_interval must be >= 1")
        if self.t_min is None:
            object.__setattr__(self, "t_min", 3 * gi)
        if self.t_max is None:
            object.__setattr__(self, "t_max", 100 * gi)
        if self.t_bootstrap is None:
            object.__setattr__(self, "t_bootstrap", 10 * gi)
        if self.t_cleanup is None:
            object.__setattr__(self, "t_cleanup", 20 * gi)
        if self.t_min > self.t_max:
            raise ValueError("t_min must not exceed t_max")


class HeartbeatEntry:
    """Table row for one peer.

    ``gaps`` holds the last ``window`` observed inter-advance gaps.
    ``timeout`` caches adapt_timeout for the current gap window; every
    change to the window sets it to ``None`` (stale), and the detector
    computes it again only when ``evaluate`` reads it.
    """

    __slots__ = ("counter", "incarnation", "last_bump", "gaps", "timeout")

    def __init__(self, counter: int, incarnation: int, last_bump: SimTime, params: DetectorParams):
        self.counter = counter
        self.incarnation = incarnation
        self.last_bump = last_bump
        self.gaps: deque[int] = deque(maxlen=params.window)
        self.timeout: int | None = None

    def reset(self, counter: int, incarnation: int, now: SimTime) -> None:
        """Fresh incarnation: the peer restarted, its history is void."""
        self.counter = counter
        self.incarnation = incarnation
        self.last_bump = now
        self.gaps.clear()
        self.timeout = None


def adapt_timeout(entry: HeartbeatEntry, params: DetectorParams) -> int:
    """Adaptive failure timeout for one table entry.

    mean + k * stddev over the observed gap window (population stddev,
    rounded up), clamped into [t_min, t_max]. The bootstrap grace
    period is a floor until the window has filled once: a handful of
    lucky early samples must not collapse the timeout below what the
    gap distribution's tail will later produce.

    The sums are taken over the gap window on each call; the detector
    calls this only for a peer whose silence has outlasted
    ``min(t_min, t_bootstrap)``, the least value it can return. The
    gaps are ints, so the sums are exact and the result does not depend
    on how often it is recomputed.
    """
    gaps = entry.gaps
    n = len(gaps)
    if n == 0:
        return params.t_bootstrap
    mean = sum(gaps) / n
    var = sum(g * g for g in gaps) / n - mean * mean
    if var < 0.0:  # float error on near-constant windows
        var = 0.0
    t = math.ceil(mean + params.k * math.sqrt(var))
    t = max(params.t_min, min(t, params.t_max))
    if n < params.window:
        return max(t, params.t_bootstrap)
    return t


@dataclass(frozen=True)
class GossipDigest:
    kind: ClassVar[str] = "gossip"
    entries: dict[str, tuple[int, int]]  # node -> (counter, incarnation)


# --- suspicion --------------------------------------------------------------


class PeerState(Enum):
    ALIVE = "alive"
    SUSPECTED = "suspected"
    REMOVED = "removed"


class PeerView:
    __slots__ = ("state", "since", "snapshot")

    def __init__(self) -> None:
        self.state = PeerState.ALIVE
        self.since: SimTime = 0
        # (incarnation, counter) at the moment of suspicion; any advance
        # past it is a refutation.
        self.snapshot: tuple[int, int] = (-1, -1)


@dataclass(frozen=True)
class Transition:
    peer: str
    kind: str  # suspect | refute | remove
    gap: int = 0
    rejoin: bool = False


# --- topology ---------------------------------------------------------------


@dataclass(frozen=True)
class ClusterTopology:
    """Static cluster tree. ``clusters`` maps cluster id to its member
    nodes; ``parent`` maps cluster id to its parent cluster (None for
    the root)."""

    clusters: dict[str, tuple[str, ...]]
    parent: dict[str, str | None]
    # Derived once by __post_init__: node -> its cluster, and the root.
    cluster_of: dict[str, str] = field(init=False)
    root: str = field(init=False)

    def __post_init__(self) -> None:
        roots = [cid for cid, p in self.parent.items() if p is None]
        if set(self.parent) != set(self.clusters):
            raise ValueError("parent map must cover exactly the declared clusters")
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root cluster, found {roots}")
        object.__setattr__(self, "root", roots[0])
        for cid, p in self.parent.items():
            if p is not None and p not in self.clusters:
                raise ValueError(f"cluster {cid!r} has unknown parent {p!r}")
        cluster_of: dict[str, str] = {}
        for cid, members in self.clusters.items():
            if not members:
                raise ValueError(f"cluster {cid!r} has no members")
            for m in members:
                if m in cluster_of:
                    raise ValueError(f"node {m!r} appears in two clusters")
                cluster_of[m] = cid
        object.__setattr__(self, "cluster_of", cluster_of)
        # reject cycles by walking each cluster to the root
        for cid in self.clusters:
            seen = set()
            cur: str | None = cid
            while cur is not None:
                if cur in seen:
                    raise ValueError(f"cluster parent cycle at {cur!r}")
                seen.add(cur)
                cur = self.parent[cur]

    def children(self, cid: str) -> list[str]:
        return [c for c, p in self.parent.items() if p == cid]

    def nodes(self) -> list[str]:
        out: list[str] = []
        for members in self.clusters.values():
            out.extend(members)
        return out


@dataclass(frozen=True)
class ClusterSummary:
    cluster: str
    epoch: int  # emission tick; strictly increasing per representative
    rep: str
    alive: tuple[str, ...]
    suspected: tuple[str, ...]


@dataclass(frozen=True)
class SummaryBatch:
    kind: ClassVar[str] = "summary_batch"
    summaries: tuple[ClusterSummary, ...]


# --- detector ---------------------------------------------------------------


class Detector:
    """Per-node failure detector state.

    Peer targets for gossip are drawn with a seeded shuffled-cycle
    sweep: each eligible peer is visited once per cycle, reshuffled
    every cycle. Marginally uniform, but the distance between repeat
    contacts is bounded, which keeps observed gap tails sane.
    """

    def __init__(
        self,
        owner: str,
        topology: ClusterTopology,
        params: DetectorParams,
        rng,
        now: SimTime = 0,
        incarnation: int = 0,
    ):
        self.owner = owner
        self.topology = topology
        self.params = params
        self.cluster = topology.cluster_of[owner]
        self.peers: tuple[str, ...] = tuple(m for m in topology.clusters[self.cluster] if m != owner)
        # The heartbeat table; its insertion order is the digest order.
        self.table: dict[str, HeartbeatEntry] = {owner: HeartbeatEntry(0, incarnation, now, params)}
        # Seeded rows for peers never heard from: incarnation -1 so any
        # real digest wins, bootstrap timeout so a node dead from the
        # start still gets detected.
        for p in self.peers:
            self.table[p] = HeartbeatEntry(0, -1, now, params)
        # The digest rows in table order; merge and local_tick write each change.
        self.wire: dict[str, tuple[int, int]] = {nid: (e.counter, e.incarnation) for nid, e in self.table.items()}
        self.view: dict[str, PeerView] = {p: PeerView() for p in self.peers}
        self._by_id = sorted(topology.clusters[self.cluster])  # the cluster's members in id order
        # Peers in state REMOVED, kept by evaluate for the gossip draw.
        self.removed: set[str] = set()
        # evaluate finds no transition at any time <= quiet_until; -1
        # while some peer is suspected or removed, or before any scan.
        self.quiet_until: SimTime = -1
        self.rng = rng
        self._cycle: list[str] = []
        self.latest: dict[str, ClusterSummary] = {}

    # -- gossip

    def _draw_peers(self) -> list[str]:
        removed = self.removed
        eligible = len(self.peers) - len(removed)
        if not eligible:
            return []
        need = min(self.params.fanout, eligible)
        out: list[str] = []
        attempts = 0
        limit = 4 * len(self.peers) + 8
        while len(out) < need and attempts < limit:
            attempts += 1
            if not self._cycle:
                self._cycle = self.rng.sample(self.peers, len(self.peers))
            cand = self._cycle.pop()
            if cand not in removed and cand not in out:
                out.append(cand)
        return out

    def local_tick(self, now: SimTime) -> list[tuple[str, GossipDigest]]:
        """Advance the own heartbeat and pick gossip targets.

        Returns (peer, digest) send instructions; empty for a cluster
        of one.
        """
        own = self.table[self.owner]
        own.counter += 1
        own.last_bump = now
        self.wire[self.owner] = (own.counter, own.incarnation)
        targets = self._draw_peers()
        if not targets:
            return []
        digest = GossipDigest(self.wire.copy())
        return [(t, digest) for t in targets]

    def merge(self, digest: GossipDigest, now: SimTime) -> None:
        """Fold an incoming digest into the table (componentwise max).

        Counters never regress. A strictly greater counter at the same
        incarnation bumps last_bump and records the observed gap; a higher
        incarnation replaces the row outright (restart), accepting a lower
        counter. The owner's own row is never writable from outside.
        """
        table = self.table
        wire = self.wire
        owner = self.owner
        for nid, row in digest.entries.items():
            counter, incarnation = row
            entry = table.get(nid)
            if entry is None:  # never the owner: its own row always exists
                table[nid] = HeartbeatEntry(counter, incarnation, now, self.params)
            elif incarnation == entry.incarnation:
                if counter <= entry.counter or nid == owner:
                    continue
                entry.counter = counter
                entry.gaps.append(now - entry.last_bump)
                entry.timeout = None
                entry.last_bump = now
            elif incarnation > entry.incarnation and nid != owner:
                entry.reset(counter, incarnation, now)
            else:
                continue
            wire[nid] = row

    # -- suspicion

    def evaluate(self, now: SimTime) -> list[Transition]:
        """Run the suspicion state machine over every peer entry.

        While every peer is alive, a scan also records ``quiet_until``,
        the earliest time at which an alive peer could cross its
        timeout, and calls up to that time return at once. That skip is
        exact: ``last_bump`` never decreases, every timeout is at least
        ``lo = min(t_min, t_bootstrap)``, and ``quiet_until`` is at most
        ``now + lo``, so a row that changes after the scan cannot reach
        its timeout before then.
        """
        if now <= self.quiet_until:
            return []
        out: list[Transition] = []
        params = self.params
        table = self.table
        view_of = self.view
        lo = min(params.t_min, params.t_bootstrap)
        quiet_until = now + lo
        for peer in self.peers:
            entry = table[peer]
            view = view_of[peer]
            state = view.state
            if state is PeerState.ALIVE:
                last_bump = entry.last_bump
                gap = now - last_bump
                if gap <= lo:
                    deadline = last_bump + lo
                else:
                    timeout = entry.timeout
                    if timeout is None:
                        timeout = entry.timeout = adapt_timeout(entry, params)
                    if gap > timeout:
                        view.state = PeerState.SUSPECTED
                        view.since = now
                        view.snapshot = (entry.incarnation, entry.counter)
                        out.append(Transition(peer, "suspect", gap=gap))
                        quiet_until = -1
                        continue
                    deadline = last_bump + timeout
                if deadline < quiet_until:
                    quiet_until = deadline
            elif state is PeerState.SUSPECTED:
                quiet_until = -1
                if (entry.incarnation, entry.counter) > view.snapshot:
                    view.state = PeerState.ALIVE
                    out.append(Transition(peer, "refute"))
                elif now - view.since > params.t_cleanup:
                    view.state = PeerState.REMOVED
                    view.since = now
                    self.removed.add(peer)
                    out.append(Transition(peer, "remove"))
            else:  # REMOVED: terminal until a higher incarnation shows up
                quiet_until = -1
                if entry.incarnation > view.snapshot[0]:
                    view.state = PeerState.ALIVE
                    self.removed.discard(peer)
                    out.append(Transition(peer, "refute", rejoin=True))
        self.quiet_until = quiet_until
        return out

    def alive_members(self) -> list[str]:
        return [m for m in self._by_id if m == self.owner or self.view[m].state is PeerState.ALIVE]

    def suspected_members(self) -> list[str]:
        return [m for m in self._by_id if m != self.owner and self.view[m].state is not PeerState.ALIVE]

    # -- hierarchy

    def representative(self, cluster: str) -> str:
        """The lowest live member id of ``cluster``; every node with the
        same view picks the same one. Liveness in our own cluster comes
        from our view (we are always alive in it); for a remote cluster
        it comes from that cluster's freshest summary we hold, and
        without one that names a live member every member counts."""
        if cluster == self.cluster:  # the first of alive_members(), found without building it
            view, owner = self.view, self.owner
            return next(m for m in self._by_id if m == owner or view[m].state is PeerState.ALIVE)
        summary = self.latest.get(cluster)
        if summary is not None and summary.alive:
            return min(summary.alive)
        return min(self.topology.clusters[cluster])

    def tree_targets(self) -> list[str]:
        """Where information leaves this cluster along the tree: the
        parent cluster's representative, then each child cluster's."""
        parent = self.topology.parent[self.cluster]
        clusters = self.topology.children(self.cluster)
        if parent is not None:
            clusters.insert(0, parent)
        out: list[str] = []
        for cid in clusters:
            rep = self.representative(cid)
            if rep != self.owner and rep not in out:
                out.append(rep)
        return out

    def summarize_and_channel(self, now: SimTime) -> tuple[ClusterSummary | None, list[tuple[str, SummaryBatch]]]:
        """Emit this cluster's summary if we are its representative.

        The batch relays every freshest summary we hold, so information
        moves one tree level per summary interval in both directions.
        Returns (own summary or None, sends).
        """
        if self.representative(self.cluster) != self.owner:
            return None, []
        summary = ClusterSummary(
            cluster=self.cluster,
            epoch=now,
            rep=self.owner,
            alive=tuple(self.alive_members()),
            suspected=tuple(self.suspected_members()),
        )
        self.latest[self.cluster] = summary
        batch = SummaryBatch(tuple(self.latest[c] for c in sorted(self.latest)))
        return summary, [(t, batch) for t in self.tree_targets()]

    def apply_summaries(self, batch: SummaryBatch) -> None:
        """Keep the freshest summary per origin cluster."""
        for s in batch.summaries:
            cur = self.latest.get(s.cluster)
            if cur is None or (s.epoch, s.rep) > (cur.epoch, cur.rep):
                self.latest[s.cluster] = s

    def global_suspected(self) -> set[str]:
        """Union of suspected nodes across all summaries we hold, plus
        our own local view."""
        out = set(self.suspected_members())
        for s in self.latest.values():
            out.update(s.suspected)
        return out
