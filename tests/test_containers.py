"""Container specs, majority voting, and the per-node registry."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depsim.containers import (
    Alternative,
    ContainerRegistry,
    ContainerSpec,
    JobSpec,
    Replica,
    ServiceSpec,
    Strategy,
    UnknownContainer,
    UnknownReplica,
    vote,
)


# --- vote -----------------------------------------------------------------------


def test_vote_simple_majority():
    assert vote(["a", "a", "b"], n=3) == "a"
    assert vote(["a", "b", "c"], n=3) is None
    assert vote([], n=3) is None


def test_vote_counts_against_configured_n_not_responders():
    # two matching responses out of n=5 are not a majority even if they
    # are the only responses received
    assert vote(["a", "a"], n=5) is None
    assert vote(["a", "a", "a"], n=5) == "a"


def test_vote_exhaustive_n3():
    # over a 2-symbol alphabet every outcome is forced by the count of 'a'
    for resp in itertools.product("ab", repeat=3):
        winner = vote(resp, n=3)
        a = resp.count("a")
        expected = "a" if a >= 2 else "b"
        assert winner == expected


def test_vote_exhaustive_n5_with_silence():
    # "-" models a silent replica: its response never arrives
    for resp in itertools.product("ab-", repeat=5):
        received = [r for r in resp if r != "-"]
        winner = vote(received, n=5)
        a, b = received.count("a"), received.count("b")
        if a >= 3:
            expected = "a"
        elif b >= 3:
            expected = "b"
        else:
            expected = None
        assert winner == expected, resp


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.lists(st.sampled_from("abc"), max_size=n), st.just(n))
    )
)
def test_vote_matches_counting_oracle(case):
    # each of the n configured replicas responds at most once
    responses, n = case
    winner = vote(responses, n)
    tallies = {v: responses.count(v) for v in set(responses)}
    majority = [v for v, c in tallies.items() if 2 * c > n]
    assert len(majority) <= 1
    assert winner == (majority[0] if majority else None)


@given(st.lists(st.sampled_from("ab"), min_size=7, max_size=7))
def test_vote_n7_tolerates_three_faults(responses):
    # with n=7, any outcome where >=4 replicas say "a" must elect "a"
    if responses.count("a") >= 4:
        assert vote(responses, n=7) == "a"


# --- specs ----------------------------------------------------------------------


def test_service_spec_lookup_chain():
    s = ServiceSpec("s1", "kv", table={"get x": "1"}, default="?")
    assert s.respond("get x") == "1"
    assert s.respond("get y") == "?"
    echo = ServiceSpec("s2", "kv")
    assert echo.respond("ping") == "ping"


def test_container_spec_validation():
    r = (Replica("h1", "s1"),)
    with pytest.raises(ValueError):
        ContainerSpec("c", Strategy.FAILOVER, timeout=5, replicas=())
    with pytest.raises(ValueError):
        ContainerSpec("c", Strategy.FAILOVER, timeout=0, replicas=r)
    with pytest.raises(ValueError):
        ContainerSpec("c", Strategy.ACTIVE, timeout=5, replicas=(Replica("h1", "s1"), Replica("h2", "s1")))
    # odd active and any failover count are fine
    ContainerSpec("c", Strategy.ACTIVE, timeout=5, replicas=(Replica("h1", "s1"),) )
    ContainerSpec("c", Strategy.FAILOVER, timeout=5, replicas=r * 1)


# --- registry -------------------------------------------------------------------


def build_registry():
    services = {
        "s1": ServiceSpec("s1", "kv", table={"q": "v1"}),
        "s2": ServiceSpec("s2", "kv", table={"q": "v2"}),
    }
    containers = [
        ContainerSpec(
            "store",
            Strategy.FAILOVER,
            timeout=8,
            replicas=(Replica("h1", "s1"), Replica("h2", "s2")),
        )
    ]
    alts = [Alternative("store", "h3", "s1"), Alternative("store", "h4", "s2")]
    return ContainerRegistry(services, containers, alts, jobs=[JobSpec("j1", checkpoint="ck1")])


def test_registry_lookup_and_unknowns():
    reg = build_registry()
    assert reg.container("store").spec.timeout == 8
    with pytest.raises(UnknownContainer):
        reg.container("nope")
    with pytest.raises(UnknownContainer):
        ContainerRegistry({}, [], alternatives=[Alternative("ghost", "h", "s")])


def test_degraded_marking_and_clearing():
    reg = build_registry()
    assert reg.mark_degraded("store", "h1") is True
    assert reg.mark_degraded("store", "h1") is False  # already degraded
    with pytest.raises(UnknownReplica):
        reg.mark_degraded("store", "h9")
    assert reg.container("store").degraded == {"h1"}
    reg.clear_degraded("h1")
    assert reg.container("store").degraded == set()
    reg.clear_degraded("h1")  # already clear: nothing changes
    assert reg.container("store").degraded == set()


def test_alternative_consumption_in_order():
    reg = build_registry()
    a1 = reg.available_alternative("store")
    assert a1 == Alternative("store", "h3", "s1")
    reg.consume_alternative(a1)
    a2 = reg.available_alternative("store")
    assert a2 == Alternative("store", "h4", "s2")
    reg.consume_alternative(a2)
    assert reg.available_alternative("store") is None
    assert reg.available_alternative("other") is None


def test_add_replica_dedups():
    reg = build_registry()
    state = reg.container("store")
    state.add_replica(Replica("h3", "s1"))
    assert [r.host for r in state.replicas] == ["h1", "h2", "h3"]
    state.add_replica(Replica("h3", "s1"))
    assert [r.host for r in state.replicas] == ["h1", "h2", "h3"]


def test_registry_copies_are_independent():
    # two nodes constructing from the same scenario baseline must not
    # share mutable state
    reg_a = build_registry()
    reg_b = build_registry()
    reg_a.mark_degraded("store", "h1")
    reg_a.container("store").add_replica(Replica("h9", "s1"))
    assert reg_b.container("store").degraded == set()
    assert len(reg_b.container("store").replicas) == 2


def test_jobs_tracked():
    reg = build_registry()
    assert reg.jobs["j1"].status == "running"
    assert reg.jobs["j1"].spec.checkpoint == "ck1"
