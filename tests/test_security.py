"""Reference monitor: decision order, custom rules, policy versioning,
and the audit trail. The oracle below re-derives every decision from
the stated precedence independently of the implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depsim.security import (
    AuditRecord,
    IndexOutOfRange,
    ObjectEntry,
    Policy,
    ReferenceMonitor,
    Rule,
    Subject,
    decide,
)

SUBJECTS = {
    "alice": Subject("alice", frozenset({"physics", "astro"})),
    "bob": Subject("bob", frozenset({"physics"})),
    "carol": Subject("carol", frozenset({"astro"})),
    "mallory": Subject("mallory", frozenset()),
}

OBJECTS = {
    "dataset": ObjectEntry("dataset", owner="alice", vo="physics", kind="data"),
    "solver": ObjectEntry("solver", owner="bob", vo="physics", kind="service"),
    "scope": ObjectEntry("scope", owner="carol", vo="astro", kind="data"),
}


def oracle(subject_id, object_id, op, rules):
    """Independent restatement of the precedence ladder:
    owner > membership gate > member write/admin deny > first matching
    custom rule > member read/execute allow > deny."""
    subject = SUBJECTS.get(subject_id)
    if subject is None:
        return False
    obj = OBJECTS.get(object_id)
    if obj is None:
        return False
    if subject_id == obj.owner:
        return True
    if obj.vo not in subject.vos:
        return False
    if op in ("write", "admin"):
        return False
    for rule in rules:
        scope_ok = rule.scope in ("*", obj.vo)
        subj_ok = rule.subject in ("*", subject_id)
        obj_ok = rule.object_id in ("*", obj.object_id)
        if scope_ok and subj_ok and obj_ok and op in rule.ops:
            return rule.effect == "allow"
    return True  # member read/execute


# --- named cases ------------------------------------------------------------------


def test_owner_allowed_even_against_deny_rule():
    deny_all = Rule("*", "*", "*", frozenset({"read", "write", "execute", "admin"}), "deny")
    d = decide(SUBJECTS, OBJECTS, Policy(rules=(deny_all,)), "alice", "dataset", "admin")
    assert d.allowed and d.matched_rule == "builtin:owner"


def test_non_member_denied_even_against_allow_rule():
    allow_all = Rule("*", "*", "*", frozenset({"read"}), "allow")
    d = decide(SUBJECTS, OBJECTS, Policy(rules=(allow_all,)), "carol", "dataset", "read")
    assert not d.allowed and d.matched_rule == "builtin:non-member"
    d2 = decide(SUBJECTS, OBJECTS, Policy(rules=(allow_all,)), "mallory", "dataset", "read")
    assert not d2.allowed


def test_member_cannot_write_others_objects():
    d = decide(SUBJECTS, OBJECTS, Policy(), "bob", "dataset", "write")
    assert not d.allowed and d.matched_rule == "builtin:member-write-deny"
    d2 = decide(SUBJECTS, OBJECTS, Policy(), "bob", "dataset", "admin")
    assert not d2.allowed


def test_member_read_default_allow():
    d = decide(SUBJECTS, OBJECTS, Policy(), "bob", "dataset", "read")
    assert d.allowed and d.matched_rule == "builtin:member-read"
    d2 = decide(SUBJECTS, OBJECTS, Policy(), "alice", "solver", "execute")
    assert d2.allowed


def test_custom_rules_first_match_wins():
    rules = (
        Rule("physics", "bob", "dataset", frozenset({"read"}), "deny"),
        Rule("physics", "*", "*", frozenset({"read"}), "allow"),
    )
    d = decide(SUBJECTS, OBJECTS, Policy(rules=rules), "bob", "dataset", "read")
    assert not d.allowed and d.matched_rule == "rule:0"
    # reversed order flips the outcome
    d2 = decide(SUBJECTS, OBJECTS, Policy(rules=rules[::-1]), "bob", "dataset", "read")
    assert d2.allowed and d2.matched_rule == "rule:0"


def test_rule_scope_must_match_objects_vo():
    rule = Rule("astro", "*", "*", frozenset({"read"}), "deny")
    d = decide(SUBJECTS, OBJECTS, Policy(rules=(rule,)), "bob", "dataset", "read")
    assert d.allowed  # dataset is a physics object; astro-scoped rule is inert


def test_unknown_subject_object_and_op():
    d = decide(SUBJECTS, OBJECTS, Policy(), "eve", "dataset", "read")
    assert not d.allowed and d.matched_rule == "builtin:unknown-subject"
    d2 = decide(SUBJECTS, OBJECTS, Policy(), "alice", "ghost", "read")
    assert not d2.allowed and d2.matched_rule == "builtin:unknown-object"
    with pytest.raises(ValueError):
        decide(SUBJECTS, OBJECTS, Policy(), "alice", "dataset", "delete")


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("*", "*", "*", frozenset({"read"}), "maybe")
    with pytest.raises(ValueError):
        Rule("*", "*", "*", frozenset({"chmod"}), "deny")


# --- randomized equivalence against the oracle --------------------------------------


rule_strategy = st.builds(
    Rule,
    scope=st.sampled_from(["*", "physics", "astro", "other"]),
    subject=st.sampled_from(["*", "alice", "bob", "carol", "mallory"]),
    object_id=st.sampled_from(["*", "dataset", "solver", "scope"]),
    ops=st.frozensets(st.sampled_from(["read", "write", "execute", "admin"]), min_size=1),
    effect=st.sampled_from(["allow", "deny"]),
)


@settings(max_examples=300)
@given(
    subject=st.sampled_from(["alice", "bob", "carol", "mallory", "eve"]),
    object_id=st.sampled_from(["dataset", "solver", "scope", "ghost"]),
    op=st.sampled_from(["read", "write", "execute", "admin"]),
    rules=st.lists(rule_strategy, max_size=4),
)
def test_decide_matches_oracle(subject, object_id, op, rules):
    d = decide(SUBJECTS, OBJECTS, Policy(rules=tuple(rules)), subject, object_id, op)
    assert d.allowed == oracle(subject, object_id, op, rules)


# --- monitor: auditing and policy mutation --------------------------------------------


def make_monitor(rules=()):
    return ReferenceMonitor(SUBJECTS, OBJECTS, rules=tuple(rules))


def test_every_mediation_is_audited():
    mon = make_monitor()
    reqs = [("bob", "dataset", "read"), ("bob", "dataset", "write"), ("eve", "dataset", "read")]
    for i, (s, o, op) in enumerate(reqs):
        rec = mon.mediate(s, o, op, now=i)
        assert isinstance(rec, AuditRecord)
    assert len(mon.audit_log) == len(reqs)
    assert [r.decision for r in mon.audit_log] == ["allow", "deny", "deny"]
    assert all(r.policy_version == 1 for r in mon.audit_log)


def test_policy_versions_and_rule_indexing():
    mon = make_monitor()
    r1 = Rule("*", "bob", "*", frozenset({"read"}), "deny")
    r2 = Rule("*", "*", "*", frozenset({"execute"}), "deny")
    assert mon.insert_rule(0, r1) == 2
    assert mon.insert_rule(0, r2) == 3
    assert mon.policy.rules == (r2, r1)
    assert mon.remove_rule(1) == 4
    assert mon.policy.rules == (r2,)
    with pytest.raises(IndexOutOfRange):
        mon.insert_rule(5, r1)
    with pytest.raises(IndexOutOfRange):
        mon.remove_rule(1)
    with pytest.raises(IndexOutOfRange):
        mon.remove_rule(-1)
    assert mon.policy.version == 4  # failed mutations leave the version alone


def test_policy_objects_are_immutable_snapshots():
    mon = make_monitor()
    before = mon.policy
    mon.insert_rule(0, Rule("*", "*", "*", frozenset({"read"}), "deny"))
    assert before.rules == () and before.version == 1
    assert mon.policy.version == 2


def test_mediation_reflects_policy_changes():
    mon = make_monitor()
    assert mon.mediate("bob", "dataset", "read", now=1).decision == "allow"
    mon.insert_rule(0, Rule("physics", "bob", "dataset", frozenset({"read"}), "deny"))
    rec = mon.mediate("bob", "dataset", "read", now=2)
    assert rec.decision == "deny" and rec.policy_version == 2
    mon.remove_rule(0)
    assert mon.mediate("bob", "dataset", "read", now=3).decision == "allow"


def test_audit_log_records_every_mediation():
    mon = make_monitor()
    records = [
        mon.mediate("bob", "dataset", "read", now=1),
        mon.mediate("bob", "dataset", "write", now=5),
        mon.mediate("alice", "dataset", "read", now=9),
    ]
    assert mon.audit_log == records
    assert [(r.at, r.subject, r.object_id, r.op) for r in mon.audit_log] == [
        (1, "bob", "dataset", "read"),
        (5, "bob", "dataset", "write"),
        (9, "alice", "dataset", "read"),
    ]
    assert [r.decision for r in mon.audit_log] == ["allow", "deny", "allow"]
