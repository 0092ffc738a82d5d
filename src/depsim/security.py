"""Reference monitor for virtual-organization access control.

Every access request goes through mediate(); there is no other path to
an object. Decisions come from a hard-wired organization layer that
custom rules cannot override: owners get full access, members of the
object's organization may read (and execute service objects), writing
or administering someone else's object is denied, and non-members get
nothing. Ordered custom rules, first match wins, can further restrict
the member read/execute case. Everything else is denied by default,
and every decision, including malformed ones, lands in the append-only
audit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SimTime = int

OPERATIONS = ("read", "write", "execute", "admin")


class IndexOutOfRange(Exception):
    """Rule index outside the current rule list; policy left unchanged."""


@dataclass(frozen=True)
class Subject:
    subject_id: str
    vos: frozenset[str]


@dataclass(frozen=True)
class ObjectEntry:
    object_id: str
    owner: str
    vo: str
    kind: str = "data"  # data | service


@dataclass(frozen=True)
class Rule:
    """Custom policy rule. '*' wildcards subject, object or scope; scope
    otherwise names the organization whose objects the rule covers."""

    scope: str
    subject: str
    object_id: str
    ops: frozenset[str]
    effect: str  # allow | deny

    def __post_init__(self) -> None:
        if self.effect not in ("allow", "deny"):
            raise ValueError(f"rule effect must be allow or deny, got {self.effect!r}")
        bad = self.ops - set(OPERATIONS)
        if bad:
            raise ValueError(f"unknown operations {sorted(bad)}")

    def matches(self, subject_id: str, obj: ObjectEntry, op: str) -> bool:
        if self.scope != "*" and self.scope != obj.vo:
            return False
        if self.subject != "*" and self.subject != subject_id:
            return False
        if self.object_id != "*" and self.object_id != obj.object_id:
            return False
        return op in self.ops


@dataclass(frozen=True)
class Policy:
    version: int = 1
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class AuditRecord:
    at: SimTime
    subject: str
    object_id: str
    op: str
    decision: str  # allow | deny
    reason: str
    matched_rule: str  # builtin:<case>, rule:<index>, or default
    policy_version: int


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: str
    matched_rule: str


def decide(
    subjects: dict[str, Subject],
    objects: dict[str, ObjectEntry],
    policy: Policy,
    subject_id: str,
    object_id: str,
    op: str,
) -> Decision:
    """Pure decision function; mediate() wraps it with auditing."""
    if op not in OPERATIONS:
        raise ValueError(f"unknown operation {op!r}")
    subject = subjects.get(subject_id)
    if subject is None:
        return Decision(False, "unknown subject", "builtin:unknown-subject")
    obj = objects.get(object_id)
    if obj is None:
        return Decision(False, "unknown object", "builtin:unknown-object")
    if subject_id == obj.owner:
        return Decision(True, "owner", "builtin:owner")
    if obj.vo not in subject.vos:
        return Decision(False, "not a member of the object's organization", "builtin:non-member")
    if op in ("write", "admin"):
        return Decision(False, "members may not modify another member's object", "builtin:member-write-deny")
    # member read/execute: the one case custom rules may restrict
    for index, rule in enumerate(policy.rules):
        if rule.matches(subject_id, obj, op):
            if rule.effect == "allow":
                return Decision(True, "rule allow", f"rule:{index}")
            return Decision(False, "rule deny", f"rule:{index}")
    if op in ("read", "execute"):
        return Decision(True, "organization member read access", "builtin:member-read")
    return Decision(False, "no applicable rule", "default")


class ReferenceMonitor:
    """Holds the subject/object catalog, the versioned policy and the
    audit log."""

    def __init__(
        self,
        subjects: dict[str, Subject],
        objects: dict[str, ObjectEntry],
        rules: tuple[Rule, ...] = (),
    ):
        self.subjects = dict(subjects)
        self.objects = dict(objects)
        self.policy = Policy(version=1, rules=tuple(rules))
        self.audit_log: list[AuditRecord] = []

    def mediate(self, subject_id: str, object_id: str, op: str, now: SimTime) -> AuditRecord:
        decision = decide(self.subjects, self.objects, self.policy, subject_id, object_id, op)
        record = AuditRecord(
            at=now,
            subject=subject_id,
            object_id=object_id,
            op=op,
            decision="allow" if decision.allowed else "deny",
            reason=decision.reason,
            matched_rule=decision.matched_rule,
            policy_version=self.policy.version,
        )
        self.audit_log.append(record)
        return record

    def insert_rule(self, index: int, rule: Rule) -> int:
        rules = self.policy.rules
        if not 0 <= index <= len(rules):
            raise IndexOutOfRange(f"insert index {index} out of range 0..{len(rules)}")
        new_rules = rules[:index] + (rule,) + rules[index:]
        self.policy = Policy(version=self.policy.version + 1, rules=new_rules)
        return self.policy.version

    def remove_rule(self, index: int) -> int:
        rules = self.policy.rules
        if not 0 <= index < len(rules):
            raise IndexOutOfRange(f"remove index {index} out of range 0..{len(rules) - 1 if rules else 0}")
        self.policy = Policy(version=self.policy.version + 1, rules=rules[:index] + rules[index + 1 :])
        return self.policy.version
