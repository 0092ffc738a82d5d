"""Metric analysis: pattern matching, forecasting, and learning.

Monitoring samples stream into bounded per-(source, metric) windows.
A pattern library is checked against the windows to produce diagnoses;
a simple moving average forecasts a metric, which the runtime checks
against a bound; and after a confirmed fault the engine can learn a
new threshold pattern from the window that preceded it, so the same
build-up is flagged before the fault next time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Union

SimTime = int

COMPARATORS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class InsufficientData(Exception):
    """Forecast asked for more history than the window holds."""


class NoSignal(Exception):
    """No metric shifted enough before the fault to learn from."""


@dataclass(frozen=True)
class Threshold:
    metric: str
    cmp: str
    bound: float
    min_consecutive: int = 1

    def __post_init__(self) -> None:
        if self.cmp not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.cmp!r}")
        if self.min_consecutive < 1:
            raise ValueError("min_consecutive must be >= 1")


@dataclass(frozen=True)
class Trend:
    """Least-squares slope over the last k samples, compared to a bound."""

    metric: str
    k: int
    cmp: str
    slope_bound: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("trend window must be >= 2")
        if self.cmp not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.cmp!r}")


@dataclass(frozen=True)
class Sequence:
    """Ordered sub-predicates that must all fire, in order, within
    ``span`` ticks of each other."""

    steps: tuple[Union[Threshold, Trend], ...]
    span: int

    def __post_init__(self) -> None:
        if len(self.steps) < 2:
            raise ValueError("sequence needs at least two steps")
        if self.span < 1:
            raise ValueError("span must be >= 1")


Predicate = Union[Threshold, Trend, Sequence]


@dataclass(frozen=True)
class Pattern:
    pattern_id: str
    fault_class: str
    predicate: Predicate
    confidence: float = 0.5
    origin: str = "predefined"  # predefined | learned


@dataclass(frozen=True)
class Diagnosis:
    subject: str
    fault_class: str
    confidence: float
    evidence: tuple[tuple[str, tuple[tuple[int, float], ...]], ...]  # (pattern_id, sample excerpt)


# --- predicate evaluation (pure) ---------------------------------------------


def _slope(samples: tuple[tuple[int, float], ...]) -> float:
    """Least-squares slope, with the exact sums (``math.fsum``) of
    ``statistics.linear_regression``: a symmetric window such as
    [0, 0, 43, 0, 0] has slope exactly 0.0."""
    n = len(samples)
    mean_t = math.fsum(s[0] for s in samples) / n
    mean_v = math.fsum(s[1] for s in samples) / n
    num = math.fsum((s[0] - mean_t) * (s[1] - mean_v) for s in samples)
    den = math.fsum((s[0] - mean_t) * (s[0] - mean_t) for s in samples)
    if den == 0.0:
        return 0.0
    return num / den


def _hits(samples: tuple[tuple[int, float], ...], step: Union[Threshold, Trend]) -> Iterator[int]:
    """Yield each index i at which the step holds over ``samples[:i+1]``:
    the last min_consecutive samples all satisfy the comparison, or the
    slope of the last k samples does. Older history does not matter."""
    op = COMPARATORS[step.cmp]
    if isinstance(step, Threshold):
        bound, need, run = step.bound, step.min_consecutive, 0
        for i, (_, value) in enumerate(samples):
            run = run + 1 if op(value, bound) else 0
            if run >= need:
                yield i
    else:
        k = step.k
        for i in range(k - 1, len(samples)):
            if op(_slope(samples[i - k + 1 : i + 1]), step.slope_bound):
                yield i


# A window as the engine keeps it, or as compare is given it.
Window = Union[deque[tuple[int, float]], tuple[tuple[int, float], ...]]


def _width(step: Union[Threshold, Trend]) -> int:
    """How many samples, the newest included, decide the step."""
    return step.min_consecutive if isinstance(step, Threshold) else step.k


def _tail(samples: Window, m: int) -> tuple[tuple[int, float], ...]:
    """The last m samples of a tuple or deque, oldest first."""
    return tuple(islice(reversed(samples), m))[::-1]


class _HitRecord:
    """The samples of one window at which one step holds.

    A window's samples are numbered in the order they were appended, so
    the newest has number ``total - 1``. ``hits`` holds (number, time)
    of each hit, oldest first; ``judged`` is how many samples have been
    judged. Whether a step holds at a sample depends only on that sample
    and the ``w - 1`` before it, so a verdict stands until one of those
    predecessors leaves the window: the window's own prefix scan then no
    longer counts the sample, and neither does the record.
    """

    __slots__ = ("hits", "judged")

    def __init__(self) -> None:
        self.hits: deque[tuple[int, int]] = deque()
        self.judged = 0

    def update(self, samples: Window, total: int, step: Union[Threshold, Trend]) -> deque[tuple[int, int]]:
        """Judge the samples appended since the last update and return
        the hits. A new record judges the whole window."""
        hits = self.hits
        new = total - self.judged
        if new:
            self.judged = total
            w = _width(step)
            n = len(samples)
            fresh = min(new, n)
            floor = total - n + w - 1
            while hits and hits[0][0] < floor:
                hits.popleft()
            # The fresh samples, after the w - 1 that decide the first.
            tail = _tail(samples, fresh + w - 1)
            first, skip = total - len(tail), len(tail) - fresh
            for i in _hits(tail, step):
                if i >= skip:
                    hits.append((first + i, tail[i][0]))
        return hits


_hit_time = itemgetter(1)


class _Matcher:
    """Matches a pattern library against windows that grow at the right.

    ``by_source`` maps each source to its windows by metric, in the
    order the windows were added; ``totals`` counts the samples ever
    appended to each (source, metric) window; ``records`` keeps one
    ``_HitRecord`` per (source, step).
    """

    __slots__ = ("by_source", "totals", "records")

    def __init__(self) -> None:
        self.by_source: dict[str, dict[str, Window]] = {}
        self.totals: dict[tuple[str, str], int] = {}
        self.records: dict[tuple[str, Union[Threshold, Trend]], _HitRecord] = {}

    def add_window(self, key: tuple[str, str], samples: Window) -> None:
        source, metric = key
        self.by_source.setdefault(source, {})[metric] = samples
        self.totals[key] = len(samples)

    def _step_hits(self, source: str, samples: Window, step: Union[Threshold, Trend]) -> deque[tuple[int, int]]:
        record = self.records.get((source, step))
        if record is None:
            record = self.records[(source, step)] = _HitRecord()
        return record.update(samples, self.totals[(source, step.metric)], step)

    def match(self, library: Iterable[Pattern]) -> list[Diagnosis]:
        """A threshold or trend matches when it holds at the newest
        sample. A sequence chains, step by step, the earliest hit
        strictly after the previous link, and matches when every step
        has one and the chain fits in ``span`` ticks."""
        grouped: dict[tuple[str, str], dict] = {}
        for pattern in library:
            pred = pattern.predicate
            steps = pred.steps if isinstance(pred, Sequence) else None
            # The evidence is the samples a step read, or the last four of
            # a sequence's last metric.
            if steps is not None:
                first_metric, last_metric, excerpt = steps[0].metric, steps[-1].metric, 4
            else:
                first_metric = last_metric = pred.metric
                excerpt = _width(pred)
            for source, metrics in self.by_source.items():
                samples = metrics.get(first_metric)
                if samples is None:
                    continue
                if steps is not None:
                    chain: list[int] = []
                    for step in steps:
                        samples = metrics.get(step.metric)
                        if samples is None:
                            break
                        hits = self._step_hits(source, samples, step)
                        i = bisect_right(hits, chain[-1], key=_hit_time) if chain else 0
                        if i == len(hits):
                            break
                        chain.append(hits[i][1])
                    hit = len(chain) == len(steps) and chain[-1] - chain[0] <= pred.span
                else:
                    hits = self._step_hits(source, samples, pred)
                    hit = bool(hits) and hits[-1][0] == self.totals[(source, pred.metric)] - 1
                if not hit:
                    continue
                key = (source, pattern.fault_class)
                slot = grouped.setdefault(key, {"confidence": 0.0, "evidence": []})
                slot["confidence"] = max(slot["confidence"], pattern.confidence)
                slot["evidence"].append((pattern.pattern_id, _tail(metrics[last_metric], excerpt)))

        return [
            Diagnosis(subject=source, fault_class=fc, confidence=slot["confidence"], evidence=tuple(slot["evidence"]))
            for (source, fc), slot in grouped.items()
        ]


def compare(
    windows: dict[tuple[str, str], tuple[tuple[int, float], ...]],
    library: Iterable[Pattern],
) -> list[Diagnosis]:
    """Match every pattern against every window.

    ``windows`` maps (source, metric) to samples ordered by time. At
    most one diagnosis per (subject, fault_class): confidence is the max
    over matching patterns, evidence collects each matching pattern with
    a short excerpt of the samples it matched on. This is the matcher
    ``AnalysisEngine.poll`` keeps between polls, run on fresh windows.
    """
    matcher = _Matcher()
    for key, samples in windows.items():
        matcher.add_window(key, samples)
    return matcher.match(library)


def forecast_ma(samples: tuple[tuple[int, float], ...], k: int) -> float:
    """Moving-average forecast: the mean of the last k values."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(samples) < k:
        raise InsufficientData(f"need {k} samples, have {len(samples)}")
    return sum(v for _, v in samples[-k:]) / k


# --- engine -------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisParams:
    capacity: int = 128
    lookback: int = 50
    compare_interval: int = 10

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.compare_interval < 1:
            raise ValueError("compare_interval must be >= 1")


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


class AnalysisEngine:
    """Stateful wrapper around the pure matching functions.

    Holds the windows, the pattern library and the edge-trigger state:
    a (subject, fault_class) pair produces a new diagnosis only when it
    starts matching, not on every poll while the condition persists.
    """

    def __init__(self, params: AnalysisParams, library: Iterable[Pattern] = ()):
        self.params = params
        self.windows: dict[tuple[str, str], deque[tuple[int, float]]] = {}
        self._last_at: dict[str, int] = {}
        self.library: list[Pattern] = list(library)
        self._learned_keys: set[tuple[str, float, str]] = set()
        self._active: set[tuple[str, str]] = set()
        self._learn_seq = 0
        self._matcher = _Matcher()
        # A window or the library changed since the last poll.
        self._changed = True

    def ingest(self, source: str, metric: str, value: float, at: SimTime) -> bool:
        """Append a sample. Samples older than the newest already seen
        from the same source are dropped (returns False)."""
        last = self._last_at.get(source)
        if last is not None and at < last:
            return False
        self._last_at[source] = at
        key = (source, metric)
        window = self.windows.get(key)
        if window is None:
            window = deque(maxlen=self.params.capacity)
            self.windows[key] = window
            self._matcher.add_window(key, window)
        window.append((at, value))
        self._matcher.totals[key] += 1
        self._changed = True
        return True

    def poll(self) -> list[Diagnosis]:
        """Match the library against the windows, as compare would, and
        return only newly matching diagnoses.

        The matcher keeps its hit records between polls, so a poll
        judges only the samples that arrived since the last one. A
        match reads only the windows and the library, so while neither
        changed it would match exactly what is already active, and
        nothing is fresh.
        """
        if not self._changed:
            return []
        self._changed = False
        current = self._matcher.match(self.library)
        fresh = [d for d in current if (d.subject, d.fault_class) not in self._active]
        self._active = {(d.subject, d.fault_class) for d in current}
        return fresh

    def add_pattern(self, pattern: Pattern) -> bool:
        """Add to the library; learned duplicates (same metric, bound to
        3 decimals, fault class) are ignored. Returns True if added."""
        if pattern.origin == "learned" and isinstance(pattern.predicate, Threshold):
            key = (pattern.predicate.metric, round(pattern.predicate.bound, 3), pattern.fault_class)
            if key in self._learned_keys:
                return False
            self._learned_keys.add(key)
        self.library.append(pattern)
        self._changed = True
        return True

    def learn(self, subject: str, fault_class: str, fault_time: SimTime) -> Pattern:
        """Learn a threshold pattern from the window preceding a fault.

        Splits each of the subject's metrics at fault_time - lookback:
        older samples are the baseline, newer ones (before the fault)
        the pre-window. The metric with the largest upward standardized
        mean shift wins; its bound is baseline mean + 2 stddev. Raises
        NoSignal when nothing shifted by more than one standardized
        unit.
        """
        cut = fault_time - self.params.lookback
        best: tuple[float, str, float, float] | None = None  # (shift, metric, mean, std)
        for (source, metric), window in self.windows.items():
            if source != subject:
                continue
            baseline = [v for at, v in window if at < cut]
            pre = [v for at, v in window if cut <= at < fault_time]
            if len(baseline) < 2 or not pre:
                continue
            base_mean, base_std = _mean_std(baseline)
            pre_mean = sum(pre) / len(pre)
            diff = pre_mean - base_mean
            if base_std > 0.0:
                shift = diff / base_std
            else:
                shift = math.inf if diff > 0.0 else 0.0
            if shift > 1.0 and (best is None or shift > best[0]):
                best = (shift, metric, base_mean, base_std)
        if best is None:
            raise NoSignal(f"no metric of {subject!r} shifted before t={fault_time}")
        _, metric, base_mean, base_std = best
        self._learn_seq += 1
        pattern = Pattern(
            pattern_id=f"learned-{subject}-{metric}-{self._learn_seq}",
            fault_class=fault_class,
            predicate=Threshold(metric=metric, cmp=">", bound=base_mean + 2.0 * base_std, min_consecutive=2),
            confidence=0.5,
            origin="learned",
        )
        if not self.add_pattern(pattern):
            raise NoSignal(f"pattern for {subject!r}/{metric} already learned")
        return pattern
