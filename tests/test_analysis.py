"""Pattern matching, moving-average forecasts, and threshold learning."""

import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.analysis import (
    COMPARATORS,
    AnalysisEngine,
    AnalysisParams,
    Diagnosis,
    InsufficientData,
    NoSignal,
    Pattern,
    Sequence,
    Threshold,
    Trend,
    _slope,
    compare,
    forecast_ma,
)
from depsim.scenario import ForecastSpec


def series(values, start=0, step=1):
    return tuple((start + i * step, float(v)) for i, v in enumerate(values))


# --- threshold ------------------------------------------------------------------


def test_threshold_requires_trailing_run():
    pat = Pattern("p", "Overload", Threshold("load", ">", 5.0, min_consecutive=3))
    w = {("svc", "load"): series([9, 9, 9, 4, 9, 9])}
    assert compare(w, [pat]) == []  # run broken by the 4
    w2 = {("svc", "load"): series([1, 9, 9, 9])}
    got = compare(w2, [pat])
    assert len(got) == 1 and got[0].fault_class == "Overload"
    # evidence carries exactly the matched tail
    assert got[0].evidence[0][1] == series([9, 9, 9], start=1)


def test_threshold_short_history_no_match():
    pat = Pattern("p", "Overload", Threshold("load", ">", 5.0, min_consecutive=3))
    assert compare({("svc", "load"): series([9, 9])}, [pat]) == []


def test_threshold_comparator_validation():
    with pytest.raises(ValueError):
        Threshold("m", "!=", 1.0)
    with pytest.raises(ValueError):
        Threshold("m", ">", 1.0, min_consecutive=0)


def test_threshold_all_comparators():
    w = {("s", "m"): series([3.0])}
    for cmp, bound, expect in ((">", 2.9, True), (">=", 3.0, True), ("<", 3.1, True), ("<=", 2.9, False)):
        got = compare(w, [Pattern("p", "F", Threshold("m", cmp, bound))])
        assert bool(got) is expect, (cmp, bound)


# --- trend ----------------------------------------------------------------------


def test_trend_matches_least_squares_oracle():
    vals = [1.0, 2.5, 3.0, 5.5, 6.0]
    samples = series(vals, start=10, step=2)
    xs = [t for t, _ in samples]
    slope = statistics.linear_regression(xs, vals).slope
    pat_lo = Pattern("p", "Ramp", Trend("m", k=5, cmp=">", slope_bound=slope - 1e-9))
    pat_hi = Pattern("q", "Ramp", Trend("m", k=5, cmp=">", slope_bound=slope + 1e-9))
    w = {("s", "m"): samples}
    assert compare(w, [pat_lo])
    assert not compare(w, [pat_hi])


def test_trend_uses_only_last_k():
    # huge early slope, flat tail of k samples
    samples = series([0, 100, 200, 5, 5, 5, 5])
    pat = Pattern("p", "Ramp", Trend("m", k=4, cmp=">", slope_bound=0.5))
    assert compare({("s", "m"): samples}, [pat]) == []


def test_trend_constant_time_axis_is_flat():
    samples = ((5, 1.0), (5, 9.0), (5, 20.0))
    pat = Pattern("p", "Ramp", Trend("m", k=3, cmp=">", slope_bound=0.0))
    assert compare({("s", "m"): samples}, [pat]) == []


def test_trend_validation():
    with pytest.raises(ValueError):
        Trend("m", k=1, cmp=">", slope_bound=0.0)


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=8),
    st.floats(-5, 5, allow_nan=False),
)
@example(vals=[0, 0, 43, 0, 0], bound=-4.3e-299)  # symmetric window: the slope is exactly 0.0
def test_trend_hit_agrees_with_statistics(vals, bound):
    samples = series(vals)
    k = len(vals)
    xs = list(range(k))
    try:
        slope = statistics.linear_regression(xs, vals).slope
    except statistics.StatisticsError:
        return
    pat = Pattern("p", "F", Trend("m", k=k, cmp=">", slope_bound=bound))
    got = bool(compare({("s", "m"): samples}, [pat]))
    assert got == (slope > bound)


# --- sequence -------------------------------------------------------------------


def seq_pattern(span):
    return Pattern(
        "p",
        "Cascade",
        Sequence(
            steps=(Threshold("cpu", ">", 5.0), Threshold("err", ">", 0.5)),
            span=span,
        ),
    )


def test_sequence_orders_and_spans():
    w = {
        ("s", "cpu"): ((10, 9.0),),
        ("s", "err"): ((14, 1.0),),
    }
    assert compare(w, [seq_pattern(span=4)])
    assert not compare(w, [seq_pattern(span=3)])


def test_sequence_requires_strict_order():
    w = {
        ("s", "cpu"): ((14, 9.0),),
        ("s", "err"): ((10, 1.0),),  # second step fired first
    }
    assert not compare(w, [seq_pattern(span=100)])


def test_sequence_greedy_earliest_chain():
    # cpu fires at 10 and 30; err fires at 12 only. Greedy picks cpu@10.
    w = {
        ("s", "cpu"): ((10, 9.0), (20, 1.0), (30, 9.0)),
        ("s", "err"): ((12, 1.0),),
    }
    assert compare(w, [seq_pattern(span=5)])


def test_sequence_missing_metric():
    w = {("s", "cpu"): ((10, 9.0),)}
    assert not compare(w, [seq_pattern(span=5)])


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence(steps=(Threshold("a", ">", 1.0),), span=5)
    with pytest.raises(ValueError):
        Sequence(steps=(Threshold("a", ">", 1.0), Threshold("b", ">", 1.0)), span=0)


# --- compare grouping -------------------------------------------------------------


def test_compare_groups_by_subject_and_fault_class():
    pats = [
        Pattern("p1", "Overload", Threshold("load", ">", 5.0), confidence=0.4),
        Pattern("p2", "Overload", Threshold("load", ">", 8.0), confidence=0.9),
        Pattern("p3", "Leak", Threshold("mem", ">", 1.0), confidence=0.6),
    ]
    w = {
        ("a", "load"): series([9.0]),
        ("a", "mem"): series([2.0]),
        ("b", "load"): series([6.0]),
    }
    got = {(d.subject, d.fault_class): d for d in compare(w, pats)}
    assert set(got) == {("a", "Overload"), ("a", "Leak"), ("b", "Overload")}
    both = got[("a", "Overload")]
    assert both.confidence == 0.9  # max over matching patterns
    assert [pid for pid, _ in both.evidence] == ["p1", "p2"]
    assert got[("b", "Overload")].confidence == 0.4


# --- compare against a prefix-rescan reference -------------------------------------


def ref_step_holds(samples, step):
    """Does the step hold over the whole of ``samples`` right now?"""
    op = COMPARATORS[step.cmp]
    if isinstance(step, Threshold):
        m = step.min_consecutive
        return len(samples) >= m and all(op(v, step.bound) for _, v in samples[-m:])
    return len(samples) >= step.k and op(_slope(samples[-step.k :]), step.slope_bound)


def ref_sequence_holds(metrics, pred):
    """Rescan every prefix for each step; chain the earliest strictly
    later hit time."""
    chain = []
    for step in pred.steps:
        samples = metrics.get(step.metric, ())
        times = [samples[i - 1][0] for i in range(1, len(samples) + 1) if ref_step_holds(samples[:i], step)]
        later = [t for t in times if not chain or t > chain[-1]]
        if not later:
            return False
        chain.append(later[0])
    return chain[-1] - chain[0] <= pred.span


def ref_compare(windows, library):
    grouped = {}
    for pattern in library:
        pred = pattern.predicate
        for source in dict.fromkeys(src for src, _ in windows):
            metrics = {m: w for (src, m), w in windows.items() if src == source}
            if isinstance(pred, Sequence):
                hit = ref_sequence_holds(metrics, pred)
                excerpt = metrics.get(pred.steps[-1].metric, ())[-4:]
            else:
                samples = metrics.get(pred.metric, ())
                hit = ref_step_holds(samples, pred)
                excerpt = samples[-(pred.min_consecutive if isinstance(pred, Threshold) else pred.k) :]
            if hit:
                conf, evidence = grouped.get((source, pattern.fault_class), (0.0, ()))
                grouped[(source, pattern.fault_class)] = (
                    max(conf, pattern.confidence),
                    evidence + ((pattern.pattern_id, excerpt),),
                )
    return [Diagnosis(src, fc, conf, ev) for (src, fc), (conf, ev) in grouped.items()]


METRICS = ("cpu", "err")
cmps = st.sampled_from(sorted(COMPARATORS))
thresholds = st.builds(Threshold, st.sampled_from(METRICS), cmps, st.integers(0, 4).map(float), st.integers(1, 4))
trends = st.builds(Trend, st.sampled_from(METRICS), st.integers(2, 4), cmps, st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
steps = st.one_of(thresholds, trends)
predicates = st.one_of(
    steps, st.builds(Sequence, st.lists(steps, min_size=2, max_size=3).map(tuple), st.integers(1, 12))
)


@st.composite
def window_sets(draw):
    """Short windows of small values; timestamps never decrease and often
    repeat, as ingest allows."""
    out = {}
    for source in ("a", "b"):
        for metric in METRICS:
            gaps = draw(st.lists(st.integers(0, 3), max_size=10))
            if gaps:
                values = draw(st.lists(st.integers(0, 4), min_size=len(gaps), max_size=len(gaps)))
                t, samples = 0, []
                for gap, v in zip(gaps, values):
                    t += gap
                    samples.append((t, float(v)))
                out[(source, metric)] = tuple(samples)
    return out


@settings(max_examples=400)
@given(window_sets(), st.lists(predicates, min_size=1, max_size=4))
@example(  # a trend step inside a sequence, over a repeated timestamp
    windows={("a", "cpu"): ((0, 0.0), (1, 2.0), (1, 4.0)), ("a", "err"): ((1, 3.0), (2, 3.0))},
    preds=[Sequence((Trend("cpu", 2, ">", 0.5), Threshold("err", ">=", 3.0, 2)), span=1)],
)
def test_compare_matches_prefix_rescan_reference(windows, preds):
    library = [Pattern(f"p{i}", f"F{i % 2}", pred, confidence=0.1 * (i + 1)) for i, pred in enumerate(preds)]
    assert compare(windows, library) == ref_compare(windows, library)


# --- forecast ---------------------------------------------------------------------


def test_forecast_mean_of_last_k():
    samples = series([1, 2, 3, 4, 10])
    assert forecast_ma(samples, k=2) == pytest.approx(7.0)


def test_forecast_insufficient_data():
    with pytest.raises(InsufficientData):
        forecast_ma(series([1, 2]), k=3)


def test_forecast_validation():
    with pytest.raises(ValueError):
        forecast_ma(series([1]), k=0)
    with pytest.raises(ValueError, match="unknown comparator"):
        ForecastSpec("s", "m", k=1, horizon=1, threshold=0.0, cmp="~")


@pytest.mark.parametrize("interval", [0, -5])
def test_analysis_params_reject_compare_interval_below_one(interval):
    # A node's first compare timer is drawn from [0, compare_interval).
    with pytest.raises(ValueError, match="compare_interval must be >= 1"):
        AnalysisParams(compare_interval=interval)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.data(),
)
def test_forecast_matches_fmean_oracle(vals, data):
    k = data.draw(st.integers(1, len(vals)))
    samples = series(vals)
    expected = statistics.fmean(vals[-k:])
    assert forecast_ma(samples, k=k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# --- engine -----------------------------------------------------------------------


def test_ingest_drops_out_of_order_per_source():
    eng = AnalysisEngine(AnalysisParams())
    assert eng.ingest("a", "m", 1, at=10)
    assert not eng.ingest("a", "m", 2, at=9)  # stale for source a
    assert eng.ingest("b", "m", 3, at=5)  # other sources unaffected
    assert eng.ingest("a", "m", 4, at=10)  # equal time allowed
    assert tuple(eng.windows[("a", "m")]) == ((10, 1.0), (10, 4.0))


def test_window_capacity_bound():
    eng = AnalysisEngine(AnalysisParams(capacity=3))
    for i in range(10):
        eng.ingest("a", "m", i, at=i)
    assert tuple(eng.windows[("a", "m")]) == ((7, 7.0), (8, 8.0), (9, 9.0))


def test_poll_edge_triggers():
    eng = AnalysisEngine(
        AnalysisParams(),
        [Pattern("p", "Overload", Threshold("m", ">", 5.0))],
    )
    eng.ingest("a", "m", 9, at=1)
    assert len(eng.poll()) == 1
    assert eng.poll() == []  # still matching: no re-fire
    eng.ingest("a", "m", 1, at=4)
    assert eng.poll() == []  # condition cleared
    eng.ingest("a", "m", 9, at=6)
    assert len(eng.poll()) == 1  # re-arms after clearing


def test_poll_sees_pattern_added_between_samples():
    eng = AnalysisEngine(AnalysisParams())
    eng.ingest("a", "m", 9, at=1)
    assert eng.poll() == []
    assert eng.poll() == []  # no new sample, no new pattern
    eng.add_pattern(Pattern("p", "Overload", Threshold("m", ">", 5.0)))
    assert [d.fault_class for d in eng.poll()] == ["Overload"]


def test_learn_bound_and_winner():
    eng = AnalysisEngine(AnalysisParams(lookback=10))
    # metric "noise" stays flat; metric "heat" shifts hard before the fault
    for i in range(10):
        eng.ingest("svc", "noise", 5 + (i % 2), at=i)
        eng.ingest("svc", "heat", 10 + (i % 2), at=i)
    for i in range(10, 20):
        eng.ingest("svc", "noise", 5 + (i % 2), at=i)
        eng.ingest("svc", "heat", 50, at=i)
    pat = eng.learn("svc", "ServiceCrash", fault_time=20)
    assert pat.origin == "learned"
    assert pat.fault_class == "ServiceCrash"
    assert isinstance(pat.predicate, Threshold)
    assert pat.predicate.metric == "heat"
    base = [10 + (i % 2) for i in range(10)]
    mean, std = statistics.fmean(base), statistics.pstdev(base)
    assert pat.predicate.bound == pytest.approx(mean + 2 * std)
    assert pat in eng.library


def test_learn_no_signal():
    eng = AnalysisEngine(AnalysisParams(lookback=5))
    for i in range(10):
        eng.ingest("svc", "m", 5.0, at=i)
    with pytest.raises(NoSignal):
        eng.learn("svc", "ServiceCrash", fault_time=10)


def test_learn_dedups():
    eng = AnalysisEngine(AnalysisParams(lookback=5))
    for i in range(5):
        eng.ingest("svc", "m", 1 + 0.1 * (i % 2), at=i)
    for i in range(5, 10):
        eng.ingest("svc", "m", 99.0, at=i)
    eng.learn("svc", "ServiceCrash", fault_time=10)
    with pytest.raises(NoSignal):
        eng.learn("svc", "ServiceCrash", fault_time=10)
    assert sum(1 for p in eng.library if p.origin == "learned") == 1


def test_learned_pattern_fires_on_replay():
    eng = AnalysisEngine(AnalysisParams(lookback=5))
    for i in range(5):
        eng.ingest("svc", "m", 1 + 0.1 * (i % 2), at=i)
    for i in range(5, 10):
        eng.ingest("svc", "m", 99.0, at=i)
    learned = eng.learn("svc", "ServiceCrash", fault_time=10)

    replay = AnalysisEngine(AnalysisParams(), [learned])
    replay.ingest("svc", "m", 99.0, at=1)
    assert replay.poll() == []  # min_consecutive=2: one sample not enough
    replay.ingest("svc", "m", 99.0, at=3)
    got = replay.poll()
    assert len(got) == 1 and got[0].fault_class == "ServiceCrash"


@st.composite
def engine_runs(draw):
    """A small window capacity, so samples leave the window, and a
    stream of ingests (a negative step in time is an out-of-order
    record the engine drops; a zero step repeats a timestamp), polls and
    patterns added between polls."""
    capacity = draw(st.integers(2, 6))
    library = draw(st.lists(predicates, min_size=1, max_size=3))
    ingests = st.tuples(st.just("ingest"), st.sampled_from(("a", "b")), st.sampled_from(METRICS), st.integers(-1, 3), st.integers(0, 4))
    polls = st.tuples(st.just("poll"))
    ops = st.one_of(ingests, ingests, polls, polls, st.tuples(st.just("add"), predicates))
    return capacity, library, draw(st.lists(ops, min_size=20, max_size=40))


@settings(max_examples=150)
@given(engine_runs())
@example(  # a hit counts while its sample and the w - 1 before it are in the window, and no longer
    run=(2, [Sequence((Threshold("cpu", ">", 1.0), Threshold("err", ">", 1.0)), span=10)], [
        ("ingest", "a", "cpu", 1, 4), ("poll",), ("ingest", "a", "cpu", 1, 0), ("poll",), ("ingest", "a", "err", 1, 4), ("poll",),
        ("ingest", "b", "cpu", 1, 4), ("poll",), ("ingest", "b", "cpu", 1, 0), ("ingest", "b", "cpu", 1, 0), ("poll",),
        ("ingest", "b", "err", 1, 4), ("poll",),
    ]),
)
@example(  # a pattern added later judges the whole window, not only the newest sample
    run=(4, [], [
        ("ingest", "a", "cpu", 1, 4), ("ingest", "a", "cpu", 1, 0), ("ingest", "a", "err", 1, 4), ("poll",),
        ("add", Sequence((Threshold("cpu", ">", 1.0), Threshold("err", ">", 1.0)), span=10)), ("poll",),
    ]),
)
def test_engine_polls_match_reference_over_current_windows(run):
    """Every poll of the incremental engine equals the prefix-rescan
    reference over the windows as they stand, under the same edge trigger."""
    capacity, preds, ops = run
    library = [Pattern(f"p{i}", f"F{i % 2}", pred) for i, pred in enumerate(preds)]
    eng = AnalysisEngine(AnalysisParams(capacity=capacity), library)
    windows, clock, active = {}, {}, set()
    for op in ops:
        if op[0] == "ingest":
            _, source, metric, step, value = op
            at = clock.get(source, 0) + step
            accepted = step >= 0 or source not in clock
            assert eng.ingest(source, metric, float(value), at) is accepted
            if accepted:
                clock[source] = at
                windows[(source, metric)] = (windows.get((source, metric), ()) + ((at, float(value)),))[-capacity:]
        elif op[0] == "add":
            pattern = Pattern(f"p{len(library)}", f"F{len(library) % 2}", op[1])
            library.append(pattern)
            eng.add_pattern(pattern)
        else:
            current = ref_compare(windows, library)
            expect = [d for d in current if (d.subject, d.fault_class) not in active]
            active = {(d.subject, d.fault_class) for d in current}
            assert eng.poll() == expect
    assert {key: tuple(w) for key, w in eng.windows.items()} == windows
