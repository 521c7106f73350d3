"""Indexed trace views against naive folds over the event list.

A Trace builds each derived view once, as a time-sorted index. These
properties run random short scripts through the single- and two-agent
reference nets and check every indexed answer against a test-local fold
over ``trace.events``, the stored-trace round trip, and that a caller
changing a returned list does not change the next answer.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from smart_tgpn.analysis import Formula
from smart_tgpn.builder import AgentView
from smart_tgpn.guards import And, HeldFor, Marked, Not, Or, Sig, eval_guard, parse_guard
from smart_tgpn.monitor import check_formula_on_trace, check_trigger_set
from smart_tgpn.scenario import parse_scenario, run, verify
from smart_tgpn.trace import FIRE, Trace, read_trace, write_trace

AGENT_SIGNALS = ("anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth")
SUFFIXES = {1: [""], 2: ["_a1", "_a2"]}


@st.composite
def scenario_docs(draw):
    agents = draw(st.sampled_from(sorted(SUFFIXES)))
    horizon = draw(st.integers(4, 40))
    names = [s + suffix for suffix in SUFFIXES[agents] for s in AGENT_SIGNALS]
    if agents == 2:
        names += ["disagree", "agree"]
    script = []
    for name in names + ["want_output" + suffix for suffix in SUFFIXES[agents]]:
        for time in sorted(draw(st.sets(st.integers(1, horizon), max_size=4))):
            script.append([time, name, int(draw(st.booleans()))])
    builder = {"agents": ["a1", "a2"]} if agents == 2 else {}
    return {
        "name": f"views-{agents}",
        "net": {"builder": dict(builder, config={})},
        "horizon": horizon,
        "policy": draw(st.sampled_from(["earliest", "latest", "random"])),
        "seed": draw(st.integers(0, 3)),
        "script": script,
        "propositions": ["P1", "P2", "P3", "P4"] + (["P5"] if agents == 2 else []),
        "triggers": "default",
        "formulas": [
            {"kind": "bounded-response", "condition": f"invalid{SUFFIXES[agents][0]}",
             "place": f"P_M{SUFFIXES[agents][0]}", "within": 2},
            {"kind": "never-while", "condition": f"UR{SUFFIXES[agents][-1]}",
             "place": f"P_S{SUFFIXES[agents][-1]}"},
        ],
    }


def naive_markings(trace):
    """(time, marking) after every event, led by (0, initial marking); a
    place that a stored marking digest omits holds 0 tokens."""
    empty = dict.fromkeys(trace.smart.net.places, 0)
    marking = {**empty, **trace.initial_marking}
    out = [(0, marking)]
    for event in trace.events:
        if event.post_marking is not None:
            marking = {**empty, **event.post_marking}
        out.append((event.time, marking))
    return out


def naive_marking_at(trace, time):
    markings = naive_markings(trace)
    marking = markings[0][1]
    for t, m in markings[1:]:
        if t <= time:
            marking = m
    return marking


def naive_timeline(trace, agent):
    timeline = [(0, agent.mode_in(trace.initial_marking))]
    for time, marking in naive_markings(trace)[1:]:
        if agent.mode_in(marking) != timeline[-1][1]:
            timeline.append((time, agent.mode_in(marking)))
    return timeline


def naive_residences(trace, agent, key):
    place = agent.mode_places[key]
    timeline = naive_timeline(trace, agent)
    before = [m for _, m in naive_markings(trace)]
    out = []
    for (start, mode), following in zip(timeline, timeline[1:] + [None]):
        if mode != key:
            continue
        if following is None:
            out.append((start, None, None))
            continue
        end = following[0]
        exits = [
            e.name for i, e in enumerate(trace.events)
            if e.kind == FIRE and e.time == end
            and before[i].get(place, 0) >= 1 and e.post_marking.get(place, 0) == 0
        ]
        out.append((start, end, exits[0] if exits else None))
    return out


def naive_intervals(trace, expr):
    """Maximal runs of ticks where the predicate holds, tick by tick;
    held_for over marked() reads the naive marking history."""
    history = naive_markings(trace)
    intervals, start = [], None
    for t in range(trace.horizon + 1):
        value = eval_guard(expr, trace.sigma, naive_marking_at(trace, t), t, history)
        if value and start is None:
            start = t
        elif not value and start is not None:
            intervals.append((start, t, False))
            start = None
    if start is not None:
        intervals.append((start, trace.horizon, True))
    return intervals


def naive_holds(trace, expr, t):
    return eval_guard(expr, trace.sigma, naive_marking_at(trace, t), t, naive_markings(trace))


def check_changes(trace, expr):
    """changes(expr, a, b) starts at a, and at every tick of a..b the
    predicate holds as at the last listed instant at or before the tick."""
    h = trace.horizon
    assert trace.changes(expr, 2, 1) == []
    for a, b in ((0, h), (1, h // 2), (h // 3, h), (h // 2, h // 2)):
        ticks = trace.changes(expr, a, b)
        assert ticks[0] == a and ticks == sorted(set(ticks)) and ticks[-1] <= b
        for t in range(a, b + 1):
            last = max(p for p in ticks if p <= t)
            assert naive_holds(trace, expr, t) == naive_holds(trace, expr, last), (expr, a, b, t)


def check_views(trace):
    smart = trace.smart
    for t in range(trace.horizon + 1):
        assert trace.marking_at(t) == naive_marking_at(trace, t)
    markings = naive_markings(trace)
    for index, event in enumerate(trace.events):
        if event.kind == FIRE:
            assert trace.marking_before(event) == markings[index][1]
    assert trace.firings() == [e for e in trace.events if e.kind == FIRE]
    switches = [t for a in smart.agents for t in a.mode_switches.values()]
    assert trace.firings(switches) == [e for e in trace.events if e.kind == FIRE and e.name in switches]
    for agent in smart.agents:
        assert trace.mode_timeline(agent) == naive_timeline(trace, agent)
        for t in range(trace.horizon + 1):
            assert trace.mode_at(agent, t) == agent.mode_in(naive_marking_at(trace, t))
            previous = naive_marking_at(trace, t - 1) if t > 0 else trace.initial_marking
            assert trace.mode_before(agent, t) == agent.mode_in(previous)
        for key in agent.mode_places:
            assert trace.mode_residences(agent, key) == naive_residences(trace, agent, key)
        for expr in (agent.invalid, agent.unrecoverable):
            assert trace.predicate_intervals(expr) == naive_intervals(trace, expr)
            # an interval holds exactly the instants at which the predicate holds
            for t in range(trace.horizon + 1):
                holding = trace.interval_at(expr, t)
                assert (holding is not None) == trace.eval_at(expr, t)
                assert holding is None or holding[0] <= t
            check_changes(trace, expr)


@settings(max_examples=30, deadline=None)
@given(scenario_docs())
def test_indexed_views_equal_naive_folds(doc):
    trace, _ = run(parse_scenario(doc))
    check_views(trace)


@settings(max_examples=15, deadline=None)
@given(scenario_docs())
def test_stored_trace_verifies_like_the_inline_run(doc):
    scenario = parse_scenario(doc)
    trace, inline = run(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "views.trace.jsonl")
        write_trace(trace, path)
        stored = read_trace(path)
    stored.smart = scenario.smart
    assert verify(stored, scenario).to_record() == inline.to_record()
    check_views(stored)


@settings(max_examples=15, deadline=None)
@given(scenario_docs())
def test_changing_a_returned_list_leaves_the_view_intact(doc):
    trace, _ = run(parse_scenario(doc))
    agent = trace.smart.agents[0]
    views = [
        trace.firings,
        lambda: trace.changes(agent.invalid, 0, trace.horizon),
        lambda: trace.mode_timeline(agent),
        lambda: trace.mode_residences(agent, "M"),
        lambda: trace.predicate_intervals(agent.invalid),
        lambda: trace.events_between(0, trace.horizon),
        lambda: trace.mode_timeline_between(agent, 0, trace.horizon),
    ]
    for view in views:
        first = view()
        expected = list(first)
        first.append(None)
        first.reverse()
        assert view() == expected


@settings(max_examples=20, deadline=None)
@given(scenario_docs(), st.integers(1, 4))
def test_held_for_intervals_equal_a_tick_by_tick_fold(doc, duration):
    trace, _ = run(parse_scenario(doc))
    for agent in trace.smart.agents:
        expr = HeldFor(agent.invalid, duration)
        assert trace.predicate_intervals(expr) == naive_intervals(trace, expr)


@st.composite
def hysteresis_docs(draw):
    """scenario_docs on hysteresis nets, where t_MS reads held_for(valid_down,
    d), with U starting low and moving across both thresholds."""
    doc = draw(scenario_docs())
    suffixes = SUFFIXES[len(doc["net"]["builder"].get("agents", [""]))]
    doc["net"]["builder"]["config"] = {"hysteresis": {"enabled": True,
                                                      "debounce_down": draw(st.integers(1, 4))}}
    doc["signals"] = {"U" + s: 0.2 for s in suffixes}
    for s in suffixes:
        for time in sorted(draw(st.sets(st.integers(1, doc["horizon"]), max_size=3))):
            doc["script"].append([time, "U" + s, draw(st.sampled_from([0.2, 0.45, 0.9]))])
    return doc


def agent_risk(trace, agent, triggers):
    return Or((agent.invalid, agent.unrecoverable)) if len(trace.smart.agents) > 1 else triggers.u_risk


def naive_blocked_returns(trace, triggers):
    """The P_M residences with a low-risk tick, none of which enables
    t_MS, tick by tick."""
    out = []
    for agent in trace.smart.agents:
        risk = agent_risk(trace, agent, triggers)
        guard = trace.smart.net.transitions[agent.switch("t_MS")].guard
        for entry, exit_time, _ in naive_residences(trace, agent, "M"):
            end = trace.horizon if exit_time is None else exit_time
            low = [t for t in range(entry, end + 1) if not naive_holds(trace, risk, t)]
            if low and not any(naive_holds(trace, guard, t) for t in low):
                out.append({"trace": trace.meta["scenario"], "agent": agent.agent_id or "default",
                            "blocked_return": [entry, end]})
    return out


@settings(max_examples=30, deadline=None)
@given(hysteresis_docs())
def test_blocked_returns_equal_a_tick_by_tick_fold(doc):
    scenario = parse_scenario(doc)
    trace, _ = run(scenario)
    found = [v for v in check_trigger_set([trace], scenario.triggers).soundness if "blocked_return" in v]
    assert found == naive_blocked_returns(trace, scenario.triggers)


def naive_envelope(trace, triggers):
    """Per agent and risk interval at least the dwell long, the first tick
    from the dwell on that holds the stable token, tick by tick."""
    out = []
    for agent in trace.smart.agents:
        for start, end, _ in naive_intervals(trace, agent_risk(trace, agent, triggers)):
            stable = [t for t in range(start + triggers.dwell, end)
                      if naive_marking_at(trace, t)[agent.place("S")] >= 1]
            if stable:
                out.append({"trace": trace.meta["scenario"], "agent": agent.agent_id or "default",
                            "time": stable[0], "risk_since": start})
    return out


@settings(max_examples=30, deadline=None)
@given(st.one_of(scenario_docs(), hysteresis_docs()), st.integers(0, 3))
def test_envelope_entries_equal_a_tick_by_tick_fold(doc, dwell):
    scenario = parse_scenario(doc)
    trace, _ = run(scenario)
    triggers = dataclasses.replace(scenario.triggers, dwell=dwell)
    assert check_trigger_set([trace], triggers).envelope == naive_envelope(trace, triggers)


def place_predicates(smart, duration):
    """Predicates that read places: alone, mixed with signals (of the other
    agent, on two agents), and under held_for."""
    first, last = smart.agents[0], smart.agents[-1]
    in_m, in_s = Marked(first.place("M")), Marked(last.place("S"))
    return [
        in_m,
        Not(in_s),
        And((first.invalid, in_m)),
        Or((Sig(last.signal("anom")), Marked(first.place("R")))),
        And((last.unrecoverable, Not(Marked(first.place("A"))))),
        HeldFor(in_m, duration),
        HeldFor(Or((first.invalid, in_s)), duration),
        And((HeldFor(Not(in_s), duration), Sig(first.signal("safe")))),
    ]


@settings(max_examples=20, deadline=None)
@given(scenario_docs(), st.integers(1, 4))
def test_place_reading_intervals_equal_a_tick_by_tick_fold(doc, duration):
    trace, _ = run(parse_scenario(doc))
    for expr in place_predicates(trace.smart, duration):
        assert trace.predicate_intervals(expr) == naive_intervals(trace, expr), expr
        check_changes(trace, expr)


class TestHeldForWindows:
    """held_for(e, d) turns true d ticks after the change that started e's
    run, usually at an instant where nothing changes, and held_for over
    marked() reads the marking history, not the current marking. Here
    t_SM fires at 2 and t_MR at 7."""

    DOC = {"name": "held", "net": {"builder": {"agents": 1, "config": {}}}, "horizon": 30,
           "script": [[2, "anom", 1], [8, "anom", 0]]}

    @pytest.fixture(scope="class")
    def trace(self):
        return run(parse_scenario(self.DOC))[0]

    def test_an_interval_starts_where_the_window_completes(self, trace):
        expr = parse_guard("held_for(anom, 2)")
        assert [t for t in range(trace.horizon + 1) if trace.eval_at(expr, t)] == [4, 5, 6, 7]
        assert trace.predicate_intervals(expr) == [(4, 8, False)]

    def test_a_late_response_to_a_held_premise_is_a_violation(self, trace):
        formula = Formula("bounded-response", parse_guard("held_for(anom, 3)"), place="P_R", within=1)
        verdict = check_formula_on_trace(trace, formula)
        assert verdict.status == "violated", verdict.detail

    def test_held_marking_reads_the_marking_history(self, trace):
        expr = parse_guard("held_for(marked(P_M), 3)")
        assert [t for t in range(trace.horizon + 1) if trace.eval_at(expr, t)] == [5, 6]
        assert trace.predicate_intervals(expr) == [(5, 7, False)]


def test_an_interval_the_horizon_cuts_holds_at_the_horizon():
    trace, _ = run(parse_scenario({"name": "cut", "net": {"builder": {"config": {}}}, "horizon": 3,
                                   "script": [[2, "anom", 1]]}))
    anom = Sig("anom")
    assert trace.predicate_intervals(anom) == [(2, 3, True)]
    assert [trace.interval_at(anom, t) for t in range(4)] == [None, None, (2, 3, True), (2, 3, True)]


def test_events_out_of_time_order_are_rejected():
    trace, _ = run(parse_scenario({"name": "order", "net": {"builder": {"config": {}}}, "horizon": 8,
                                   "script": [[2, "anom", 1], [5, "anom", 0]]}))
    with pytest.raises(ValueError, match="time order"):
        Trace(list(reversed(trace.events)), trace.sigma, trace.initial_marking, trace.horizon)


def test_rebinding_the_net_rebuilds_the_mode_timeline():
    doc = {"name": "rebind", "net": {"builder": {"config": {}}}, "horizon": 12,
           "script": [[2, "anom", 1], [5, "anom", 0]]}
    trace, _ = run(parse_scenario(doc))
    agent = trace.smart.agents[0]
    assert [m for _, m in trace.mode_timeline(agent)] == ["S", "M", "S"]
    # the same net with its stable and recovery places swapped
    places = dict(agent.mode_places, S=agent.mode_places["M"], M=agent.mode_places["S"])
    swapped = AgentView(**dict(vars(agent), mode_places=places))
    assert [m for _, m in trace.mode_timeline(swapped)] == ["M", "S", "M"]


def long_doc(agents, horizon):
    """Every 7 ticks an anomaly of 3 ticks and, a tick later, an evidence
    loss of 3 ticks, for each agent; an output attempt every 5 ticks."""
    suffixes = SUFFIXES[agents]
    script = []
    for base in range(1, horizon - 8, 7):
        for offset, s in enumerate(suffixes):
            t = base + offset
            script += [[t, "anom" + s, 1], [t + 3, "anom" + s, 0],
                       [t + 1, "evidence" + s, 0], [t + 4, "evidence" + s, 1]]
    script += [[t, "want_output" + s, 1] for t in range(2, horizon + 1, 5) for s in suffixes]
    return {
        "name": f"long-{agents}",
        "net": {"builder": {"agents": ["a1", "a2"], "config": {}} if agents == 2 else {"config": {}}},
        "horizon": horizon,
        "signals": {"assist" + s: 1 for s in suffixes},
        "script": script,
        "propositions": ["P1", "P2", "P3", "P4"] + (["P5"] if agents == 2 else []),
        "triggers": "default",
        "formulas": [{"kind": "bounded-response", "condition": f"invalid{suffixes[0]} and not UR{suffixes[0]}",
                      "place": f"P_M{suffixes[0]}", "within": 2}],
    }


def test_verify_folds_each_marking_once_per_agent(monkeypatch, tmp_path):
    """Linearity pin without a timing gate: verifying a stored trace reads
    the mode of each recorded marking at most once per agent."""
    for agents in sorted(SUFFIXES):
        scenario = parse_scenario(long_doc(agents, 1000))
        trace, inline = run(scenario)
        path = str(tmp_path / f"long-{agents}.trace.jsonl")
        write_trace(trace, path)
        stored = read_trace(path)
        stored.smart = scenario.smart
        calls = []
        mode_in = AgentView.mode_in
        monkeypatch.setattr(AgentView, "mode_in", lambda self, marking: calls.append(1) or mode_in(self, marking))
        audited = verify(stored, scenario)
        monkeypatch.undo()
        assert audited.to_record() == inline.to_record()
        assert 0 < len(calls) <= agents * (len(stored.events) + 1)
