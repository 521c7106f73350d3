"""Differential property: the simulator never leaves the explorer's graph.

Random scripts drive the alphabet signals of the single- and two-agent
nets (every other signal keeps the explorer's base value; the two agents
read the same script, as the explorer's unnamespaced drivers do, and the
shared disagree signal is scripted once). At
every tick, the end-of-tick marking, residence clocks and signal vector
of the earliest-policy simulator run must be a state the explorer steps
to from a state the run was in at the tick before: the run is a path of
the explorer's graph, the reverse of witness replay. Scripts hold each
assignment for up to six ticks, so recovery residences outlast
budget_m = budget_a = 2 and the derived timeouts of the two engines are
compared where they flip. About half the segments are escalations: anom,
assist and safe held for longer than budget_m + budget_a, which walks the
mode token S -> M -> A and fires both timeouts by construction; one
example holds disagree through A, so t_AR fires on timeout_A. The
examples are derandomized, so a failure reproduces.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from smart_tgpn.analysis import ExplorationConfig, explore
from smart_tgpn.builder import SHARED_BOOL_SIGNALS, AgentSpec, SmartConfig, build_multi_agent, build_single_agent
from smart_tgpn.scenario import Scenario, run

ALPHABET = ["anom", "evidence", "safe", "assist", "ext_auth", "disagree"]
HORIZON = 12
CONFIG = SmartConfig(budget_m=2, budget_a=2)
NETS = {
    "single": lambda: build_single_agent(CONFIG),
    "two-agent": lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2")], base_config=CONFIG),
}
_GRAPHS: dict = {}


def explored(name):
    if name not in _GRAPHS:
        smart = NETS[name]()
        graph = explore(smart, ExplorationConfig(horizon=HORIZON, alphabet=ALPHABET))
        assert not graph.incomplete and not graph.violations
        _GRAPHS[name] = smart, graph
    return _GRAPHS[name]


def signal_name(signal, agent):
    """The net's name of an alphabet signal: shared signals have no suffix."""
    return signal if signal in SHARED_BOOL_SIGNALS else signal + agent.suffix


def residence_at(trace, agent, tick):
    """The explorer's residence clock of an agent at the end of a tick: one
    more than the ticks since its last mode change, capped at its budgets."""
    entered = max(t for t, _ in trace.mode_timeline(agent) if t <= tick)
    return agent.suffix, min(tick - entered + 1, max(agent.config.budget_m, agent.config.budget_a))


HOLD = CONFIG.budget_m + CONFIG.budget_a + 2
ESCALATE = {"anom": True, "evidence": True, "safe": True, "assist": True, "ext_auth": False, "disagree": False}
escalation = st.tuples(
    st.just(HOLD),
    st.fixed_dictionaries({name: st.just(True) if name in ("anom", "safe", "assist") else st.booleans()
                           for name in ALPHABET}),
)
segments = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 6), st.fixed_dictionaries({name: st.booleans() for name in ALPHABET})),
        escalation,
    ),
    min_size=1,
    max_size=HORIZON + 1,
)


@pytest.mark.parametrize("name", sorted(NETS))
def test_simulator_paths_are_explorer_paths(name):
    smart, graph = explored(name)
    explorer = graph._explorer
    initial = explorer.intern(explorer.initial_key())
    vectors = {tuple(sorted(graph.vector_to_named(v).items())): v for v in range(1 << len(ALPHABET))}
    fired: list[set[str]] = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(segments)
    @example([(HOLD, ESCALATE)])  # timeout_M, then timeout_A in assisted recovery
    @example([(HOLD, {**ESCALATE, "assist": False})])  # timeout_M, then the governance exit
    @example([(HOLD, {**ESCALATE, "disagree": True})])  # timeout_A under disagreement: t_AR
    def check(script_segments):
        script, start = [], 0
        for duration, values in script_segments:
            if start > HORIZON:
                break
            script += sorted({(start, signal_name(signal, a), value)
                              for signal, value in values.items() for a in smart.agents})
            start += duration
        trace, _ = run(Scenario(name="differential", smart=smart, horizon=HORIZON, script=script))
        agent = smart.agents[0]
        keys = {initial}  # the explorer states the simulator path may be in
        for tick in range(HORIZON + 1):
            marking = {p: c for p, c in trace.marking_at(tick).items() if c}
            residence = tuple(residence_at(trace, a, tick) for a in smart.agents)
            values = {s: bool(trace.sigma.value_at(signal_name(s, agent), tick)) for s in ALPHABET}
            vector = vectors[tuple(sorted(values.items()))]
            keys = {
                explorer.key_ids[result.key]
                for key_id in keys
                for result in graph.successor(key_id, vector)
                if {p: c for p, c in result.key.marking if c} == marking and result.key.residence == residence
            }
            assert any(vector in graph.layers[tick].get(k, ()) for k in keys), (
                tick, marking, residence, graph.vector_to_named(vector))
        fired.append({
            kind for kind in ("timeout_M", "timeout_A") for a in smart.agents
            if any(value for _, value in trace.sigma.histories[kind + a.suffix])
        })

    check()
    # the scripts must reach the derived timeouts, or the comparison skips them
    for kind in ("timeout_M", "timeout_A"):
        assert sum(kind in kinds for kinds in fired) >= 5, (kind, fired)


def script_of(smart, script_segments):
    """The run script of a list of (duration, alphabet values) segments."""
    script, start = [], 0
    for duration, values in script_segments:
        if start > HORIZON:
            break
        script += sorted({(start, signal_name(signal, a), value)
                          for signal, value in values.items() for a in smart.agents})
        start += duration
    return script


@pytest.mark.parametrize("name", sorted(NETS))
def test_explorer_timeouts_equal_the_recorded_ones(name):
    """At every tick, for every agent whose mode token begins the tick in
    P_M / P_A, the timeout the explorer reads for the matched key of the
    tick before (the value its cascade starts the tick with) equals the
    simulator's recorded timeout_M / timeout_A, the one that fires the
    exit included. An entry into P_M / P_A restarts both clocks (the key
    carries residence 1), so the simulator records that timeout false."""
    smart, graph = explored(name)
    explorer = graph._explorer
    initial = explorer.intern(explorer.initial_key())
    vectors = {tuple(sorted(graph.vector_to_named(v).items())): v for v in range(1 << len(ALPHABET))}
    compared = {"timeout_M": [], "timeout_A": []}  # every recorded value compared with the explorer's

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(segments)
    @example([(HOLD, ESCALATE)])
    @example([(HOLD, {**ESCALATE, "assist": False})])
    @example([(HOLD, {**ESCALATE, "disagree": True})])
    def check(script_segments):
        script = script_of(smart, script_segments)
        trace, _ = run(Scenario(name="differential", smart=smart, horizon=HORIZON, script=script))
        keys = {initial}  # the explorer states the run was in at the tick before
        for tick in range(HORIZON + 1):
            for agent in smart.agents:
                entered = {mode for t, mode in trace.mode_timeline(agent)[1:] if t == tick}
                for mode in ("M", "A"):
                    signal = f"timeout_{mode}{agent.suffix}"
                    recorded = bool(trace.sigma.value_at(signal, tick))
                    if mode in entered:
                        assert not recorded, (tick, signal)
                    elif trace.mode_before(agent, tick) == mode:
                        for key_id in keys:
                            read = explorer.clock_of(explorer.key_table[key_id]).timeouts(0)[signal]
                            assert read == recorded, (tick, signal, explorer.key_table[key_id].residence)
                        compared[f"timeout_{mode}"].append(recorded)
            marking = {p: c for p, c in trace.marking_at(tick).items() if c}
            residence = tuple(residence_at(trace, a, tick) for a in smart.agents)
            values = {s: bool(trace.sigma.value_at(signal_name(s, smart.agents[0]), tick)) for s in ALPHABET}
            keys = {
                explorer.key_ids[result.key]
                for key_id in keys
                for result in graph.successor(key_id, vectors[tuple(sorted(values.items()))])
                if {p: c for p, c in result.key.marking if c} == marking and result.key.residence == residence
            }
            assert keys, (tick, marking, residence)

    check()
    # both values of both timeouts were compared, or the check says nothing
    for kind, seen in compared.items():
        assert seen.count(True) >= 5 and seen.count(False) >= 5, (kind, seen.count(True), seen.count(False))
