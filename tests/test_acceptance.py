"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when its
checks hold (run with -s to see them). Bounds are exact tick counts with
zero tolerance; deadlines and budgets are the builder defaults
(escalation deadline 2, recovery budget 5) unless a scenario overrides
them.
"""

import time

import pytest

from smart_tgpn.analysis import (
    BRANCH_ALL,
    ExplorationConfig,
    Formula,
    check_formula,
    check_p_invariant,
    explore,
    incidence_matrix,
    mode_indicator,
    replay_witness,
)
from smart_tgpn.builder import (
    AgentSpec,
    SmartConfig,
    SmartNet,
    build_multi_agent,
    build_single_agent,
    default_trigger_set,
)
from smart_tgpn.guards import And, Marked, Not, TRUE
from smart_tgpn.hierarchy import InterfaceSpec, Subnet, check_interface
from smart_tgpn.kernel import FiringPolicy, KernelState, ZenoViolation, advance_to_next_event
from smart_tgpn.monitor import (
    check_bounded_autonomy,
    check_distributed_soundness,
    check_governance_reachability,
    check_mandatory_escalation,
    check_output_gating,
    check_trigger_set,
)
from smart_tgpn.net import Arc, Net, TransitionRecord, drop_transition
from smart_tgpn.scenario import parse_scenario, run
from smart_tgpn.signals import SignalState
from smart_tgpn.trace import trace_lines

ALPHABET8 = ["anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth", "disagree", "agree"]
SUITE = [
    "robot-nominal",
    "robot-escalation",
    "robot-no-assist",
    "robot-ur-stop",
    "robot-ur-spike",
    "robot-consensus-conflict",
]


def scenario_path(name):
    return f"scenarios/{name}.scenario.json"


def run_named(name):
    return run(parse_scenario(scenario_path(name)))


def mutant(smart, *tids):
    net = smart.net
    for tid in tids:
        net = drop_transition(net, tid)
    return SmartNet(net, smart.config, smart.agents, smart.coordination_places, smart.gating_mode)


@pytest.fixture(scope="module")
def suite_traces():
    return {name: run_named(name) for name in SUITE}


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_c01_mode_token_invariant():
    single = build_single_agent(SmartConfig())
    double = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
    assert check_p_invariant(incidence_matrix(single.net), mode_indicator(single))
    assert check_p_invariant(incidence_matrix(double.net), mode_indicator(double))

    started = time.monotonic()
    graph1 = explore(single, ExplorationConfig(horizon=20, alphabet=ALPHABET8))
    graph2 = explore(double, ExplorationConfig(horizon=20, alphabet=ALPHABET8))
    elapsed = time.monotonic() - started
    assert not graph1.incomplete and not graph2.incomplete
    assert graph1.violations == []  # includes every mode-sum check
    assert graph2.violations == []
    assert elapsed < 60, f"exploration took {elapsed:.1f}s"
    report(1, f"y^T C = 0 on both nets; {graph1.state_count} + {graph2.state_count} "
              f"states explored with mode sum 1 everywhere in {elapsed:.1f}s")


def test_c02_bounded_autonomy(suite_traces):
    smart = build_single_agent(SmartConfig())
    agent = smart.agents[0]
    anchor = And((agent.invalid, Not(agent.unrecoverable), Marked("P_S")))
    branching = explore(
        smart,
        ExplorationConfig(horizon=8, alphabet=["anom", "evidence", "safe", "hardware_fault"],
                          weak_branching=BRANCH_ALL),
    )
    at_bound = check_formula(branching, Formula(
        "bounded-response", anchor, place="P_M", within=smart.config.delta_s))
    assert at_bound.status == "holds"
    # zero tolerance: one tick less is already too tight
    too_tight = check_formula(branching, Formula(
        "bounded-response", anchor, place="P_M", within=smart.config.delta_s - 1))
    assert too_tight.status == "violated"

    for name, (trace, _) in suite_traces.items():
        verdict = check_bounded_autonomy(trace)
        assert verdict.ok, (name, verdict.violations)

    boundary = parse_scenario({
        "name": "p1-boundary", "net": {"builder": {"config": {}}}, "horizon": 12,
        "policy": "latest", "script": [[4, "anom", 1]],
    })
    trace, _ = run(boundary)
    assert [(e.time, e.name) for e in trace.firings(["t_SM"])] == [(6, "t_SM")]
    assert check_bounded_autonomy(trace).status == "pass"
    report(2, "stable residence under persistent invalidity bounded by the "
              "escalation deadline, exact at the boundary")


def test_c03_output_gating(suite_traces):
    smart = build_single_agent(SmartConfig())
    graph = explore(smart, ExplorationConfig(
        horizon=12, alphabet=["anom", "evidence", "safe", "hardware_fault", "want_output"]))
    assert graph.violations == []  # no output ever fired without the stable token
    gating = check_formula(graph, Formula(
        "safety", smart.agents[0].invalid, forbidden=("output",), name="gating"))
    assert gating.status == "holds"

    for name, (trace, _) in suite_traces.items():
        verdict = check_output_gating(trace)
        assert verdict.ok and not verdict.violations, (name, verdict.violations)

    window_trace, _ = run_named("robot-structural-window")
    verdict = check_output_gating(window_trace)
    assert verdict.status == "pass"
    window_notes = [n for n in verdict.notes if "window" in n]
    assert window_notes, "expected a classified bounded-window firing"
    fired = [e.time for e in window_trace.firings(["t_out"])]
    agent = window_trace.smart.agents[0]
    exit_time = next(t for t, m in window_trace.mode_timeline(agent) if m == "M")
    onset = 4
    for t in fired:
        if window_trace.eval_at(agent.invalid, t):
            assert onset <= t < exit_time and t - onset <= agent.config.delta_s
    report(3, "guarded mode: zero invalid-instant outputs over exploration and "
              "suite; structural mode confines them to the pre-escalation window")


def test_c04_mandatory_escalation(suite_traces):
    smart = build_single_agent(SmartConfig())
    cfg = smart.config
    bound = cfg.budget_m + max(cfg.delta_m, cfg.delta_mr)
    graph = explore(smart, ExplorationConfig(horizon=14, alphabet=ALPHABET8[:6]))
    explorer = graph._explorer
    legal_exits = {"t_MS", "t_MA", "t_MR"}

    # only the three legal exits ever consume the recovery token
    consumers = {tid for tid in smart.net.transition_ids() if "P_M" in smart.net.pre(tid)}
    assert consumers == legal_exits

    # every fresh local-recovery residence, along every environment path,
    # ends (a legal exit fires) within budget + worst deadline; a residence
    # can end and restart inside one tick, so the exit firing is the marker
    memo = {}

    def residence_ends(key_id, depth):
        if depth == 0:
            return False
        cached = memo.get((key_id, depth))
        if cached is not None:
            return cached
        ok = True
        for vector in range(1 << len(explorer.drivers)):
            for result in explorer.evolve(key_id, vector):
                if set(result.firings) & legal_exits:
                    continue
                target = explorer.intern(result.key)
                if not residence_ends(target, depth - 1):
                    ok = False
                    break
            if not ok:
                break
        memo[(key_id, depth)] = ok
        return ok

    # stored residence counters are pre-advanced one tick, so a residence
    # that began this tick reads 1
    checked = 0
    for tick, layer in enumerate(graph.layers[: graph.horizon - bound]):
        for key_id in layer:
            key = explorer.key_table[key_id]
            residence = dict(key.residence).get("", 0)
            if dict(key.marking).get("P_M", 0) >= 1 and residence == 1:
                checked += 1
                assert residence_ends(key_id, bound), f"stuck in P_M from tick {tick}"
    assert checked > 0

    for name in ("robot-escalation", "robot-no-assist", "robot-nominal", "robot-ur-mid-m"):
        trace, _ = run_named(name)
        verdict = check_mandatory_escalation(trace)
        assert verdict.ok, (name, verdict.violations)
        agent = trace.smart.agents[0]
        for entry, exit_time, exit_tid in trace.mode_residences(agent, "M"):
            assert exit_time is not None and exit_time - entry <= bound
            assert exit_tid in legal_exits
    report(4, f"every local-recovery residence ends within {bound} ticks via a "
              f"legal exit matching the assist/unsafety signals")


def test_c05_governance_reachability():
    smart = build_single_agent(SmartConfig())
    bound = smart.config.governance_bound
    entries = {}
    for name in ("robot-ur-stop", "robot-ur-mid-m", "robot-ur-mid-a"):
        trace, _ = run_named(name)
        verdict = check_governance_reachability(trace)
        assert verdict.ok, (name, verdict.violations)
        agent = trace.smart.agents[0]
        onset = trace.predicate_intervals(agent.unrecoverable)[0][0]
        reached = next(t for t, m in trace.mode_timeline(agent) if m == "R")
        assert reached - onset <= bound
        # with authorization absent, the regulated place is never left
        assert trace.mode_residences(agent, "R")[0][1] is None
        entries[name] = reached - onset

    reset_trace, _ = run_named("robot-ur-reset")
    exits = reset_trace.firings(["t_RS"])
    assert [e.time for e in exits] == [16]
    assert check_governance_reachability(reset_trace).ok
    report(5, f"unsafety from S/M/A reaches the regulated place within {bound} "
              f"ticks (actual {entries}); absorbing without authorization; "
              f"authorized exit fires")


def test_c06_distributed_soundness(suite_traces):
    conflict, _ = suite_traces["robot-consensus-conflict"]
    assert conflict.firings(["t_AS_a1", "t_AS_a2"]) == []
    bound = conflict.smart.agent("a1").config.budget_a + conflict.smart.agent("a1").config.delta_ar
    for agent_id in ("a1", "a2"):
        agent = conflict.smart.agent(agent_id)
        entry, exit_time, exit_tid = conflict.mode_residences(agent, "A")[0]
        assert exit_tid == f"t_AR_{agent_id}"
        assert exit_time - entry <= bound
    assert check_distributed_soundness(conflict).status == "pass"

    resolved, _ = run_named("robot-consensus-resolved")
    returns = {e.name: e.time for e in resolved.firings(["t_AS_a1", "t_AS_a2"])}
    assert set(returns) == {"t_AS_a1", "t_AS_a2"}
    for agent_id in ("a1", "a2"):
        agent = resolved.smart.agent(agent_id)
        assert resolved.mode_at(agent, resolved.horizon) == "S"
    assert check_distributed_soundness(resolved).status == "pass"
    report(6, "persistent disagreement blocks both returns and forces governance "
              f"within {bound} ticks; resolution restores stable autonomy")


def test_c07_hysteresis_anti_oscillation():
    trace, _ = run_named("robot-hysteresis")
    escalations = [e.time for e in trace.firings(["t_SM"])]
    returns = [e.time for e in trace.firings(["t_MS"])]
    assert escalations == [4], "exactly one escalation from the single excursion"
    assert returns == [92], "return only once the lowered threshold held its debounce"
    settle = 90
    debounce_down = trace.smart.config.hysteresis.debounce_down
    assert returns[0] == settle + debounce_down
    report(7, "100-tick oscillation inside the hysteresis band: exactly one "
              "escalation, one debounced return, no thrashing")


def test_c08_interface_hypotheses():
    smart = build_single_agent(SmartConfig())
    sub, iface = smart.coordination_subnet()
    clean = check_interface(smart.net, sub, iface)
    assert clean.ok, clean.summary()

    # violation A: a consensus step duplicates its token into the exit place
    doubled = Subnet(
        Net(sub.net.places, dict(sub.net.transitions),
            [Arc(a.source, a.target, 2 if a.source == "t_agree" else a.weight) for a in sub.net.arcs]),
        sub.entry, sub.exit, sub.success_exit,
    )
    assert not check_interface(None, doubled, InterfaceSpec(None, None)).h1.passed

    # violation B: a subnet step writes directly into a macro mode place
    breached = Net(
        smart.net.places, dict(smart.net.transitions),
        list(smart.net.arcs) + [Arc("t_verify", "P_R")], dict(smart.net.initial_marking),
    )
    assert not check_interface(breached, sub, iface).h2.passed

    # violation C: the exit loses its deadline (non-deterministic exit)
    loose = smart.net.with_transitions([
        TransitionRecord("t_AS", smart.net.transitions["t_AS"].guard, 0, float("inf"), "weak",
                         smart.net.transitions["t_AS"].role)
    ])
    assert not check_interface(loose, sub, iface).h3.passed
    report(8, "coordination subnet satisfies H1-H3; token duplication, "
              "encapsulation breach, and deadline loss are each detected")


def test_c09_trigger_sufficiency(suite_traces):
    for name, (trace, _) in suite_traces.items():
        triggers = default_trigger_set(trace.smart)
        verdict = check_trigger_set([trace], triggers)
        assert verdict.ok, (name, verdict.to_record())

    spike = parse_scenario(scenario_path("robot-ur-spike"))
    spike.smart = mutant(spike.smart, "t_SR")
    spike.propositions = []
    trace, _ = run(spike)
    verdict = check_trigger_set([trace], default_trigger_set(trace.smart))
    assert len(verdict.completeness) == 1
    assert verdict.completeness[0]["interval"] == [8, 12]
    report(9, "default trigger set complete/sound/non-Zeno over the six-scenario "
              "suite; the E-stop-deleted mutant leaves exactly one uncovered "
              "risk interval")


def test_c10_kernel_conformance():
    # Zeno net: an always-enabled zero-interval self-loop trips the guard
    zeno = Net(
        places=["p"],
        transitions={"spin": TransitionRecord("spin", TRUE, 0, 0)},
        arcs=[Arc("p", "spin"), Arc("spin", "p")],
        initial_marking={"p": 1},
    )
    sigma = SignalState.declare()
    state = KernelState.initial(zeno)
    policy = FiringPolicy(zeno_limit=100)
    with pytest.raises(ZenoViolation):
        for _ in range(200):
            state, _ = advance_to_next_event(zeno, state, sigma, policy, 3)

    # deleted-escalation mutant: the explorer finds a counterexample whose
    # kernel replay reproduces it event for event
    smart = build_single_agent(SmartConfig())
    broken = mutant(smart, "t_SM")
    graph = explore(broken, ExplorationConfig(
        horizon=8, alphabet=["anom", "evidence", "safe", "hardware_fault"]))
    agent = smart.agents[0]
    formula = Formula(
        "bounded-response",
        And((agent.invalid, Not(agent.unrecoverable), Marked("P_S"))),
        place="P_M", within=smart.config.delta_s,
    )
    verdict = check_formula(graph, formula)
    assert verdict.status == "violated"
    replayed = replay_witness(graph, verdict.witness)
    assert [(s["tick"], s["firings"]) for s in verdict.witness] == replayed

    # replayed monitor agreement: the counterexample trace fails the monitor
    script = []
    for step in verdict.witness:
        for name, value in sorted(step["signals"].items()):
            script.append([step["tick"], name, value])
    doc = {
        "name": "counterexample", "net": {"builder": {"config": {}}},
        "horizon": max(s["tick"] for s in verdict.witness) + smart.config.delta_s + 1,
        "script": script,
    }
    scenario = parse_scenario(doc)
    scenario.smart = broken
    cex_trace, _ = run(scenario)
    assert check_bounded_autonomy(cex_trace).status == "violation"

    # byte-for-byte determinism of stored traces under a fixed seed
    blob = lambda: "\n".join(
        trace_lines(run(parse_scenario(scenario_path("robot-escalation")))[0])
    )
    assert blob() == blob()
    report(10, "Zeno guard trips; explorer counterexample replays through the "
               "kernel event-for-event and fails the matching monitor; traces "
               "are byte-identical under a fixed seed")
