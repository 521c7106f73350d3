import dataclasses

import pytest

from smart_tgpn.analysis import Formula
from smart_tgpn.builder import (
    AgentSpec,
    SmartConfig,
    SmartNet,
    Trigger,
    TriggerSet,
    build_multi_agent,
    default_trigger_set,
)
from smart_tgpn.guards import Sig, parse_guard
from smart_tgpn.monitor import (
    check_bounded_autonomy,
    check_distributed_soundness,
    check_formula_on_trace,
    check_governance_reachability,
    check_mandatory_escalation,
    check_output_gating,
    check_trigger_set,
)
from smart_tgpn.net import drop_transition
from smart_tgpn.scenario import Scenario, parse_scenario, run


def run_doc(doc):
    trace, report = run(parse_scenario(doc))
    return trace, report


def base_doc(name, horizon=20, **extra):
    doc = {"name": name, "net": {"builder": {"config": {}}}, "horizon": horizon}
    doc.update(extra)
    return doc


def mutate(trace_smart, tid):
    return SmartNet(
        drop_transition(trace_smart.net, tid), trace_smart.config, trace_smart.agents,
        trace_smart.coordination_places, trace_smart.gating_mode,
    )


class TestBoundedAutonomy:
    def test_escalation_at_onset_passes(self):
        trace, _ = run_doc(base_doc("p1", script=[[4, "anom", 1]]))
        verdict = check_bounded_autonomy(trace)
        assert verdict.status == "pass"

    def test_boundary_exit_at_deadline_passes(self):
        # latest policy holds the escalation to exactly onset + deadline
        trace, _ = run_doc(base_doc("p1-latest", policy="latest", script=[[4, "anom", 1]]))
        fires = [(e.time, e.name) for e in trace.firings(["t_SM"])]
        assert fires == [(6, "t_SM")]
        assert check_bounded_autonomy(trace).status == "pass"

    def test_mutant_without_escalation_violates(self):
        doc = base_doc("p1-mutant", script=[[4, "anom", 1]])
        scenario = parse_scenario(doc)
        scenario.smart = mutate(scenario.smart, "t_SM")
        trace, _ = run(scenario)
        verdict = check_bounded_autonomy(trace)
        assert verdict.status == "violation"
        assert any("still in P_S at 6" in v for v in verdict.violations)

    def test_retracted_premise_is_not_an_obligation(self):
        scenario = parse_scenario(base_doc("p1-blip", script=[[4, "anom", 1], [5, "anom", 0]]))
        scenario.smart = mutate(scenario.smart, "t_SM")
        trace, _ = run(scenario)
        assert check_bounded_autonomy(trace).status == "pass"


class TestOutputGating:
    def test_guarded_run_with_outputs_passes(self):
        trace, _ = run_doc(base_doc(
            "p2", script=[[1, "want_output", 1], [3, "anom", 1], [4, "want_output", 1], [7, "anom", 0]]
        ))
        verdict = check_output_gating(trace)
        assert verdict.status == "pass"
        assert not verdict.violations

    def test_no_outputs_is_vacuous_and_flagged(self):
        trace, _ = run_doc(base_doc("p2-quiet"))
        verdict = check_output_gating(trace)
        assert verdict.status == "vacuous"
        assert any("no output firings" in n for n in verdict.notes)

    def test_structural_window_firing_classified_not_violating(self):
        trace, _ = run_doc({
            "name": "p2-window",
            "net": {"builder": {"config": {"gating_mode": "structural-only",
                                           "hysteresis": {"enabled": True}}}},
            "horizon": 15,
            "signals": {"U": 0.2},
            "script": [[4, "U", 0.9], [5, "want_output", 1], [10, "U", 0.2]],
        })
        fired = [(e.time, e.name) for e in trace.firings(["t_out"])]
        assert fired == [(5, "t_out")]  # inside the pre-escalation window
        verdict = check_output_gating(trace)
        assert verdict.status == "pass"
        assert any("window" in n for n in verdict.notes)

    def test_each_agent_is_judged_by_its_own_gating_mode(self):
        smart = build_multi_agent([AgentSpec("a1", SmartConfig(gating_mode="structural-only")), AgentSpec("a2")])
        script = [(1, "anom_a1", 1), (1, "want_output_a1", 1), (8, "anom_a1", 0)]
        trace, _ = run(Scenario("p2-mixed", smart, horizon=12, policy="random", seed=6, script=script))
        assert [(e.time, e.name) for e in trace.firings(["t_out_a1"])] == [(2, "t_out_a1")]
        verdict = check_output_gating(trace)
        assert verdict.status == "pass", verdict.violations
        assert any("pre-escalation window" in n for n in verdict.notes)

    @staticmethod
    def structural_trace(script, dropped):
        scenario = parse_scenario({"name": "p2-structural", "horizon": 12, "script": script,
                                   "net": {"builder": {"config": {"gating_mode": "structural-only"}}}})
        scenario.smart = mutate(scenario.smart, dropped)
        return run(scenario)[0]

    def test_structural_output_past_the_window_violates(self):
        # invalid from 1 with no t_SM: the token stays in P_S past delta_s
        trace = self.structural_trace([[1, "anom", 1], [5, "want_output", 1]], "t_SM")
        verdict = check_output_gating(trace)
        assert verdict.violations == ["t_out fired at 5 under invalidity outside the bounded window"]

    def test_structural_window_under_unsafety_is_measured_from_invalidity(self):
        # UR and invalid from 1 with no t_SR: no premise interval, so the
        # window runs from the onset of invalidity
        trace = self.structural_trace(
            [[1, "hardware_fault", 1], [1, "anom", 1], [2, "want_output", 1], [8, "want_output", 1]], "t_SR")
        verdict = check_output_gating(trace)
        assert verdict.notes == ["t_out fired at 2 inside the bounded pre-escalation window (structural gating)"]
        assert verdict.violations == ["t_out fired at 8 under invalidity outside the bounded window"]


class TestMandatoryEscalation:
    def test_assisted_branch(self):
        trace, _ = run_doc(base_doc("p3-assist", signals={"assist": 1}, script=[[1, "anom", 1]]))
        verdict = check_mandatory_escalation(trace)
        assert verdict.status == "pass"
        assert trace.mode_residences(trace.smart.agents[0], "M")[0][2] == "t_MA"

    def test_return_branch(self):
        trace, _ = run_doc(base_doc("p3-return", script=[[1, "anom", 1], [4, "anom", 0]]))
        assert trace.mode_residences(trace.smart.agents[0], "M")[0][2] == "t_MS"
        assert check_mandatory_escalation(trace).status == "pass"

    def test_governance_branch_without_assist(self):
        trace, _ = run_doc(base_doc("p3-gov", script=[[1, "anom", 1]]))
        assert trace.mode_residences(trace.smart.agents[0], "M")[0][2] == "t_MR"
        assert check_mandatory_escalation(trace).status == "pass"

    def test_overstay_violates(self):
        doc = base_doc("p3-stuck", signals={"assist": 1}, script=[[1, "anom", 1]])
        scenario = parse_scenario(doc)
        for tid in ("t_MA", "t_MR"):
            scenario.smart = mutate(scenario.smart, tid)
        trace, _ = run(scenario)
        verdict = check_mandatory_escalation(trace)
        assert verdict.status == "violation"

    def test_governance_exit_taken_while_assisted_and_safe_violates(self):
        # t_MR reads t_MA's guard, and t_MA is gone
        scenario = parse_scenario(base_doc("p3-wrong-exit", signals={"assist": 1}, script=[[1, "anom", 1]]))
        net = scenario.smart.net
        scenario.smart.net = drop_transition(
            net.with_transitions([net.transitions["t_MR"].with_guard(net.transitions["t_MA"].guard)]), "t_MA")
        trace, _ = run(scenario)
        assert check_mandatory_escalation(trace).violations == ["t_MR at 6 but assist=True, UR=False"]


class TestGovernanceReachability:
    def test_unsafe_in_each_mode_reaches_regulated(self):
        for name in ("robot-ur-stop", "robot-ur-mid-m", "robot-ur-mid-a"):
            trace, _ = run(parse_scenario(f"scenarios/{name}.scenario.json"))
            verdict = check_governance_reachability(trace)
            assert verdict.status == "pass", (name, verdict.violations)

    def test_absorbing_without_authorization(self):
        trace, _ = run(parse_scenario("scenarios/robot-ur-stop.scenario.json"))
        agent = trace.smart.agents[0]
        entry, exit_time, _ = trace.mode_residences(agent, "R")[0]
        assert exit_time is None  # held to the end of the horizon

    def test_authorized_exit_is_not_a_violation(self):
        trace, _ = run(parse_scenario("scenarios/robot-ur-reset.scenario.json"))
        verdict = check_governance_reachability(trace)
        assert verdict.status == "pass"
        assert any("authorized exit t_RS" in n for n in verdict.notes)

    def test_unauthorized_exit_violates(self):
        doc = base_doc("p4-breakout", script=[[5, "safe", 0], [9, "safe", 1]])
        scenario = parse_scenario(doc)
        record = scenario.smart.net.transitions["t_RS"]
        freed = record.with_guard(scenario.smart.net.transitions["t_MS"].guard)
        scenario.smart.net = scenario.smart.net.with_transitions([freed])
        trace, _ = run(scenario)
        verdict = check_governance_reachability(trace)
        assert verdict.status == "violation"
        assert any("without authorization" in v for v in verdict.violations)

    def test_authorized_exit_while_unsafe_violates(self):
        # t_RS reads ext_auth alone; t_SR waits while ext_auth holds, so the
        # token stays in P_S after the exit
        scenario = parse_scenario(base_doc("p4-unsafe-exit", script=[[2, "hardware_fault", 1], [6, "ext_auth", 1]]))
        net = scenario.smart.net
        scenario.smart.net = net.with_transitions([
            net.transitions["t_RS"].with_guard(Sig("ext_auth")),
            net.transitions["t_SR"].with_guard(parse_guard("(not safe or hardware_fault) and not ext_auth")),
        ])
        trace, _ = run(scenario)
        assert check_governance_reachability(trace).violations == ["t_RS left P_R at 6 while unsafe"]


class TestDistributedSoundness:
    def test_persistent_disagreement_blocks_and_escalates(self):
        trace, _ = run(parse_scenario("scenarios/robot-consensus-conflict.scenario.json"))
        verdict = check_distributed_soundness(trace)
        assert verdict.status == "pass"
        assert trace.firings(["t_AS_a1", "t_AS_a2"]) == []
        ar = trace.firings(["t_AR_a1", "t_AR_a2"])
        assert {e.name for e in ar} == {"t_AR_a1", "t_AR_a2"}

    def test_resolution_restores_both_agents(self):
        trace, _ = run(parse_scenario("scenarios/robot-consensus-resolved.scenario.json"))
        verdict = check_distributed_soundness(trace)
        assert verdict.status == "pass"
        assert {e.name for e in trace.firings(["t_AS_a1", "t_AS_a2"])} == {"t_AS_a1", "t_AS_a2"}

    def test_return_under_disagreement_flagged(self):
        # disagreement raised at the very instant of a (legal) return: force
        # the breach by rewriting the trace's own guard view is heavyweight,
        # so instead drop the disagreement conjunct from the return guard
        from smart_tgpn.guards import And, Not

        scenario = parse_scenario("scenarios/robot-consensus-conflict.scenario.json")
        agent = scenario.smart.agent("a1")
        record = scenario.smart.net.transitions["t_AS_a1"]
        scenario.smart.net = scenario.smart.net.with_transitions(
            [record.with_guard(And((Not(agent.invalid), Not(agent.unrecoverable))))]
        )
        doc_script_clears_anom = [[9, "anom_a1", 0]]
        scenario = dataclasses.replace(scenario, script=scenario.script + [(9, "anom_a1", 0)])
        trace, _ = run(scenario)
        verdict = check_distributed_soundness(trace)
        assert verdict.status == "violation"
        assert any("t_AS_a1" in v for v in verdict.violations)

    def test_single_agent_return_waits_for_the_consensus_token(self):
        # t_agree marks P_agree at 12 and t_AS, which consumes it, fires at
        # 14: the return was owed from 12, not from the resolution at 10
        trace, _ = run_doc(base_doc("p5-single", policy="latest", signals={"assist": 1, "agree": 1},
                                    script=[[1, "anom", 1], [10, "anom", 0]]))
        assert [(e.time, e.name) for e in trace.firings(["t_agree", "t_AS"])] == [(12, "t_agree"), (14, "t_AS")]
        verdict = check_distributed_soundness(trace)
        assert verdict.status == "pass", verdict.violations

    @pytest.mark.parametrize("lapse, violations", [
        ([], ["agent default: resolution at 10 did not produce t_AS by 12"]),
        ([[11, "anom", 1]], []),  # the return was owed only while the resolution lasted
    ])
    def test_a_resolution_that_lapses_before_its_deadline_owes_no_return(self, lapse, violations):
        scenario = parse_scenario(base_doc("p5-lapse", signals={"assist": 1},
                                           script=[[1, "anom", 1], [10, "anom", 0], [10, "agree", 1], *lapse]))
        scenario.smart = mutate(scenario.smart, "t_AS")
        trace, _ = run(scenario)
        assert check_distributed_soundness(trace).violations == violations


class TestTriggerSet:
    def suite_traces(self):
        names = [
            "robot-nominal", "robot-escalation", "robot-no-assist",
            "robot-ur-stop", "robot-ur-spike", "robot-consensus-conflict",
        ]
        traces = []
        for name in names:
            trace, _ = run(parse_scenario(f"scenarios/{name}.scenario.json"))
            traces.append(trace)
        return traces

    def test_default_triggers_pass_reference_suite(self):
        traces = self.suite_traces()
        for trace in traces:
            triggers = default_trigger_set(trace.smart)
            verdict = check_trigger_set([trace], triggers)
            assert verdict.ok, (trace.meta["scenario"], verdict.to_record())

    def test_estop_deleted_mutant_fails_completeness_once(self):
        scenario = parse_scenario("scenarios/robot-ur-spike.scenario.json")
        scenario.smart = mutate(scenario.smart, "t_SR")
        scenario.propositions = []
        trace, _ = run(scenario)
        triggers = default_trigger_set(trace.smart).without("t_SR")
        verdict = check_trigger_set([trace], triggers)
        assert len(verdict.completeness) == 1
        assert verdict.completeness[0]["interval"] == [8, 12]

    def test_dwell_shrink_never_hides_a_violation(self):
        scenario = parse_scenario("scenarios/robot-ur-spike.scenario.json")
        scenario.smart = mutate(scenario.smart, "t_SR")
        scenario.propositions = []
        trace, _ = run(scenario)
        wide = default_trigger_set(trace.smart).without("t_SR")
        narrow = default_trigger_set(trace.smart).without("t_SR")
        narrow.dwell = 0
        wide_violations = len(check_trigger_set([trace], wide).completeness)
        narrow_violations = len(check_trigger_set([trace], narrow).completeness)
        assert narrow_violations >= wide_violations

    def test_a_return_enabled_where_a_debounce_completes_is_not_blocked(self):
        """With hysteresis, t_MS reads held_for(valid_down, 2): evidence is
        back at 20, so it holds from 22 until U rises at 36, on ticks where
        nothing changes. Under latest a weak return never fires, so the
        token stays in P_M from 15."""
        doc = base_doc("debounced-return", horizon=49, policy="latest", signals={"U": 0.2}, triggers="default",
                       script=[[11, "evidence", 0], [20, "evidence", 1], [36, "U", 0.45]])
        doc["net"]["builder"]["config"] = {"hysteresis": {"enabled": True}}
        trace, report = run_doc(doc)
        guard = trace.smart.net.transitions["t_MS"].guard
        assert [t for t in range(15, 50) if trace.eval_at(guard, t)] == list(range(22, 36))
        assert report.trigger_verdict.soundness == []

    def test_vacuous_low_risk_trace_is_sound(self):
        trace, _ = run_doc(base_doc("calm", script=[[2, "want_output", 1]]))
        triggers = default_trigger_set(trace.smart)
        verdict = check_trigger_set([trace], triggers)
        assert verdict.ok
        assert verdict.completeness == [] and verdict.soundness == []

    def test_a_governance_trigger_outside_the_risk_is_unsound(self):
        # a set that counts t_SM as a governance trigger, with unsafety as
        # its risk: t_SM fires at 3 on anom alone
        trace, _ = run_doc(base_doc("unsound", script=[[3, "anom", 1]]))
        triggers = TriggerSet([], [], [Trigger("t_SM")], trace.smart.agents[0].unrecoverable)
        soundness = check_trigger_set([trace], triggers).soundness
        assert {"trace": "unsound", "trigger": "t_SM", "time": 3} in soundness


class TestTraceFormulas:
    def test_safety_and_bounded_response_on_a_trace(self):
        trace, _ = run_doc(base_doc("tf", signals={"assist": 1}, script=[[1, "anom", 1], [9, "anom", 0]]))
        smart = trace.smart
        inv = smart.agents[0].invalid
        safety = Formula("safety", inv, forbidden=("output",), name="gate")
        assert check_formula_on_trace(trace, safety).status == "holds"
        verdict = check_formula_on_trace(trace, Formula(
            "bounded-response", inv, place="P_M", within=smart.config.delta_s
        ))
        assert verdict.status == "holds"

    def test_never_while_on_conflict_trace(self):
        from smart_tgpn.guards import And, Not, Sig

        trace, _ = run(parse_scenario("scenarios/robot-consensus-conflict.scenario.json"))
        formula = Formula(
            "never-while",
            And((Sig("disagree"), Not(Sig("ext_auth_a1")))),
            place="P_S_a1",
            from_places=("P_A_a1",),
        )
        # the one interval starts at 5; a1 enters P_A at 6, the anchor
        assert check_formula_on_trace(trace, formula).status == "holds"

    def test_never_while_anchors_inside_an_interval_as_the_explorer_does(self):
        from smart_tgpn.analysis import ExplorationConfig, check_formula, explore
        from smart_tgpn.guards import Not, Sig

        # not ext_auth holds from 0; P_M is first marked at 3 (t_SM), and
        # t_MS marks P_S again at 7
        trace, _ = run(parse_scenario("scenarios/robot-nominal.scenario.json"))
        formula = Formula("never-while", Not(Sig("ext_auth")), place="P_S", from_places=("P_M",))
        verdict = check_formula_on_trace(trace, formula)
        assert (verdict.status, verdict.witness) == ("violated", [{"time": 7, "interval": [0, 20]}])
        graph = explore(trace.smart, ExplorationConfig(horizon=10, alphabet=["anom", "ext_auth"]))
        verdict = check_formula(graph, formula)
        assert verdict.status == "violated"
        # the witness runs on to the return that marks P_S
        assert [step["firings"] for step in verdict.witness] == [["t_SM"], ["t_MS"]]

    def test_never_while_without_an_anchor_is_vacuous(self):
        from smart_tgpn.guards import Sig

        trace, _ = run(parse_scenario("scenarios/robot-nominal.scenario.json"))
        formula = Formula("never-while", Sig("safe"), place="P_S", from_places=("P_R",))
        assert check_formula_on_trace(trace, formula).status == "vacuous"


def test_trace_formulas_accept_held_for():
    # a trace carries signal history, so held_for keeps its meaning here
    trace, _ = run_doc(base_doc("held", script=[[2, "anom", 1], [8, "anom", 0]]))
    formula = Formula("reach", parse_guard("held_for(anom, 2)"), place="P_M", within=2)
    assert check_formula_on_trace(trace, formula).status == "holds"


def two_agent_doc(name, horizon, **extra):
    doc = {"name": name, "net": {"builder": {"agents": ["a1", "a2"]}}, "horizon": horizon}
    doc.update(extra)
    return doc


def formula_doc(kind):
    formula = {"kind": kind, "condition": "invalid and not UR", "place": "P_M", "within": 2}
    return lambda h: base_doc(kind, h, script=[[4, "anom", 1]], formulas=[formula])


def first_formula(trace, report):
    return report.formula_verdicts[0]


# case -> (its scenario at a given horizon, the transitions dropped from
# the net so that nothing meets the obligation, the verdict read, the
# obligation's deadline)
DEADLINES = {
    # invalid from 4, delta_s 2, no t_SM
    "P1": (lambda h: base_doc("p1-edge", h, script=[[4, "anom", 1]]), ("t_SM",),
           lambda trace, _: check_bounded_autonomy(trace), 6),
    # U settles between theta_down and theta with anom 0 and evidence 1: no
    # M exit is enabled, and the token entered P_M at 3 (bound 5 + 1)
    "P3-open-residence": (
        lambda h: {"name": "p3-edge", "net": {"builder": {"config": {"hysteresis": {"enabled": True}}}},
                   "horizon": h, "script": [[1, "U", 0.9], [5, "U", 0.4]]},
        (), lambda trace, _: check_mandatory_escalation(trace), 9),
    # unsafe from 4, governance bound 3, no t_SR
    "P4": (lambda h: base_doc("p4-edge", h, script=[[4, "hardware_fault", 1]]), ("t_SR",),
           lambda trace, _: check_governance_reachability(trace), 7),
    # disagreeing from the entry to P_A_a1 at 6, budget_a 5 + delta_ar 1, no t_AR_a1
    "P5-disagreeing-residence": (
        lambda h: two_agent_doc("p5-edge", h, signals={"assist_a1": 1},
                                script=[[1, "anom_a1", 1], [1, "disagree", 1]]),
        ("t_AR_a1",), lambda trace, _: check_distributed_soundness(trace), 12),
    # return permitted from 10, delta_a 2, no t_AS
    "P5-resolution": (
        lambda h: base_doc("p5-resolved-edge", h, signals={"assist": 1},
                           script=[[1, "anom", 1], [10, "anom", 0], [10, "agree", 1]]),
        ("t_AS",), lambda trace, _: check_distributed_soundness(trace), 12),
    # invalid from 4, P_M within 2, no t_SM
    "bounded-response": (formula_doc("bounded-response"), ("t_SM",), first_formula, 6),
    "reach": (formula_doc("reach"), ("t_SM",), first_formula, 6),
}


@pytest.mark.parametrize("case", DEADLINES)
def test_a_deadline_is_decided_once_the_horizon_reaches_it(case):
    doc, dropped, verdict_of, deadline = DEADLINES[case]
    verdicts = []
    for horizon in (deadline - 1, deadline):
        scenario = parse_scenario(doc(horizon))
        for tid in dropped:
            scenario.smart = mutate(scenario.smart, tid)
        verdicts.append(verdict_of(*run(scenario)))
    assert verdicts[0].status == "inconclusive"
    assert verdicts[1].status in ("violation", "violated")
    if case == "P3-open-residence":
        # at the deadline the residence has lasted its bound, not more
        assert verdicts[1].violations == ["residence from 3 has no exit by its deadline 9"]
