import pytest

from smart_tgpn.analysis import check_p_invariant, incidence_matrix, mode_indicator
from smart_tgpn.builder import (
    AgentSpec,
    Hysteresis,
    SmartConfig,
    SmartConfigError,
    build_macro_only,
    build_multi_agent,
    build_single_agent,
    default_trigger_set,
    validate_smart,
)
from smart_tgpn.guards import And, Not, Sig, guard_to_string, held_terms
from smart_tgpn.net import Arc, Net, TransitionRecord, validate_net

MACRO_TRANSITIONS = {"t_out", "t_SM", "t_SR", "t_MS", "t_MA", "t_MR", "t_AS", "t_AR", "t_RS"}
SUBNET_TRANSITIONS = {"t_propose", "t_verify", "t_agree", "t_conflict", "t_resolve", "t_Aexit"}


class TestSingleAgent:
    def test_exact_transition_inventory(self):
        smart = build_single_agent(SmartConfig())
        assert set(smart.net.transitions) == MACRO_TRANSITIONS | SUBNET_TRANSITIONS

    def test_initial_marking_single_stable_token(self):
        smart = build_single_agent(SmartConfig())
        marked = {p for p, c in smart.net.initial_marking.items() if c}
        assert marked == {"P_S"}
        for place in smart.coordination_places:
            assert smart.net.initial_marking[place] == 0

    def test_escalation_guard_forms(self):
        smart = build_single_agent(SmartConfig())
        t = smart.net.transitions
        assert guard_to_string(t["t_MR"].guard) == (
            "(not safe or hardware_fault) or "
            "(U >= 0.5 or anom or not evidence) and timeout_M and not assist"
        )
        assert guard_to_string(t["t_MA"].guard) == (
            "(U >= 0.5 or anom or not evidence) and timeout_M and "
            "not (not safe or hardware_fault) and assist"
        )
        assert "marked(P_agree, 1)" in guard_to_string(t["t_AS"].guard)

    def test_strong_intervals_match_config(self):
        cfg = SmartConfig(delta_s=4, delta_sr=2, delta_m=3, delta_mr=2, delta_a=5, delta_ar=3)
        smart = build_single_agent(cfg)
        t = smart.net.transitions
        assert t["t_SM"].interval == (0, 4) and t["t_SM"].timing == "strong"
        assert t["t_SR"].interval == (0, 2)
        assert t["t_MA"].interval == (0, 3)
        assert t["t_MR"].interval == (0, 2)
        assert t["t_AS"].interval == (0, 5)
        assert t["t_AR"].interval == (0, 3)

    def test_output_reads_and_restores_the_stable_token(self):
        smart = build_single_agent(SmartConfig())
        assert smart.net.pre("t_out") == {"P_S": 1, "P_want": 1}
        assert smart.net.post("t_out") == {"P_S": 1}

    def test_structural_only_gating_drops_the_output_guard(self):
        smart = build_single_agent(SmartConfig(gating_mode="structural-only"))
        assert guard_to_string(smart.net.transitions["t_out"].guard) == "true"

    def test_builder_output_passes_both_validators(self):
        smart = build_single_agent(SmartConfig())
        assert validate_net(smart.net, smart.bool_signals() + smart.real_signals()).ok
        assert validate_smart(smart).ok

    def test_mode_indicator_is_a_p_invariant(self):
        smart = build_single_agent(SmartConfig())
        assert check_p_invariant(incidence_matrix(smart.net), mode_indicator(smart))

    def test_invalid_config_rejected(self):
        with pytest.raises(SmartConfigError):
            build_single_agent(SmartConfig(delta_s=0))


class TestMultiAgent:
    def test_two_agents_have_eight_mode_places(self):
        smart = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
        assert len(smart.mode_place_ids) == 8
        assert {"t_AS_a1", "t_AS_a2", "t_AR_a1", "t_AR_a2"} <= set(smart.net.transitions)
        assert guard_to_string(smart.net.transitions["t_AS_a1"].guard).startswith(
            "not disagree and agree"
        )
        assert check_p_invariant(incidence_matrix(smart.net), mode_indicator(smart))
        assert validate_smart(smart).ok

    def test_single_agent_list_rejected(self):
        with pytest.raises(SmartConfigError):
            build_multi_agent([AgentSpec("solo")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SmartConfigError):
            build_multi_agent([AgentSpec("a"), AgentSpec("a")])

    def test_governance_guard_uses_shared_disagreement(self):
        smart = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
        text = guard_to_string(smart.net.transitions["t_AR_a2"].guard)
        assert "disagree and timeout_A_a2" in text


class TestHysteresis:
    def test_rewrites_exactly_the_two_debounced_guards(self):
        cfg = SmartConfig(hysteresis=Hysteresis(enabled=True, theta_up=0.7, theta_down=0.3,
                                                debounce_up=2, debounce_down=2))
        plain = build_single_agent(SmartConfig())
        smart = build_single_agent(cfg)
        t_sm = smart.net.transitions["t_SM"].guard
        assert guard_to_string(t_sm) == (
            "held_for(U >= 0.7 or anom or not evidence, 2) and "
            "not (not safe or hardware_fault)"
        )
        terms = held_terms(smart.net.transitions["t_MS"].guard)
        assert terms and terms[0].duration == 2
        changed = {
            tid for tid in plain.net.transitions
            if plain.net.transitions[tid].guard != smart.net.transitions[tid].guard
        }
        assert changed == {"t_SM", "t_MS"}
        # structure untouched
        assert smart.net.places == plain.net.places
        assert [(a.source, a.target, a.weight) for a in smart.net.arcs] == [
            (a.source, a.target, a.weight) for a in plain.net.arcs
        ]

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(SmartConfigError):
            build_single_agent(SmartConfig(hysteresis=Hysteresis(enabled=True, theta_up=0.3, theta_down=0.3)))

    def test_multi_agent_build_debounces_each_agent_by_its_own_config(self):
        smart = build_multi_agent(
            [AgentSpec("a1"), AgentSpec("a2", SmartConfig())],
            base_config=SmartConfig(hysteresis=Hysteresis(enabled=True)),
        )
        assert guard_to_string(smart.net.transitions["t_SM_a1"].guard) == (
            "held_for(U_a1 >= 0.7 or anom_a1 or not evidence_a1, 2) and "
            "not (not safe_a1 or hardware_fault_a1)"
        )
        assert held_terms(smart.net.transitions["t_MS_a1"].guard)
        assert not held_terms(smart.net.transitions["t_SM_a2"].guard)


    def test_macro_only_build_debounces_too(self):
        plain = build_macro_only(SmartConfig())
        smart = build_macro_only(SmartConfig(hysteresis=Hysteresis(enabled=True)))
        assert guard_to_string(smart.net.transitions["t_SM"].guard) == (
            "held_for(U >= 0.7 or anom or not evidence, 2) and "
            "not (not safe or hardware_fault)"
        )
        assert held_terms(smart.net.transitions["t_MS"].guard)
        changed = {
            tid for tid in plain.net.transitions
            if plain.net.transitions[tid].guard != smart.net.transitions[tid].guard
        }
        assert changed == {"t_SM", "t_MS"}


class TestValidateSmart:
    def test_output_missing_stable_preplace_flagged(self):
        smart = build_single_agent(SmartConfig())
        arcs = [a for a in smart.net.arcs if not (a.source == "P_S" and a.target == "t_out")]
        smart.net = Net(
            smart.net.places, dict(smart.net.transitions), arcs, dict(smart.net.initial_marking)
        )
        report = validate_smart(smart)
        assert not report.check("output-gating").passed

    def test_unguarded_regulated_exit_flagged(self):
        smart = build_single_agent(SmartConfig())
        loose = smart.net.transitions["t_RS"].with_guard(
            smart.net.transitions["t_MS"].guard  # no ext_auth requirement
        )
        smart.net = smart.net.with_transitions([loose])
        report = validate_smart(smart)
        assert not report.check("regulated-absorbing").passed

    @pytest.mark.parametrize("loose", [True, False], ids=["exit-without-ext_auth", "exit-needs-ext_auth"])
    def test_twenty_atom_regulated_exit_probe(self, loose):
        """The probe decides a 20-atom exit guard over its 2^20 assignments:
        19 free signals and ext_auth, pinned false."""
        smart = build_single_agent(SmartConfig())
        free = tuple(Sig(f"x{i}") for i in range(19))
        guard = And(free + (Not(Sig("ext_auth")) if loose else Sig("ext_auth"),))
        smart.net = smart.net.with_transitions([smart.net.transitions["t_RS"].with_guard(guard)])
        check = validate_smart(smart).check("regulated-absorbing")
        assert check.witnesses == (["t_RS: can exit P_R without ext_auth"] if loose else [])
        assert check.passed is not loose

    def test_weakly_timed_escalation_flagged(self):
        smart = build_single_agent(SmartConfig())
        record = smart.net.transitions["t_SM"]
        smart.net = smart.net.with_transitions(
            [TransitionRecord("t_SM", record.guard, 0, float("inf"), "weak", record.role, record.priority)]
        )
        report = validate_smart(smart)
        assert not report.check("strong-deadlines").passed

    def test_mode_flow_conservation_flagged(self):
        smart = build_single_agent(SmartConfig())
        arcs = list(smart.net.arcs) + [Arc("t_SM", "P_A")]  # second mode token out
        smart.net = Net(smart.net.places, dict(smart.net.transitions), arcs, dict(smart.net.initial_marking))
        report = validate_smart(smart)
        assert not report.check("mode-token-flow").passed


def test_default_trigger_set_mirrors_guards():
    smart = build_single_agent(SmartConfig())
    triggers = default_trigger_set(smart)
    assert [t.name for t in triggers.t_m] == ["t_SM"]
    assert [t.name for t in triggers.t_a] == ["t_MA"]
    assert [t.name for t in triggers.t_rt] == ["t_SR", "t_MR", "t_AR"]
    assert triggers.dwell == 1
    assert "U >= 0.5" in guard_to_string(triggers.u_risk)
    stripped = triggers.without("t_SR")
    assert [t.name for t in stripped.t_rt] == ["t_MR", "t_AR"]


def test_three_agent_conflict_never_enables_any_return():
    """With shared disagreement held, no agent's return-from-A can fire."""
    from smart_tgpn.scenario import parse_scenario, run

    doc = {
        "name": "triple",
        "net": {"builder": {"agents": ["a1", "a2", "a3"], "config": {}}},
        "horizon": 25,
        "signals": {"assist_a1": 1, "assist_a2": 1, "assist_a3": 1, "disagree": True},
        "script": [[1, "anom_a1", 1], [1, "anom_a2", 1], [1, "anom_a3", 1]],
        "propositions": ["P5"],
    }
    trace, report = run(parse_scenario(doc))
    assert trace.firings(["t_AS_a1", "t_AS_a2", "t_AS_a3"]) == []
    assert {e.name for e in trace.firings(["t_AR_a1", "t_AR_a2", "t_AR_a3"])} == {
        "t_AR_a1", "t_AR_a2", "t_AR_a3"
    }
    assert report.status == "pass"


def test_missing_governance_exit_flagged():
    from smart_tgpn.builder import SmartNet
    from smart_tgpn.net import drop_transition

    smart = build_single_agent(SmartConfig())
    mutant = SmartNet(
        drop_transition(smart.net, "t_SR"), smart.config, smart.agents,
        smart.coordination_places, smart.gating_mode,
    )
    report = validate_smart(mutant)
    result = report.check("governance-exits")
    assert not result.passed
    assert any("P_S" in w for w in result.witnesses)


def test_mode_in_reads_the_agents_own_mode_place():
    agent = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]).agent("a2")
    assert agent.mode_in({"P_S_a1": 1, "P_M_a2": 1}) == "M"
    assert agent.mode_in({"P_S_a1": 1, "P_M_a2": 0}) is None
