import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smart_tgpn.scenario import ScenarioError, parse_scenario, run, verify
from smart_tgpn.trace import read_trace, trace_lines, write_trace

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def base_doc(**extra):
    doc = {
        "name": "scn",
        "net": {"builder": {"config": {}}},
        "horizon": 12,
        "script": [[3, "anom", 1], [7, "anom", 0]],
        "propositions": ["P1", "P2"],
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_reference_scenario_resolves(self):
        scenario = parse_scenario("scenarios/robot-nominal.scenario.json")
        signal_entries = [e for e in scenario.script if not e[1].startswith("want_output")]
        assert [(t, n, v) for t, n, v in signal_entries] == [(3, "anom", 1), (7, "anom", 0)]
        assert len(scenario.deposits()) == 5

    def test_script_entry_beyond_horizon_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_doc(script=[[99, "anom", 1]]))

    def test_undeclared_script_signal_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_doc(script=[[1, "nonsense", 1]]))

    def test_missing_required_field_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"name": "x", "horizon": 5})

    def test_declared_real_without_initial_warns_and_defaults(self):
        scenario = parse_scenario(base_doc(declare={"reals": ["drift"]}))
        assert any("drift" in w for w in scenario.warnings)
        sigma = scenario.signal_state()
        assert sigma.value_at("drift", 0) == 0.0

    def test_a_false_output_attempt_schedules_no_deposit(self):
        script = [[2, "want_output", 0], [4, "want_output", False], [6, "want_output", 1], [6, "want_output", True]]
        scenario = parse_scenario(base_doc(script=script))
        assert scenario.deposits() == [(6, "P_want"), (6, "P_want")]

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SMART_TGPN_SEED", "41")
        scenario = parse_scenario(base_doc())
        assert scenario.seed == 41


class TestRunLoop:
    def test_escalation_fires_within_deadline(self):
        trace, report = run(parse_scenario(base_doc()))
        assert [(e.time, e.name) for e in trace.firings(["t_SM"])] == [(3, "t_SM")]
        assert report.status == "pass"

    def test_estop_and_absorption(self):
        doc = base_doc(horizon=20, script=[[10, "safe", 0]], propositions=["P4"])
        trace, report = run(parse_scenario(doc))
        assert [(e.time, e.name) for e in trace.firings(["t_SR"])] == [(10, "t_SR")]
        agent = trace.smart.agents[0]
        assert trace.mode_at(agent, 20) == "R"
        assert report.status == "pass"
        assert trace.quiesced_at == 10

    def test_two_agent_conflict_blocks_actuation(self):
        trace, report = run(parse_scenario("scenarios/robot-consensus-conflict.scenario.json"))
        conflicts = trace.firings(["t_conflict"])
        assert conflicts and all(e.time == 6 for e in conflicts)
        assert trace.firings(["t_AS_a1", "t_AS_a2"]) == []
        ar_times = {e.name: e.time for e in trace.firings(["t_AR_a1", "t_AR_a2"])}
        assert ar_times == {"t_AR_a1": 11, "t_AR_a2": 11}
        assert report.status == "pass"

    def test_derived_agreement_from_claims(self):
        doc = {
            "name": "claims",
            "net": {"builder": {"agents": ["a1", "a2"], "config": {}}},
            "horizon": 20,
            "derive_agreement": True,
            "signals": {"assist_a1": 1, "assist_a2": 1, "claim_a1": 1.0, "claim_a2": 2.0},
            "script": [[1, "anom_a1", 1], [1, "anom_a2", 1],
                       [8, "claim_a2", 1.0], [9, "anom_a1", 0], [9, "anom_a2", 0]],
            "propositions": ["P5"],
        }
        trace, report = run(parse_scenario(doc))
        assert bool(trace.sigma.value_at("disagree", 0)) is True
        assert bool(trace.sigma.value_at("disagree", 8)) is False
        assert bool(trace.sigma.value_at("agree", 8)) is True
        assert {e.name for e in trace.firings(["t_AS_a1", "t_AS_a2"])} == {"t_AS_a1", "t_AS_a2"}
        assert report.status == "pass"

    def test_reentry_into_recovery_at_the_timeout_instant(self):
        # invalid, unassisted and authorized: the recovery budget expires at
        # 7 and t_MR, t_RS and t_SM fire in that instant; re-entering P_M
        # restarts the residence, so timeout_M is false again by the end
        # of the instant and expires next at 12
        doc = base_doc(horizon=14, script=[[2, "anom", 1], [3, "ext_auth", 1]], propositions=["P3"])
        trace, _ = run(parse_scenario(doc))
        assert [(e.time, e.name) for e in trace.firings()] == [
            (2, "t_SM"), (7, "t_MR"), (7, "t_RS"), (7, "t_SM"),
            (12, "t_MR"), (12, "t_RS"), (12, "t_SM"),
        ]
        assert trace.sigma.histories["timeout_M"] == [(0, False)]

    def test_two_agent_hysteresis_ignores_a_one_tick_blip(self):
        doc = base_doc(
            net={"builder": {"agents": 2, "config": {"hysteresis": {"enabled": True}}}},
            script=[[3, "anom_a1", 1], [4, "anom_a1", 0]],
        )
        trace, report = run(parse_scenario(doc))
        assert trace.firings(["t_SM_a1", "t_SM_a2"]) == []
        assert report.status == "pass"


CLAIMS = [0.0, 1.0, 2.5]


@st.composite
def claim_scenarios(draw):
    """A two- or three-agent scenario with derived agreement and a random
    claim script, and each agent's claim per tick as the script sets it."""
    agents = ["a1", "a2", "a3"][:draw(st.integers(2, 3))]
    horizon = 10
    initial = {f"claim_{a}": draw(st.sampled_from(CLAIMS)) for a in agents}
    initial["disagree"] = draw(st.booleans())  # overwritten at tick 0
    script, claims = [], {}
    for a in agents:
        value = initial[f"claim_{a}"]
        changes = dict(draw(st.lists(st.tuples(st.integers(1, horizon), st.sampled_from(CLAIMS)), max_size=4)))
        script += [[t, f"claim_{a}", v] for t, v in changes.items()]
        claims[a] = [value := changes.get(tick, value) for tick in range(horizon + 1)]
    doc = {"name": "claims", "net": {"builder": {"agents": agents, "config": {}}}, "horizon": horizon,
           "derive_agreement": True, "signals": initial, "script": script}
    return doc, claims


@settings(max_examples=60, deadline=None, derandomize=True)
@given(claim_scenarios())
def test_derived_agreement_is_whether_two_claims_differ(case):
    doc, claims = case
    trace, _ = run(parse_scenario(doc))
    for tick in range(doc["horizon"] + 1):
        differ = len({values[tick] for values in claims.values()}) > 1
        assert trace.sigma.value_at("disagree", tick) is differ
        assert trace.sigma.value_at("agree", tick) is not differ


class TestReplayFidelity:
    def test_stored_trace_verifies_identically(self, tmp_path):
        scenario = parse_scenario(base_doc(propositions=["P1", "P2", "P3"]))
        trace, inline_report = run(scenario)
        path = tmp_path / "run.trace.jsonl"
        write_trace(trace, str(path))
        reloaded = read_trace(str(path))
        reloaded.smart = scenario.smart
        stored_report = verify(reloaded, scenario)
        assert [v.to_record() for v in stored_report.verdicts] == [
            v.to_record() for v in inline_report.verdicts
        ]

    def test_identical_seed_identical_bytes(self):
        doc = base_doc(policy="random", seed=9)
        first = "\n".join(trace_lines(run(parse_scenario(doc))[0]))
        second = "\n".join(trace_lines(run(parse_scenario(doc))[0]))
        assert first == second

    @pytest.mark.parametrize("source", [*sorted(p.name for p in SCENARIOS.glob("*.scenario.json")), "reentry"])
    def test_one_parsed_scenario_runs_twice_alike(self, source):
        """A run records its derived timeouts into its own copy of the
        histories resolved at parse, so a parsed scenario reruns unchanged."""
        # the re-entry case raises and withdraws timeout_M at one instant
        doc = (base_doc(horizon=14, script=[[2, "anom", 1], [3, "ext_auth", 1]]) if source == "reentry"
               else str(SCENARIOS / source))
        scenario = parse_scenario(doc)
        (first, first_report), (second, second_report) = run(scenario), run(scenario)
        assert list(trace_lines(first)) == list(trace_lines(second))
        assert first_report.to_record() == second_report.to_record()
        assert scenario.signal_state() == parse_scenario(doc).signal_state()

    def test_round_trip_preserves_events(self, tmp_path):
        trace, _ = run(parse_scenario(base_doc()))
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        again = read_trace(str(path))
        assert [(e.time, e.kind, e.name) for e in again.events] == [
            (e.time, e.kind, e.name) for e in trace.events
        ]
        assert again.horizon == trace.horizon
        assert again.meta["seed"] == trace.meta["seed"]


def test_report_record_is_json_serializable():
    _, report = run(parse_scenario(base_doc(triggers="default")))
    blob = json.dumps(report.to_record(), sort_keys=True)
    assert '"status": "pass"' in blob
