import json
from pathlib import Path

import pytest

from smart_tgpn.builder import AgentSpec, SmartConfig, SmartNet, build_macro_only, build_multi_agent, build_single_agent
from smart_tgpn.cli import _build_parser, main
from smart_tgpn.netio import load_smart, net_to_document, save_net, save_smart, smart_from_document, smart_to_document
from smart_tgpn.net import Arc, Net, TransitionRecord, drop_transition


@pytest.fixture()
def smart_net_file(tmp_path):
    path = tmp_path / "smart.net.json"
    save_smart(build_single_agent(SmartConfig()), str(path))
    return str(path)


def test_validate_ok(smart_net_file, capsys):
    assert main(["validate", smart_net_file]) == 0
    out = capsys.readouterr().out
    assert "errors: 0" in out


def test_validate_dangling_arc_is_input_error(tmp_path, capsys):
    net = Net(places=["p"], transitions={"t": TransitionRecord("t")}, arcs=[Arc("t", "ghost")])
    path = tmp_path / "bad.net.json"
    save_net(net, str(path))
    assert main(["validate", str(path)]) == 3
    assert "dangling arc" in capsys.readouterr().out


def test_net_file_round_trip(smart_net_file):
    smart = load_smart(smart_net_file)
    rebuilt = build_single_agent(SmartConfig())
    assert set(smart.net.transitions) == set(rebuilt.net.transitions)
    for tid in rebuilt.net.transitions:
        assert smart.net.transitions[tid].guard == rebuilt.net.transitions[tid].guard
        assert smart.net.transitions[tid].interval == rebuilt.net.transitions[tid].interval
    assert smart.net.initial_marking == rebuilt.net.initial_marking


@pytest.mark.parametrize(
    "build",
    [lambda: build_single_agent(SmartConfig()), lambda: build_macro_only(SmartConfig(gating_mode="structural-only")),
     lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2", SmartConfig(budget_a=2))], SmartConfig(theta=0.6))],
    ids=["single", "macro-only", "two-agent"],
)
def test_a_loaded_net_derives_what_its_builder_bound(build):
    """A saved net states each agent's id and config only; loading it
    derives the names, the gating mode and the coordination places."""
    smart = build()
    doc = json.loads(json.dumps(smart_to_document(smart)))
    assert set(doc["smart"]) == {"config", "agents"}
    assert all(set(agent) == {"id", "config"} for agent in doc["smart"]["agents"])
    loaded = smart_from_document(doc)
    assert loaded.agents == smart.agents
    assert (loaded.coordination_places, loaded.gating_mode) == (smart.coordination_places, smart.gating_mode)


def _saved_without(tmp_path, tid: str) -> Path:
    """The single-agent net, ``tid`` dropped, saved as a net file."""
    smart = build_single_agent(SmartConfig())
    path = tmp_path / f"no-{tid}.net.json"
    save_smart(SmartNet(drop_transition(smart.net, tid), smart.config, smart.agents,
                        smart.coordination_places, smart.gating_mode), str(path))
    return path


def test_validate_reports_a_missing_output_as_a_witness(tmp_path, capsys):
    assert main(["validate", str(_saved_without(tmp_path, "t_out"))]) == 1
    out = capsys.readouterr().out
    assert "output-gating: FAIL\n  missing transition t_out\n" in out


@pytest.mark.parametrize("script, blocked", [([[2, "anom", 1]], []), ([[2, "anom", 1], [4, "anom", 0]], [[2, 12]])],
                         ids=["persistent-risk", "retracted-risk"])
def test_triggers_read_a_missing_return_as_never_enabled(tmp_path, script, blocked):
    """Without t_MS no local recovery returns: under persistent risk none
    is owed, and once the risk is retracted the check reports the
    blocked return."""
    path = tmp_path / "no-return.scenario.json"
    path.write_text(json.dumps({"name": "no-return", "net": {"file": _saved_without(tmp_path, "t_MS").name},
                                "horizon": 12, "script": script, "propositions": ["P1", "P2", "P3"],
                                "triggers": "default"}))
    code = main(["simulate", str(path), "--out", str(tmp_path / "runs")])
    report = json.loads((tmp_path / "runs" / "no-return.report.json").read_text())
    assert [item["blocked_return"] for item in report["triggers"]["soundness_violations"]] == blocked
    assert code == (1 if blocked else 0)


def test_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["simulate", "scenarios/robot-nominal.scenario.json", "--out", str(out)])
    assert code == 0
    assert (out / "robot-nominal.trace.jsonl").exists()
    report = json.loads((out / "robot-nominal.report.json").read_text())
    assert report["status"] == "pass"
    assert (out / "robot-nominal.report.txt").exists()


def test_simulate_seed_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "scenarios/robot-nominal.scenario.json", "--seed", "5", "--out", str(out_a)])
    main(["simulate", "scenarios/robot-nominal.scenario.json", "--seed", "5", "--out", str(out_b)])
    trace_a = (out_a / "robot-nominal.trace.jsonl").read_bytes()
    trace_b = (out_b / "robot-nominal.trace.jsonl").read_bytes()
    assert trace_a == trace_b


def test_verify_on_stored_trace(tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "scenarios/robot-escalation.scenario.json", "--out", str(out)])
    capsys.readouterr()
    code = main([
        "verify", "scenarios/robot-escalation.scenario.json",
        "--trace", str(out / "robot-escalation.trace.jsonl"),
    ])
    assert code == 0
    assert "P1 bounded autonomy" in capsys.readouterr().out


def test_verify_mutant_scenario_reports_violation(tmp_path, capsys):
    # a net file with the escalation transition removed: the stored-net
    # scenario must fail the bounded-autonomy monitor
    from smart_tgpn.net import drop_transition
    from smart_tgpn.builder import SmartNet

    smart = build_single_agent(SmartConfig())
    mutant = SmartNet(drop_transition(smart.net, "t_SM"), smart.config, smart.agents,
                      smart.coordination_places, smart.gating_mode)
    net_path = tmp_path / "mutant.net.json"
    save_smart(mutant, str(net_path))
    scenario = {
        "name": "mutant-run",
        "net": {"file": str(net_path)},
        "horizon": 12,
        "script": [[2, "anom", 1]],
        "propositions": ["P1"],
    }
    scenario_path = tmp_path / "mutant.scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    code = main(["verify", str(scenario_path)])
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_explore_subcommand(tmp_path, capsys):
    scenario = {
        "name": "explore-me",
        "net": {"builder": {"config": {}}},
        "horizon": 10,
        "formulas": [
            {"kind": "safety", "condition": "invalid", "forbidden": ["output"], "name": "gating"},
        ],
        "exploration": {"horizon": 6, "alphabet": ["anom", "evidence", "safe", "hardware_fault", "want_output"]},
    }
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    export = tmp_path / "graph.txt"
    code = main(["explore", str(path), "--export", str(export)])
    out = capsys.readouterr().out
    assert code == 0
    assert "gating" in out and "holds" in out
    lines = export.read_text().splitlines()
    assert any(line.startswith("state ") for line in lines)
    assert any(line.startswith("edge ") for line in lines)


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "scenarios/robot-no-assist.scenario.json", "--out", str(out)])
    capsys.readouterr()
    code = main([
        "report", str(out / "robot-no-assist.trace.jsonl"),
        "--scenario", "scenarios/robot-no-assist.scenario.json",
    ])
    assert code == 0
    stats = capsys.readouterr().out
    assert '"governance_entries": 1' in stats


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 3
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_is_input_error(capsys):
    assert main(["simulate", "no-such.scenario.json"]) == 3


def test_bad_flag_is_input_error(capsys):
    assert main(["simulate", "scenarios/robot-nominal.scenario.json", "--bogus"]) == 3


def test_multi_agent_net_file_round_trip(tmp_path):
    from smart_tgpn.builder import AgentSpec, build_multi_agent
    from smart_tgpn.netio import save_smart

    smart = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
    path = tmp_path / "multi.net.json"
    save_smart(smart, str(path))
    loaded = load_smart(str(path))
    assert [a.agent_id for a in loaded.agents] == ["a1", "a2"]
    assert set(loaded.net.transitions) == set(smart.net.transitions)
    assert loaded.agent("a2").mode_places["A"] == "P_A_a2"


@pytest.mark.parametrize(
    "exploration, formulas",
    [
        ({"horizon": 2, "alphabet": ["nope"]}, []),
        ({"horizon": 2, "alphabet": ["anom", "anom", "safe"]}, []),
        ({"horizon": 2, "alphabet": ["anom"], "branching": "bogus"}, []),
        ({"horizon": 2, "alphabet": ["anom", "evidence", "timeout_M"]}, []),
        (
            {"horizon": 2, "alphabet": ["anom"]},
            [{"kind": "safety", "condition": "held_for(anom, 1)", "forbidden": ["output"]}],
        ),
    ],
    ids=["undeclared-alphabet-signal", "repeated-alphabet-signal", "unknown-branching",
         "derived-timeout-alphabet-signal", "held-for-formula-condition"],
)
def test_explore_bad_exploration_input_is_input_error(tmp_path, capsys, exploration, formulas):
    scenario = {
        "name": "bad-explore",
        "net": {"builder": {"config": {}}},
        "horizon": 10,
        "formulas": formulas,
        "exploration": exploration,
    }
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["explore", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: explore: ") and err.count("\n") == 1


def test_explore_alphabet_wider_than_twenty_signals_is_input_error(tmp_path, capsys):
    """Each vector set is a 2^n-bit int, so 21 signals are refused before
    any is built, with one line and exit 3."""
    alphabet = [f"{name}_a{i}" for name in ("anom", "evidence", "safe", "hardware_fault", "assist")
                for i in range(1, 5)] + ["agree"]
    scenario = {
        "name": "wide-explore",
        "net": {"builder": {"agents": 4, "config": {}}},
        "horizon": 10,
        "exploration": {"horizon": 2, "alphabet": alphabet, "flip_budget": 1},
    }
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["explore", str(path)]) == 3
    assert capsys.readouterr().err == "error: explore: 21 alphabet signals, at most 20 are explorable\n"


@pytest.mark.parametrize(
    "formula",
    [
        {"kind": "bounded-response", "condition": "invalid", "place": "P_M"},
        {"kind": "reach", "condition": "UR", "place": "P_R", "within": "2"},
        {"kind": "never-while", "condition": "UR"},
        {"kind": "bogus-kind", "condition": "invalid"},
        {"condition": "invalid", "place": "P_M", "within": 2},
        {"kind": "bounded-response", "condition": "held_for(anom, 1.5)", "place": "P_M", "within": 2},
    ],
    ids=["bounded-response-without-within", "reach-with-string-within", "never-while-without-place",
         "unknown-kind", "no-kind", "fractional-held-for-duration"],
)
def test_simulate_malformed_formula_is_input_error(tmp_path, capsys, formula):
    scenario = {
        "name": "bad-formula",
        "net": {"builder": {"config": {}}},
        "horizon": 6,
        "script": [[1, "anom", 1]],
        "formulas": [formula],
    }
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["simulate", str(path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"script": [[1, "anom", "yes"]]},
        {"script": [[1, "anom", 1], [1, "anom", 0]]},
        {"net": {"builder": {"config": {"delta_s": -1}}}},
        {"formulas": [{"kind": "safety", "condition": "(anom and safe", "forbidden": ["output"]}]},
        {"propositions": ["P1", "P9"]},
        {"horizon": "abc"},
        {"net": {"builder": {"config": {"hysteresis": {"enabled": True, "bogus": 1}}}}},
        {"policy": "bogus", "script": []},
        {"name": 5},
        {"name": "../escaped"},
        {"formulas": [{"kind": "safety", "condition": 5, "forbidden": ["output"]}]},
        {"triggers": {"u_risk": 5}},
        {"triggers": {"u_risk": "UR", "t_m": [{"name": "m", "expr": 5}]}},
        {"net": {"builder": {"config": {"theta": "x"}}}},
        {"net": {"builder": {"config": {"theta": True}}}},
        {"net": {"builder": {"config": {"delta_s": True}}}},
        {"net": {"builder": {"config": {"hysteresis": {"enabled": "yes"}}}}},
        {"script": [[1, "U", "nan"]]},
        {"script": [[1, "U", "inf"]]},
        {"script": [[1, "U", 10**400]]},
        {"derive_agreement": "no"},
    ],
    ids=["non-boolean-script-value", "two-values-at-one-tick", "negative-deadline", "unclosed-guard",
         "unknown-proposition", "non-integer-horizon", "unknown-hysteresis-key", "unknown-policy",
         "non-string-name", "name-with-path-separator", "non-string-condition", "non-string-u_risk",
         "non-string-trigger-expr", "string-theta", "boolean-theta", "boolean-deadline",
         "string-hysteresis-enabled", "nan-real-value", "inf-real-value", "huge-integer-real-value",
         "string-derive-agreement"],
)
def test_simulate_malformed_scenario_is_input_error(tmp_path, capsys, change):
    scenario = {
        "name": "bad-scenario",
        "net": {"builder": {"config": {}}},
        "horizon": 6,
        "script": [[1, "anom", 1]],
        "propositions": ["P1"],
        **change,
    }
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["simulate", str(path), "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def _first(records, kind):
    return next(r for r in records[1:] if r["kind"] == kind)


def _move_after_a_later_firing(records, signal, time):
    """Move ``signal``'s record at ``time`` after the first firing at time + 1."""
    moved = records.pop(next(i for i, r in enumerate(records) if r.get("signal") == signal and r["time"] == time))
    later = next(i for i, r in enumerate(records) if r["kind"] == "fire" and r["time"] == time + 1)
    records.insert(later + 1, moved)


# name -> a defect of a stored trace, given as its records, header first
TRACE_DEFECTS = {
    "unknown-event-kind": lambda records: records[1].update(kind="bogus"),
    "record-lacks-field": lambda records: records[1].pop("time"),
    "events-out-of-order": lambda records: records.__setitem__(slice(1, None), records[:0:-1]),
    "header-not-an-object": lambda records: records.__setitem__(0, 5),
    "record-not-an-object": lambda records: records.__setitem__(1, [0]),
    "string-time": lambda records: _first(records, "fire").update(time="x"),
    "list-transition": lambda records: _first(records, "fire").update(transition=[]),
    "integer-marking": lambda records: _first(records, "deposit").update(marking=7),
    "list-signal": lambda records: _first(records, "signal").update(signal=["x"]),
    "string-horizon": lambda records: records[0].update(horizon="x"),
    "list-signal-kinds": lambda records: records[0].update(signal_kinds=[0]),
    "string-initial-signals": lambda records: records[0].update(initial_signals="x"),
    "list-real-initial-value": lambda records: records[0]["initial_signals"].update(U=[0]),
    "nan-real-initial-value": lambda records: records[0]["initial_signals"].update(U=float("nan")),
    "negative-horizon": lambda records: records[0].update(horizon=-3),
    "horizon-before-the-records": lambda records: records[0].update(horizon=2),
    "fire-after-the-horizon": lambda records: records[-1].update(time=31),
    "negative-fire-time": lambda records: _first(records, "fire").update(time=-1),
    "signal-at-tick-0": lambda records: _first(records, "signal").update(time=0),
    "signal-after-the-horizon": lambda records: records.append(
        {"time": 31, "kind": "signal", "signal": "anom", "value": True}),
    "string-quiesced-at": lambda records: records[0].update(quiesced_at="x"),
    "quiesced-at-the-horizon": lambda records: records[0].update(quiesced_at=30),
    "negative-marking-count": lambda records: _first(records, "fire").update(marking="P_M:-2"),
    "zero-marking-count": lambda records: _first(records, "deposit").update(marking="P_M:1,P_want:0"),
    "signal-after-a-later-firing": lambda records: _move_after_a_later_firing(records, "timeout_M", 6),
    # a run writes a kind, bool or real, and an initial value for every signal it declares
    "unknown-signal-kind": lambda records: records[0]["signal_kinds"].update(U="banana"),
    "declared-signal-without-initial-value": lambda records: records[0]["initial_signals"].pop("anom"),
    "initial-value-of-an-undeclared-signal": lambda records: records[0]["initial_signals"].update(ghost=True),
}


@pytest.mark.parametrize("defect", sorted(TRACE_DEFECTS))
@pytest.mark.parametrize("command", ["report", "verify"])
def test_malformed_trace_file_is_input_error(tmp_path, capsys, defect, command):
    main(["simulate", "scenarios/robot-escalation.scenario.json", "--out", str(tmp_path)])
    stored = tmp_path / "robot-escalation.trace.jsonl"
    records = [json.loads(line) for line in stored.read_text().splitlines()]
    TRACE_DEFECTS[defect](records)
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    if command == "report":
        code = main(["report", str(bad)])
    else:
        code = main(["verify", "scenarios/robot-escalation.scenario.json", "--trace", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: malformed trace: ") and err.count("\n") == 1


PROBE_SCENARIO = {"name": "p", "net": {"builder": {"agents": 1, "config": {}}}, "horizon": 5}


def _assert_one_line_input_error(code, capsys, names):
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize(
    "change, names",
    [
        ({"triggers": {"t_m": [{"name": "t_SM"}]}}, "'u_risk'"),
        ({"triggers": {"t_m": [{"expr": "anom"}], "u_risk": "anom"}}, "'name'"),
        ({"triggers": {"t_m": [{"name": "t_SM", "expr": "anom"}], "u_risk": "anom"}}, "['expr']"),
        ({"triggers": 5}, "triggers"),
        ({"net": {"builder": 3}}, "builder"),
        ({"declare": 3}, "declare"),
    ],
    ids=["triggers-without-u_risk", "trigger-without-name", "trigger-with-expr", "non-object-triggers",
         "non-object-builder", "non-object-declare"],
)
def test_simulate_malformed_section_is_input_error(tmp_path, capsys, change, names):
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps({**PROBE_SCENARIO, **change}))
    code = main(["simulate", str(path), "--out", str(tmp_path / "runs")])
    _assert_one_line_input_error(code, capsys, names)


NET_DEFECTS = {
    "transition-without-id": (lambda doc: doc["transitions"][0].pop("id"), "'id'"),
    "unknown-priority": (lambda doc: doc["transitions"][0].update(priority="urgent"), "'urgent'"),
    "arc-without-from": (lambda doc: doc["arcs"][0].pop("from"), "'from'"),
    "smart-without-agents": (lambda doc: doc["smart"].pop("agents"), "'agents'"),
    "transition-not-an-object": (lambda doc: doc["transitions"].__setitem__(0, 5), "not subscriptable"),
    "agent-not-an-object": (lambda doc: doc["smart"].update(agents=[5]), "not subscriptable"),
    "numeric-priority": (lambda doc: doc["transitions"][0].update(priority=3), "'upper'"),
    "places-not-a-list": (lambda doc: doc.update(places=5), "not iterable"),
    "non-numeric-weight": (lambda doc: doc["arcs"][0].update(weight="x"), "'x'"),
    "agent-id-not-a-string": (lambda doc: doc["smart"]["agents"][0].update(id=["x"]), "agent id"),
    "non-integer-agent-budget": (lambda doc: doc["smart"]["agents"][0]["config"].update(budget_m="x"), "budget_m"),
    "string-theta": (lambda doc: doc["smart"]["config"].update(theta="x"), "theta"),
}


@pytest.mark.parametrize("defect", sorted(NET_DEFECTS))
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_malformed_net_file_is_input_error(tmp_path, capsys, defect, command):
    spoil, names = NET_DEFECTS[defect]
    doc = smart_to_document(build_single_agent(SmartConfig()))
    spoil(doc)
    (tmp_path / "bad.net.json").write_text(json.dumps(doc))
    if command == "validate":
        code = main(["validate", str(tmp_path / "bad.net.json")])
    else:
        scenario = tmp_path / "x.scenario.json"
        scenario.write_text(json.dumps({**PROBE_SCENARIO, "net": {"file": "bad.net.json"}}))
        code = main(["simulate", str(scenario), "--out", str(tmp_path / "runs")])
    _assert_one_line_input_error(code, capsys, names)


@pytest.mark.parametrize(
    "subnets",
    [5, [5], [{"places": [], "transitions": [], "arcs": [], "in_transition": []}]],
    ids=["section-not-a-list", "entry-not-an-object", "list-in-transition"],
)
def test_validate_malformed_subnets_is_input_error(tmp_path, capsys, subnets):
    doc = smart_to_document(build_single_agent(SmartConfig()))
    doc["subnets"] = subnets
    (tmp_path / "bad.net.json").write_text(json.dumps(doc))
    code = main(["validate", str(tmp_path / "bad.net.json")])
    _assert_one_line_input_error(code, capsys, "malformed subnets section")


def test_validate_guard_wider_than_the_probe_is_input_error(tmp_path, capsys):
    """The satisfiability probe builds n * 2^n bits for n atoms, so a P_R
    exit guard of 24 atoms is refused before any pattern is built."""
    doc = smart_to_document(build_single_agent(SmartConfig()))
    t_rs = next(raw for raw in doc["transitions"] if raw["id"] == "t_RS")
    t_rs["guard"] = " and ".join([f"x{i}" for i in range(23)] + ["ext_auth"])
    (tmp_path / "wide.net.json").write_text(json.dumps(doc))
    code = main(["validate", str(tmp_path / "wide.net.json")])
    _assert_one_line_input_error(code, capsys, "a guard of 24 atoms, at most 20 can be probed")


def test_net_file_guard_on_an_undeclared_signal_is_input_error(tmp_path, capsys):
    """A net file's guards may read only the signals the net and the
    scenario's declare section name."""
    doc = smart_to_document(build_single_agent(SmartConfig()))
    t_sm = next(raw for raw in doc["transitions"] if raw["id"] == "t_SM")
    t_sm["guard"] = "foo and " + t_sm["guard"]
    (tmp_path / "foo.net.json").write_text(json.dumps(doc))
    scenario = {**PROBE_SCENARIO, "net": {"file": "foo.net.json"}, "script": [[1, "anom", 1]]}
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(scenario))
    simulate = ["simulate", str(path), "--out", str(tmp_path / "runs")]
    for argv in (simulate, ["verify", str(path)]):
        _assert_one_line_input_error(main(argv), capsys, "t_SM: guard references undeclared signal 'foo'")
    path.write_text(json.dumps({**scenario, "declare": {"booleans": ["foo"]}}))
    assert main(simulate) == 0


ESCALATION = json.loads((Path(__file__).parent.parent / "scenarios" / "robot-escalation.scenario.json").read_text())
EXPLORATION = {"horizon": 3, "alphabet": ["anom"]}


def _run_escalation(tmp_path, command, change):
    """Exit code of ``command`` on robot-escalation with ``change`` applied."""
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps({**ESCALATION, **change}))
    if command == "simulate":
        return main(["simulate", str(path), "--out", str(tmp_path / "runs")])
    return main([command, str(path)])


@pytest.mark.parametrize(
    "exploration, names",
    [
        (5, "exploration must be an object"),
        ({**EXPLORATION, "horizon": {}}, "exploration.horizon"),
        ({**EXPLORATION, "alphabet": [5]}, "alphabet"),
        ({**EXPLORATION, "flip_budget": "x"}, "exploration.flip_budget"),
    ],
    ids=["exploration-not-an-object", "horizon-not-an-integer", "alphabet-entry-not-a-name",
         "flip-budget-not-an-integer"],
)
def test_explore_malformed_exploration_field_is_input_error(tmp_path, capsys, exploration, names):
    code = _run_escalation(tmp_path, "explore", {"exploration": exploration})
    _assert_one_line_input_error(code, capsys, names)


def test_explore_negative_cap_is_input_error(tmp_path, capsys):
    """--cap is held to the bound the section's "cap" is: a negative cap
    is refused, not explored as a run cut short at once."""
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps(ESCALATION))
    code = main(["explore", str(path), "--horizon", "3", "--cap", "-1"])
    _assert_one_line_input_error(code, capsys, "state cap must be >= 0")


@pytest.mark.parametrize(
    "change, names",
    [
        ({"net": {"builder": {"config": ""}}}, "net.builder.config"),
        ({"formulas": [{"kind": "never-while", "condition": "anom", "place": {}}]}, "not a place"),
        ({"formulas": [{"kind": "safety", "condition": "anom and bogus", "forbidden": ["output"]}]},
         "undeclared signal 'bogus'"),
        ({"triggers": {"u_risk": "bogus"}}, "undeclared signal 'bogus'"),
        ({"formulas": [{"kind": "safety", "condition": "marked(P_Z)", "forbidden": ["output"]}]},
         "unknown place 'P_Z'"),
        ({"declare": {"booleans": "xyz"}}, "declare: booleans must be a list of names"),
        ({"triggers": {"u_risk": "true", "t_m": [{"name": 3}]}}, "trigger name must be a string"),
    ],
    ids=["config-not-an-object", "formula-place-not-a-name", "condition-on-undeclared-signal",
         "trigger-on-undeclared-signal", "condition-on-unknown-place", "declared-names-not-a-list",
         "trigger-name-not-a-string"],
)
def test_simulate_malformed_net_or_condition_is_input_error(tmp_path, capsys, change, names):
    code = _run_escalation(tmp_path, "simulate", change)
    _assert_one_line_input_error(code, capsys, names)


@pytest.mark.parametrize(
    "command, formula, names",
    [
        ("simulate", {"kind": "safety", "condition": "anom", "forbidden": ["outptu"]}, "'outptu'"),
        ("explore", {"kind": "safety", "condition": "anom", "forbidden": ["t_SMM"]}, "'t_SMM'"),
        ("simulate", {"kind": "never-while", "condition": "anom", "place": "P_X"}, "'P_X'"),
        ("explore", {"kind": "reach", "condition": "anom", "place": "P_X", "within": 2}, "'P_X'"),
        ("simulate", {"kind": "never-while", "condition": "anom", "place": "P_R", "from_places": ["P_Q"]},
         "'P_Q'"),
    ],
    ids=["simulate-misspelt-output", "explore-unknown-transition", "unknown-place", "explore-unknown-place",
         "unknown-from-place"],
)
def test_formula_field_naming_nothing_is_input_error(tmp_path, capsys, command, formula, names):
    code = _run_escalation(tmp_path, command, {"formulas": [formula], "exploration": EXPLORATION})
    _assert_one_line_input_error(code, capsys, names)


@pytest.mark.parametrize(
    "change, names",
    [
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": 2.5}, "seed must be an integer"),
        ({"script": [[1.5, "anom", 1]] + ESCALATION["script"][1:]}, "script[0]: time must be an integer"),
        ({"script": [["1", "anom", 1]] + ESCALATION["script"][1:]}, "script[0]: time must be an integer"),
    ],
    ids=["string-seed", "fractional-seed", "fractional-script-time", "string-script-time"],
)
def test_simulate_non_integer_seed_or_script_time_is_input_error(tmp_path, capsys, change, names):
    code = _run_escalation(tmp_path, "simulate", change)
    _assert_one_line_input_error(code, capsys, names)


@pytest.mark.parametrize(
    "change, names",
    [
        ({"triggers": {"u_risk": "UR", "dwell": 1.5}}, "triggers.dwell must be an integer"),
        ({"triggers": {"u_risk": "UR", "dwell": "2"}}, "triggers.dwell must be an integer"),
        ({"triggers": {"u_risk": "UR", "dwell": True}}, "triggers.dwell must be an integer"),
        ({"triggers": {"u_risk": "UR", "dwell": -1}}, "triggers.dwell must be an integer"),
        ({"net": {"builder": {"agents": 2.0, "config": {}}}}, "net.builder.agents must be an integer"),
        ({"net": {"builder": {"agents": True, "config": {}}}}, "net.builder.agents must be an integer"),
    ],
    ids=["fractional-dwell", "string-dwell", "boolean-dwell", "negative-dwell", "fractional-agents",
         "boolean-agents"],
)
def test_simulate_malformed_dwell_or_agents_is_input_error(tmp_path, capsys, change, names):
    code = _run_escalation(tmp_path, "simulate", change)
    _assert_one_line_input_error(code, capsys, names)


TWO_AGENTS = {"net": {"builder": {"agents": ["a1", "a2"], "config": {}}}, "signals": {}}


@pytest.mark.parametrize(
    "command, change, names",
    [
        ("simulate", {**TWO_AGENTS, "derive_agreement": True, "script": [[2, "claim_a1", 1.0], [5, "disagree", 1]]},
         "script[1]: 'disagree' is derived from the claims under derive_agreement"),
        ("simulate", {"derive_agreement": True, "script": [[3, "agree", 0]]}, "'agree' is derived from the claims"),
        ("simulate", {"script": [[2, "want_output", "x"]]}, "boolean signal 'want_output' given non-boolean value 'x'"),
        ("simulate", {"script": [[2, "want_output", 0.5]]}, "boolean signal 'want_output' given non-boolean value 0.5"),
        ("simulate", {"script": [[2, "want_output_zz", 1]]}, "script[0]: undeclared signal 'want_output_zz'"),
        ("explore", {"script": [[2, "want_output_zz", 1]], "exploration": EXPLORATION},
         "script[0]: undeclared signal 'want_output_zz'"),
        ("simulate", {**TWO_AGENTS, "script": [[2, "want_output", 1]]}, "undeclared signal 'want_output'"),
    ],
    ids=["scripted-disagree-under-derive-agreement", "scripted-agree-under-derive-agreement",
         "string-output-attempt", "fractional-output-attempt", "simulate-attempt-naming-no-agent",
         "explore-attempt-naming-no-agent", "unsuffixed-attempt-on-two-agents"],
)
def test_script_entry_the_run_cannot_resolve_is_input_error(tmp_path, capsys, command, change, names):
    code = _run_escalation(tmp_path, command, change)
    _assert_one_line_input_error(code, capsys, names)


def test_a_stored_trace_reads_an_omitted_place_as_empty(tmp_path, capsys):
    """Stored marking digests omit empty places; bound to its net, a stored
    trace reads them as 0 tokens, so verify agrees with the inline run."""
    change = {"formulas": [{"kind": "safety", "condition": "marked(P_M)", "forbidden": ["t_SM"]}]}
    assert _run_escalation(tmp_path, "simulate", change) == 0
    stored = tmp_path / "runs" / "robot-escalation.trace.jsonl"
    assert main(["verify", str(tmp_path / "x.scenario.json"), "--trace", str(stored)]) == 0


def test_the_parser_carries_no_state_between_calls(tmp_path, capsys):
    def simulate(out, *flags):
        code = main(["simulate", "scenarios/robot-escalation.scenario.json", *flags, "--out", str(tmp_path / out)])
        return code, (tmp_path / out / "robot-escalation.trace.jsonl").read_bytes()

    plain = simulate("plain")
    flagged = simulate("flagged", "--seed", "5", "--policy", "latest")
    assert flagged != plain  # so a leaked --seed or --policy would show below
    assert simulate("again") == plain
    assert main(["simulate", "--no-such-flag", "x"]) == 3
    assert simulate("after-error")[0] == 0
    assert _build_parser() is _build_parser()


def test_formula_naming_a_real_transition_is_still_checked(tmp_path, capsys):
    formula = {"kind": "safety", "condition": "anom", "forbidden": ["t_SM"]}
    code = _run_escalation(tmp_path, "explore", {"formulas": [formula], "exploration": EXPLORATION})
    assert code == 1 and "t_SM fired under the condition" in capsys.readouterr().out


T_MA_UNDER_TRUE = {"kind": "safety", "condition": "true", "forbidden": ["t_MA"]}


def test_a_capped_exploration_is_inconclusive_not_a_pass(tmp_path, capsys):
    """The state cap stops the exploration after tick 1, before t_MA can
    fire, so the formula holds on every explored layer; the verdict is
    still inconclusive and the exit 2, since the full run violates it."""
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps({**ESCALATION, "formulas": [T_MA_UNDER_TRUE],
                                "exploration": {"horizon": 12, "alphabet": ["anom", "evidence", "safe", "assist"]}}))
    assert main(["explore", str(path)]) == 1
    assert "violated  t_MA fired under the condition" in capsys.readouterr().out
    assert main(["explore", str(path), "--cap", "40"]) == 2
    out = capsys.readouterr().out
    assert "(incomplete: state cap hit)" in out and "inconclusive  holds through tick 1" in out


def test_explore_exit_a_violation_outranks_an_inconclusive_verdict(tmp_path, capsys):
    reach = {"kind": "reach", "condition": "UR", "place": "P_R", "within": 3}
    alphabet = ["anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth", "disagree"]
    path = tmp_path / "x.scenario.json"
    path.write_text(json.dumps({**ESCALATION, "formulas": [T_MA_UNDER_TRUE, reach],
                                "exploration": {"horizon": 7, "alphabet": alphabet, "branching": "all"}}))
    assert main(["explore", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violated" in out and "inconclusive" in out


@pytest.mark.parametrize("branching", ["all", "earliest-only"])
def test_explore_a_1200_firing_instant_exits_0(tmp_path, capsys, branching):
    """The explorer's cascade is a loop, so a first instant that fires
    1,200 strong [0, 0] transitions in a row is no deeper than one."""
    doc = smart_to_document(build_single_agent(SmartConfig()))
    chain = 1200
    doc["places"] += [f"chain{i}" for i in range(chain + 1)]
    doc["transitions"] += [{"id": f"t_chain{i}", "interval": [0, 0], "timing": "strong"} for i in range(chain)]
    doc["arcs"] += [arc for i in range(chain)
                    for arc in ({"from": f"chain{i}", "to": f"t_chain{i}"}, {"from": f"t_chain{i}", "to": f"chain{i + 1}"})]
    doc["initial_marking"]["chain0"] = 1
    (tmp_path / "chain.net.json").write_text(json.dumps(doc))
    scenario = {"name": "chain", "net": {"file": "chain.net.json"}, "horizon": 1,
                "exploration": {"horizon": 0, "alphabet": ["anom"], "branching": branching}}
    (tmp_path / "x.scenario.json").write_text(json.dumps(scenario))
    assert main(["explore", str(tmp_path / "x.scenario.json")]) == 0
    assert "states: " in capsys.readouterr().out


# a safety formula gets one verdict from the simulator's trace and the
# explorer: both read its condition on the marking at the firing instant's
# entry, and a condition interval the horizon cuts holds at the horizon
SAFETY_REPROS = {
    "entry-marking": ({"formulas": [{"kind": "safety", "condition": "marked(P_M)", "forbidden": ["t_SM"]}],
                       "exploration": {"horizon": 4, "alphabet": ["anom"]}}, 0),
    "instant-at-the-horizon": ({"horizon": 1, "script": [[1, "anom", 1]], "propositions": [],
                                "formulas": [{"kind": "safety", "condition": "anom", "forbidden": ["t_SM"]}],
                                "exploration": {"horizon": 1, "alphabet": ["anom"]}}, 1),
}


@pytest.mark.parametrize("repro", sorted(SAFETY_REPROS))
def test_simulate_and_explore_give_a_safety_formula_one_verdict(tmp_path, capsys, repro):
    change, code = SAFETY_REPROS[repro]
    assert _run_escalation(tmp_path, "simulate", change) == code
    assert _run_escalation(tmp_path, "explore", change) == code


def test_an_output_at_the_horizon_inside_the_window_passes_p2(tmp_path, capsys):
    """The output at tick 1 lies in the pre-escalation window of the
    invalidity that starts at 1, here cut by the horizon."""
    config = {"gating_mode": "structural-only", "hysteresis": {"enabled": True}}
    change = {"net": {"builder": {"config": config}}, "horizon": 1,
              "script": [[1, "anom", 1], [1, "want_output", 1]], "propositions": ["P2"]}
    assert _run_escalation(tmp_path, "simulate", change) == 0
    assert "P2 output gating                   pass" in capsys.readouterr().out


def _subnet_document(entry_change):
    """The single-agent document with its consensus subnet in subnets[]."""
    smart = build_single_agent(SmartConfig())
    sub, iface = smart.coordination_subnet()
    entry = {**net_to_document(sub.net), "name": "consensus", "entry": sub.entry, "exit": sub.exit,
             "success_exit": sub.success_exit, "in_transition": iface.in_transition,
             "out_transition": iface.out_transition}
    return {**smart_to_document(smart), "subnets": [{**entry, **entry_change(entry)}]}


@pytest.mark.parametrize(
    "change, code, lines",
    [
        (lambda entry: {}, 0,
         ["subnet consensus:", "H1 mode-token conservation: pass", "H2 encapsulation: pass",
          "H3 exit determinacy: pass"]),
        (lambda entry: {"arcs": [{**a, "weight": 2} if a["from"] == "t_agree" else a for a in entry["arcs"]]}, 1,
         ["H1 mode-token conservation: FAIL", "  t_agree: net flow +1 into subnet places (expected 0)"]),
        (lambda entry: {"in_transition": "t_MS", "out_transition": "t_MA"}, 1,
         ["H1 mode-token conservation: FAIL", "  t_MS: deposits +0 tokens (expected +1)",
          "  t_MA: extracts +1 tokens (expected -1)"]),
    ],
    ids=["as-saved", "t_agree-weight-2", "wrong-interface"],
)
def test_validate_checks_a_saved_subnet_against_its_interface(tmp_path, capsys, change, code, lines):
    path = tmp_path / "subnet.net.json"
    path.write_text(json.dumps(_subnet_document(change)))
    assert main(["validate", str(path)]) == code
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


def test_validate_subnet_naming_no_interface_transition_is_input_error(tmp_path, capsys):
    path = tmp_path / "subnet.net.json"
    path.write_text(json.dumps(_subnet_document(lambda entry: {"in_transition": "t_nope"})))
    _assert_one_line_input_error(main(["validate", str(path)]), capsys, "interface transition 't_nope' not found")
