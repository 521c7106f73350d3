"""Golden formula verdicts: the formula checks give the same verdicts and
witnesses on the explorations of `test_explore_memo.CASES`.

Each case's net is explored and checked against eight formulas: the six
schemas of the explore-branching benchmark workload, a bounded response
whose condition reads the derived `timeout_M`, and a never-while whose
condition is a real-signal threshold. Place, switch and signal names are
those of the net's first agent. The status, detail and sha256 of the
witness of every verdict must equal the entry in
`golden_formula_verdicts.json`. A change that alters a verdict on purpose
regenerates the file with `python tests/test_golden_formula_verdicts.py`
and says which verdicts changed and why. Every witness of an earliest-only
case must also replay event for event, and a case explored under a state
cap that cuts it short must never pass.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS = os.path.join(HERE, "golden_formula_verdicts.json")
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

from smart_tgpn.analysis import (  # noqa: E402
    BRANCH_EARLIEST,
    HOLDS,
    VACUOUS,
    VIOLATED,
    Formula,
    check_formula,
    explore,
    replay_witness,
)
from smart_tgpn.guards import And, Cmp, Marked, Not, Sig  # noqa: E402
from test_explore_memo import CASES  # noqa: E402


def formulas(smart):
    agent = smart.agents[0]
    cfg, place = agent.config, agent.place
    anchor = And((agent.invalid, Not(agent.unrecoverable), Marked(place("S"))))
    return [
        Formula("safety", Not(agent.unrecoverable), forbidden=(agent.switch("t_SR"),),
                name="governance-only-under-UR"),
        Formula("safety", agent.invalid, forbidden=("output",), name="output-gating"),
        Formula("bounded-response", anchor, place=place("M"), within=cfg.delta_s, name="autonomy-at-delta_s"),
        Formula("bounded-response", anchor, place=place("M"), within=cfg.delta_s - 1,
                name="autonomy-at-delta_s-1"),
        Formula("reach", agent.unrecoverable, place=place("R"), within=cfg.governance_bound,
                name="governance-reach"),
        Formula("never-while", Not(Sig(agent.signal("ext_auth"))), place=place("S"), from_places=(place("R"),),
                name="regulated-absorbing"),
        Formula("bounded-response", And((Sig(agent.signal("timeout_M")), Sig(agent.signal("assist")))),
                place=place("A"), within=cfg.delta_m, name="assist-after-timeout_M"),
        Formula("never-while", Cmp(agent.signal("U"), "<=", cfg.theta), place=place("R"),
                from_places=(place("S"),), name="no-governance-while-U-low"),
    ]


def verdicts_of(name):
    """{formula name: {status, detail, witness sha256 or None}} of one case."""
    factory, cfg, _ = CASES[name]
    smart = factory()
    graph = explore(smart, cfg)
    verdicts = {}
    for formula in formulas(smart):
        verdict = check_formula(graph, formula)
        witness = None
        if verdict.witness is not None:
            text = json.dumps(verdict.witness, sort_keys=True)
            witness = hashlib.sha256(text.encode("utf-8")).hexdigest()
        verdicts[formula.name] = {"status": verdict.status, "detail": verdict.detail, "witness": witness}
    return verdicts


@pytest.mark.parametrize("name", sorted(CASES))
def test_formula_verdicts_match_their_golden_entries(name):
    with open(VERDICTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(CASES)
    assert verdicts_of(name) == expected[name]


@pytest.mark.parametrize("name", sorted(n for n, (_, cfg, _) in CASES.items() if cfg.weak_branching == BRANCH_EARLIEST))
def test_every_witness_replays_event_for_event(name):
    """Each witness the formula checks give replays through the production
    run loop with the firings it records. Only earliest-only explorations
    qualify: replay runs the earliest firing policy, which an all-branching
    witness, choosing among admissible firings, need not follow."""
    factory, cfg, _ = CASES[name]
    smart = factory()
    graph = explore(smart, cfg)
    witnesses = [v.witness for v in (check_formula(graph, f) for f in formulas(smart)) if v.witness is not None]
    assert witnesses
    for witness in witnesses:
        assert replay_witness(graph, witness) == [(step["tick"], step["firings"]) for step in witness]


@pytest.mark.parametrize("name", sorted(CASES))
def test_never_while_witnesses_end_at_the_violating_step(name):
    """A violated never-while's witness runs on to the step whose firings
    mark its place."""
    factory, cfg, _ = CASES[name]
    smart = factory()
    graph = explore(smart, cfg)
    for formula in formulas(smart):
        verdict = check_formula(graph, formula)
        if formula.kind == "never-while" and verdict.status == VIOLATED:
            assert any(formula.place in smart.net.post(tid) for tid in verdict.witness[-1]["firings"]), formula.name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_capped_exploration_never_passes(data):
    """Under a drawn state cap, a graph cut short gives no formula `holds`
    or `vacuous`, and `violated` only where the full exploration does: its
    layers are a prefix of the full graph's, whose verdicts are golden. A
    graph that reaches the horizon gives the full verdicts."""
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    factory, cfg, layer_states = CASES[name]
    smart = factory()
    graph = explore(smart, replace(cfg, state_cap=data.draw(st.integers(0, sum(layer_states)), label="cap")))
    with open(VERDICTS, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    for formula in formulas(smart):
        status, full = check_formula(graph, formula).status, expected[formula.name]["status"]
        if graph.incomplete:
            assert status not in (HOLDS, VACUOUS) and (status != VIOLATED or full == VIOLATED), formula.name
        else:
            assert status == full, formula.name


if __name__ == "__main__":
    golden = {name: verdicts_of(name) for name in sorted(CASES)}
    with open(VERDICTS, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
