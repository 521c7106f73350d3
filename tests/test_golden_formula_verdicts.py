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
case must also replay event for event.
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS = os.path.join(HERE, "golden_formula_verdicts.json")
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

from smart_tgpn.analysis import BRANCH_EARLIEST, Formula, check_formula, explore, replay_witness  # noqa: E402
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


if __name__ == "__main__":
    golden = {name: verdicts_of(name) for name in sorted(CASES)}
    with open(VERDICTS, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
