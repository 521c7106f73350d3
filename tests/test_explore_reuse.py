"""An exploration keeps nothing on the net it explores.

Each exploration prepares the net afresh: it strips the held_for terms, computes
each held-for body's truth bits once, and fills its own guard-truth memos, one
by the marking and varying values and one per guard by what that guard reads.
So every exploration of a net explored before must read as one of a freshly
built net: the same graph export, engine counters and formula verdicts, and a
record replaced in place takes effect at the next exploration.
"""

import pytest

from smart_tgpn.analysis import ExplorationConfig, Formula, check_formula, explore
from smart_tgpn.builder import Hysteresis, SmartConfig, build_single_agent
from smart_tgpn.guards import FALSE, And, Marked, Not, Sig, parse_guard

ALPHABET = ["anom", "evidence", "safe", "hardware_fault", "ext_auth"]
REORDERED = ALPHABET[::-1]

# violated, with witnesses, and holding, vacuous or inconclusive by net
FORMULAS = [
    Formula("safety", Sig("anom"), forbidden=("t_SM",)),
    Formula("bounded-response", Sig("anom"), place="P_M", within=1),
    Formula("bounded-response", And((Sig("anom"), Marked("P_S"))), place="P_M", within=2),
    Formula("reach", Sig("hardware_fault"), place="P_R", within=3),
    Formula("never-while", Not(Sig("ext_auth")), place="P_S", from_places=("P_M",)),
]


def single():
    return build_single_agent(SmartConfig())


def hysteresis():
    return build_single_agent(SmartConfig(hysteresis=Hysteresis(enabled=True)))


def bare(smart):
    return smart.net


def wrapped(smart):
    return smart


def cfg(alphabet, horizon=5):
    return ExplorationConfig(horizon=horizon, alphabet=alphabet)


# name -> (net factory, the explorations of one net in turn, each (subject
# of the built net, config))
SEQUENCES = {
    "repeated": (single, [(wrapped, cfg(ALPHABET)), (wrapped, cfg(ALPHABET))]),
    "reordered": (single, [(wrapped, cfg(ALPHABET)), (wrapped, cfg(REORDERED))]),
    "bare-then-wrapped": (single, [(bare, cfg(ALPHABET)), (wrapped, cfg(ALPHABET))]),
    "wrapped-then-bare": (single, [(wrapped, cfg(ALPHABET)), (bare, cfg(ALPHABET))]),
    "other-horizon": (single, [(wrapped, cfg(ALPHABET, 3)), (wrapped, cfg(ALPHABET, 6))]),
    "hysteresis": (hysteresis, [(wrapped, cfg(ALPHABET)), (wrapped, cfg(REORDERED)), (wrapped, cfg(ALPHABET))]),
}


def reading(subject, config):
    """What an exploration shows: its export, counters and verdicts."""
    graph = explore(subject, config)
    verdicts = [(v.status, v.detail, v.witness) for v in [check_formula(graph, f) for f in FORMULAS]]
    return list(graph.export_lines()), dict(graph.stats), verdicts, graph._explorer


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_each_exploration_of_a_reused_net_reads_as_one_of_a_fresh_net(name):
    factory, explorations = SEQUENCES[name]
    smart = factory()
    fields = set(vars(smart.net))
    for subject, config in explorations:
        *seen, _ = reading(subject(smart), config)
        *fresh, _ = reading(subject(factory()), config)
        assert seen == fresh, (subject.__name__, config.alphabet)
    assert set(vars(smart.net)) == fields  # the explorer adds nothing to the net


def test_a_guard_truth_is_computed_once_per_value_of_what_the_guard_reads():
    explorer = explore(single(), cfg(["anom", "evidence", "safe", "assist", "disagree", "agree"]))._explorer
    assert explorer.guard_reads["t_SM"] == ([], [])
    assert explorer.guard_reads["t_AR"] == (["P_conflict"], ["timeout_A"])
    computed = [key[0] for key in explorer.guard_truths]
    assert computed.count("t_SM") == 1  # reads only drivers and base values
    assert computed.count("t_MA") == 2  # timeout_M false, then true
    assert 1 < computed.count("t_AR") <= 4  # P_conflict marked or not, timeout_A true or false
    assert len(explorer.guard_truths) < sum(len(truths) for truths in explorer.truth_memo.values())


def test_the_held_body_truths_are_computed_once_and_depend_on_the_vector():
    explorer = explore(hysteresis(), cfg(ALPHABET))._explorer
    assert explorer.held_specs and len(explorer.held_truths) == len(explorer.held_specs)
    assert 0 < min(explorer.held_truths) and max(explorer.held_truths) < explorer.every_vector


@pytest.mark.parametrize("factory", [single, hysteresis])
def test_a_record_replaced_in_place_takes_effect_at_the_next_exploration(factory):
    def fired(explorer):
        return {tid for _, _, results in explorer.known_steps() for r in results for tid in r.firings}

    smart, fresh = factory(), factory()
    assert "t_SM" in fired(reading(smart, cfg(ALPHABET))[-1])
    smart.net.transitions["t_SM"] = smart.net.transitions["t_SM"].with_guard(FALSE)
    *seen, explorer = reading(smart, cfg(ALPHABET))
    assert "t_SM" not in fired(explorer)
    fresh.net = fresh.net.with_transitions([fresh.net.transitions["t_SM"].with_guard(FALSE)])
    assert seen == [*reading(fresh, cfg(ALPHABET))[:3]]


def test_a_net_the_explorer_refused_explores_as_fresh_once_mended():
    smart = single()
    record = smart.net.transitions["t_MS"]
    smart.net.transitions["t_MS"] = record.with_guard(And((parse_guard("held_for(not marked(P_S), 2)"), record.guard)))
    for _ in range(2):
        with pytest.raises(ValueError, match="t_MS: held_for over marking atoms is not explorable"):
            explore(smart, cfg(ALPHABET))
    smart.net.transitions["t_MS"] = record
    assert reading(smart, cfg(ALPHABET))[:3] == reading(single(), cfg(ALPHABET))[:3]
