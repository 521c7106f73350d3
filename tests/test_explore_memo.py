"""The explorer's guard-truth classes are exact, and its engine counters are pinned.

One `evolve` evaluation answers every signal vector under which each guard
the step evaluated has the truth it has under the evaluated vector. These
tests re-evaluate every (key, vector) entry the explorer's step store knows
from scratch and compare, so the check needs no second,
unmemoised exploration path.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from smart_tgpn.analysis import (
    BRANCH_ALL,
    ExplorationConfig,
    Formula,
    VectorSet,
    _Explorer,
    check_formula,
    explore,
)
from smart_tgpn.builder import AgentSpec, Hysteresis, SmartConfig, build_multi_agent, build_single_agent
from smart_tgpn.guards import Cmp, Marked, Not, Sig, eval_guard
from smart_tgpn.signals import ConstantSignals

ALPHABET8 = ["anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth", "disagree", "agree"]


def single(**config):
    return build_single_agent(SmartConfig(**config))


def double(**config):
    return build_multi_agent([AgentSpec("a1", SmartConfig(**config)), AgentSpec("a2", SmartConfig(**config))])


# name -> (net factory, exploration config, states per tick); the state
# counts are those of the explorer before it shared one evaluation among
# several vectors
CASES = {
    "wide": (single, ExplorationConfig(horizon=4, alphabet=ALPHABET8), [256, 544, 832, 1120, 1408]),
    "two-agent": (double, ExplorationConfig(horizon=3, alphabet=ALPHABET8), [256, 544, 832, 1120]),
    "all-branching": (
        single,
        ExplorationConfig(horizon=4, alphabet=ALPHABET8[:7], weak_branching=BRANCH_ALL),
        [248, 548, 956, 1364, 1772],
    ),
    "flip-budget": (
        single,
        ExplorationConfig(horizon=5, alphabet=ALPHABET8[:6], flip_budget=1),
        [7, 40, 124, 234, 329, 343],
    ),
    "want-output": (
        single,
        ExplorationConfig(horizon=5, alphabet=ALPHABET8[:4] + ["want_output"]),
        [16, 36, 56, 76, 96, 99],
    ),
    "two-agent-branching": (
        lambda: double(budget_m=1, budget_a=1),
        ExplorationConfig(horizon=2, alphabet=ALPHABET8[:4], weak_branching=BRANCH_ALL),
        [61, 178, 186],
    ),
    "hysteresis": (
        lambda: single(hysteresis=Hysteresis(enabled=True)),
        ExplorationConfig(horizon=5, alphabet=ALPHABET8[:6]),
        [64, 256, 582, 802, 1038, 1084],
    ),
    "hysteresis-debounce-3": (
        lambda: single(hysteresis=Hysteresis(enabled=True, debounce_up=3)),
        ExplorationConfig(horizon=5, alphabet=ALPHABET8[:6]),
        [64, 256, 600, 990, 1264, 1296],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_memo_entry_matches_a_fresh_evaluation(name):
    factory, cfg, layer_states = CASES[name]
    graph = explore(factory(), cfg)
    explorer = graph._explorer
    assert [sum(len(v) for v in layer.values()) for layer in graph.layers] == layer_states
    assert not graph.violations and not graph.incomplete
    # a class must have answered a vector it was not evaluated at, or this checks nothing
    assert graph.stats["class_hits"] > 0
    for key_id, vector, results in explorer.known_steps():
        fresh = explorer._evolve_uncached(explorer.key_table[key_id], vector)
        assert _fields(results) == _fields(fresh), (key_id, vector)


def _fields(results):
    return [(r.key, r.firings, r.touched, r.violations, r.output_breaches) for r in results]


class DictMemo:
    """A reference for the explorer's bookkeeping: an exact memo per (key id,
    vector) whose misses evaluate the vector afresh, and one `evolve` call
    per vector for a step table. It counts a miss as a class hit if an
    earlier miss's guard-truth class (from `_classed`) of the same key holds
    it."""

    def __init__(self, explorer):
        self.explorer = explorer
        self.memo = {}
        self.classes = {}
        self.counts = {"evolve_calls": 0, "memo_hits": 0, "class_hits": 0, "evaluations": 0}

    def evolve(self, key_id, vector):
        explorer = self.explorer
        self.counts["evolve_calls"] += 1
        if (key_id, vector) in self.memo:
            self.counts["memo_hits"] += 1
            return self.memo[(key_id, vector)]
        key = explorer.key_table[key_id]
        classes = self.classes.setdefault(key_id, [])
        if any(bits >> vector & 1 for bits in classes):
            self.counts["class_hits"] += 1
        else:
            classes.append(explorer._classed(key, vector, explorer.start_of(key))[0])
            self.counts["evaluations"] += 1
        results = self.memo[(key_id, vector)] = explorer._evolve_uncached(key, vector)
        return results

    def step_table(self, key_id):
        return [self.evolve(key_id, vector) for vector in range(1 << len(self.explorer.drivers))]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_step_store_agrees_with_one_evolve_per_vector(data):
    """Single `evolve` calls, as formula searches and witnesses make them,
    interleaved with step table builds in random order."""
    factory, cfg, _ = CASES[data.draw(st.sampled_from(sorted(CASES)), label="case")]
    explorer = _Explorer(factory(), cfg)
    model = DictMemo(explorer)
    explorer.intern(explorer.initial_key())
    every_vector = list(range(1 << len(explorer.drivers)))
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        key_id = data.draw(st.integers(0, len(explorer.key_table) - 1), label="key id")
        key = explorer.key_table[key_id]
        if data.draw(st.booleans(), label="single evolve"):
            vector = data.draw(st.sampled_from(every_vector), label="vector")
            results = explorer.evolve(key_id, vector)
            assert _fields(results) == _fields(explorer._evolve_uncached(key, vector))
            assert _fields(results) == _fields(model.evolve(key_id, vector))
            for result in results:
                explorer.intern(result.key)
        else:
            table = [(list(VectorSet(cube)), results, targets)
                     for cube, results, targets in explorer.step_table(key_id, explorer.every_vector)]
            expected = model.step_table(key_id)
            # the classes partition the vectors and are ordered by their lowest one
            assert sorted(v for vectors, _, _ in table for v in vectors) == every_vector
            assert [vectors[0] for vectors, _, _ in table] == sorted(min(vectors) for vectors, _, _ in table)
            for vectors, results, targets in table:
                assert targets == [explorer.key_ids[r.key] for r in results]
                for vector in (vectors[0], vectors[-1]):
                    assert _fields(results) == _fields(explorer._evolve_uncached(key, vector))
                for vector in vectors:
                    assert _fields(results) == _fields(expected[vector])
        assert explorer.counts == model.counts
        assert [entry[:2] for entry in explorer.known_steps()] == sorted(model.memo)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_step_tables_split_over_disjoint_wants_equal_one_over_their_union(data):
    """Every read class of one step table is evaluated from the same start
    state of the key; no class's cascade may change it for the next."""
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    factory, cfg, _ = CASES[name]
    net = factory()
    known = explore(net, replace(cfg, horizon=2))._explorer.key_table
    split, joint = _Explorer(net, cfg), _Explorer(net, cfg)
    for key in known:
        split.intern(key)
        joint.intern(key)
    key_id = data.draw(st.integers(0, len(known) - 1), label="key id")
    first = data.draw(st.integers(1, split.every_vector - 1), label="first want")
    split.step_table(key_id, first)
    split.step_table(key_id, split.every_vector & ~first)
    joint.step_table(key_id, joint.every_vector)

    def classes(explorer):
        # targets as keys: the two explorers intern new ones in another order
        return [(bits, _fields(results), [explorer.key_table[t] for t in targets])
                for bits, (results, targets) in explorer.steps[key_id][0]]

    assert classes(split) == classes(joint)
    for bits, results, _ in classes(joint):
        for vector in VectorSet(bits):
            assert results == _fields(split._evolve_uncached(known[key_id], vector))


@pytest.mark.parametrize(
    "build, counts",
    [
        (single, {"evolve_calls": 22528, "memo_hits": 16128, "class_hits": 6312, "evaluations": 88}),
        (double, {"evolve_calls": 22016, "memo_hits": 15872, "class_hits": 6066, "evaluations": 78}),
    ],
    ids=["single-agent", "two-agent"],
)
def test_engine_counters_on_c01_nets_at_horizon_7(build, counts):
    graph = explore(build(), ExplorationConfig(horizon=7, alphabet=ALPHABET8))
    assert graph.stats == counts
    assert counts["evolve_calls"] == counts["memo_hits"] + counts["class_hits"] + counts["evaluations"]


def test_engine_counters_on_the_two_agent_net_with_ten_signals_at_horizon_8():
    """Per-agent anom and evidence, the rest in lockstep: 1,024 vectors a tick."""
    alphabet = ["anom_a1", "evidence_a1", "anom_a2", "evidence_a2", "safe", "hardware_fault", "assist",
                "ext_auth", "disagree", "agree"]
    graph = explore(double(), ExplorationConfig(horizon=8, alphabet=alphabet))
    assert (graph.state_count, graph.incomplete) == (207_754, False)
    assert graph.stats == {"evolve_calls": 1_258_496, "memo_hits": 715_776, "class_hits": 539_280,
                           "evaluations": 3_440}


def test_stats_describe_the_exploration_only():
    graph = explore(single(), ExplorationConfig(horizon=2, alphabet=ALPHABET8[:4]))
    before = dict(graph.stats)
    graph.successor(0, 0)
    assert graph.stats == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_condition_memo_entry_matches_a_fresh_evaluation(name):
    factory, cfg, _ = CASES[name]
    smart = factory()
    graph = explore(smart, cfg)
    explorer = graph._explorer
    agent = smart.agents[0]
    conditions = [
        Not(Sig(agent.signal("ext_auth"))),  # a driver bit
        Marked(agent.place("S")),  # fixed by the key
        Sig(agent.signal("timeout_M")),  # derived from the key
        Cmp(agent.signal("U"), ">=", agent.config.theta),  # a base value
        Cmp(agent.signal("anom"), ">=", 0.5),  # a threshold over a driver bit
    ]
    for condition in conditions:
        check_formula(graph, Formula("safety", condition, forbidden=("output",)))
        check_formula(graph, Formula("bounded-response", condition, place=agent.place("R"), within=2))
        check_formula(graph, Formula("never-while", condition, place=agent.place("R")))
    assert sorted(graph.condition_memo, key=repr) == sorted(conditions, key=repr)
    for condition, by_key in graph.condition_memo.items():
        for key_id, truth in by_key.items():
            key = explorer.key_table[key_id]
            for vector in range(1 << len(explorer.drivers)):
                values = explorer.vector_values(vector)
                values.update(explorer.clock_of(key).timeouts(0))
                fresh = eval_guard(condition, ConstantSignals(values), dict(key.marking), 0)
                assert fresh == (truth >> vector & 1 == 1), (condition, key_id, vector)
    # anom is driven in every case: its condition must split some key's vectors, or this checks nothing
    assert any(0 < truth < explorer.every_vector for truth in graph.condition_memo[conditions[-1]].values())
