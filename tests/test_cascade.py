"""The explorer's in-instant cascade: one loop for both branching modes.

Earliest-only follows the policy's due transition; all-branching follows
every transition inside its window. Both run through `_Explorer._cascade`,
so an earliest-only result is one of the all-branching results, and the
places a result touched follow one rule in both modes.
"""

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smart_tgpn.analysis import BRANCH_ALL, BRANCH_EARLIEST, ExplorationConfig, _Explorer, explore
from smart_tgpn.guards import TRUE
from smart_tgpn.kernel import ZenoViolation
from smart_tgpn.net import Arc, Net, TransitionRecord

from test_explore_memo import CASES


def spin_net():
    """The zero-interval self-loop of the c10 kernel conformance check."""
    return Net(
        places=["p"],
        transitions={"spin": TransitionRecord("spin", TRUE, 0, 0)},
        arcs=[Arc("p", "spin"), Arc("spin", "p")],
        initial_marking={"p": 1},
    )


def test_an_instantaneous_cycle_ends_at_the_zeno_limit_under_earliest_only():
    with pytest.raises(ZenoViolation):
        explore(spin_net(), ExplorationConfig(horizon=1))


def test_all_branching_follows_each_state_of_an_instantaneous_cycle_once():
    graph = explore(spin_net(), ExplorationConfig(horizon=1, weak_branching=BRANCH_ALL))
    assert [r.firings for r in graph.successor(0, 0)] == [(), ("spin",)]


@functools.cache
def _earliest_steps(name):
    """The known steps of the case's earliest-only graph, and an
    all-branching explorer of the same net and alphabet."""
    factory, cfg, _ = CASES[name]
    subject = factory()
    graph = explore(subject, replace(cfg, weak_branching=BRANCH_EARLIEST))
    explorer = graph._explorer
    steps = [(explorer.key_table[key_id], vector, results) for key_id, vector, results in explorer.known_steps()]
    return steps, _Explorer(subject, replace(cfg, weak_branching=BRANCH_ALL))


@settings(derandomize=True, max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(CASES)), st.integers(min_value=0))
def test_every_earliest_only_result_is_an_all_branching_result(name, index):
    """For a known (key, vector) of an earliest-only graph, each result's
    key is among the all-branching results from the same key and vector,
    and a result with the same key and firings touched the same places."""
    steps, branching = _earliest_steps(name)
    key, vector, results = steps[index % len(steps)]
    every = {(r.key, r.firings): r.touched for r in branching._evolve_uncached(key, vector)}
    keys = {k for k, _ in every}
    for result in results:
        assert result.key in keys
        touched = every.get((result.key, result.firings))
        assert touched is None or touched == result.touched


@pytest.mark.parametrize("name", ["hysteresis", "hysteresis-debounce-3"])
def test_held_runs_never_exceed_the_tick(name):
    """The step store, the held-for values, the anchors and the formula
    searches' memo key leave the tick out; that is sound because a key's held runs start at 0 and grow
    by at most one per tick."""
    factory, cfg, _ = CASES[name]
    graph = explore(factory(), cfg)
    for tick, key_id, _ in graph.states():
        assert max(graph.key_of(key_id).held_runs) <= tick
