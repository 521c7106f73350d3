"""The explorer refreshes its clocks from memoized guard-truth bits.

`_Explorer._refresh` reads each covered guard's truth under a vector off the
guard's bitset over all vectors, where the simulator's `refresh_timers`
runs the guard's compiled closure. These tests hold the two to the same
clocks, in the same order, with the same deadline error, and check that the
explorer's cascade never calls `refresh_timers`.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from smart_tgpn import analysis, kernel
from smart_tgpn.analysis import ExplorationConfig, VectorSet, explore
from smart_tgpn.builder import Hysteresis
from smart_tgpn.kernel import DeadlineViolation, refresh_timers
from smart_tgpn.signals import ConstantSignals

from test_explore_memo import ALPHABET8, CASES, double, single

# one explorer per subject for the whole test, so later examples hit the
# truth memo earlier ones filled; a short exploration gives each reached
# keys to start from
SUBJECTS = {
    "single": (single, ALPHABET8),
    "hysteresis": (lambda: single(hysteresis=Hysteresis(enabled=True)), ALPHABET8[:6]),
    "two-agent": (double, ["anom_a1", "evidence_a1", "anom_a2", "evidence_a2", "safe", "assist", "disagree"]),
    "want-output": (single, ALPHABET8[:4] + ["want_output"]),
}
EXPLORERS = {name: explore(build(), ExplorationConfig(horizon=3, alphabet=alphabet))._explorer
             for name, (build, alphabet) in SUBJECTS.items()}


@st.composite
def refresh_cases(draw):
    """(explorer, state, vector, values of the varying signals): a reached
    key's start state, or half the time a drawn marking and drawn clocks,
    some of them past a strong deadline."""
    explorer = EXPLORERS[draw(st.sampled_from(sorted(EXPLORERS)))]
    net = explorer.net
    state = explorer.start_of(draw(st.sampled_from(explorer.key_table)))[0].clone()
    if draw(st.booleans()):
        state.marking = {p: draw(st.integers(0, 2)) for p in net.places}
        timed = draw(st.permutations(net.transition_ids()))[: draw(st.integers(0, 8))]
        state.timers = {tid: draw(st.integers(-4, 0)) for tid in timed}
    state.now = draw(st.integers(0, 3))
    vector = draw(st.integers(0, (1 << len(explorer.drivers)) - 1))
    varying = {name: draw(st.booleans()) for name in explorer.varying}
    return explorer, state, vector, varying


def kernel_refresh(explorer, state, vector, varying):
    """The clocks ``refresh_timers`` leaves under the vector's assignment,
    and the deadline error it raises, if any."""
    state = state.clone()
    try:
        refresh_timers(explorer.net, state, ConstantSignals({**explorer.vector_values(vector), **varying}))
    except DeadlineViolation as error:
        return list(state.timers.items()), str(error)
    return list(state.timers.items()), None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(refresh_cases())
def test_the_explorer_refresh_leaves_the_clocks_refresh_timers_leaves(case):
    explorer, start, vector, varying = case
    expected = kernel_refresh(explorer, start, vector, varying)
    state = start.clone()
    sigma = ConstantSignals({**explorer.vector_values(vector), **varying})
    try:
        bits, error = explorer._refresh(state, sigma, vector, explorer.every_vector), None
    except DeadlineViolation as raised:
        bits, error = None, str(raised)
    assert (list(state.timers.items()), error) == expected
    if bits is not None:
        # the class: exactly the vectors the kernel refreshes to these clocks
        alike = sum(1 << other for other in range(1 << len(explorer.drivers))
                    if kernel_refresh(explorer, start, other, varying)[0] == expected[0])
        assert bits >> vector & 1 and bits == alike, sorted(VectorSet(bits ^ alike))


def refuse(*args):
    raise AssertionError("refresh_timers evaluated guard closures inside an exploration")


@pytest.mark.parametrize("name", ["wide", "two-agent", "all-branching"])
def test_the_cascade_evaluates_no_guard_closure(monkeypatch, name):
    """Both c01 nets and the all-branching case at horizon 3, with the
    kernel's refresh made to fail: the explorer never calls it, and the
    layers are those the case pins."""
    factory, cfg, layer_states = CASES[name]
    monkeypatch.setattr(kernel, "refresh_timers", refuse)
    # a module-level import of the kernel's refresh would escape the patch above
    monkeypatch.setattr(analysis, "refresh_timers", refuse, raising=False)
    graph = explore(factory(), replace(cfg, horizon=3))
    assert [sum(len(v) for v in layer.values()) for layer in graph.layers] == layer_states[:4]
