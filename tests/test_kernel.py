import pytest
from hypothesis import given, settings, strategies as st

from smart_tgpn.builder import AgentSpec, Hysteresis, SmartConfig, build_multi_agent, build_single_agent
from smart_tgpn.guards import TRUE, parse_guard, signal_names
from smart_tgpn.kernel import (
    DeadlineViolation,
    FiringPolicy,
    KernelState,
    NotEnabled,
    ZenoViolation,
    _covered,
    advance_to_next_event,
    enabled,
    fire,
    refresh_timers,
    struct_enabled,
)
from smart_tgpn.net import Arc, Net, TransitionRecord
from smart_tgpn.netio import net_from_document
from smart_tgpn.signals import SignalState


def escalation_net(delta_s=2):
    """Stable place feeding one strong escalation transition."""
    guard = parse_guard("invalid_flag and not ur_flag")
    return Net(
        places=["P_S", "P_M"],
        transitions={
            "t_SM": TransitionRecord("t_SM", guard, 0, delta_s, "strong", "mode-switch"),
        },
        arcs=[Arc("P_S", "t_SM"), Arc("t_SM", "P_M")],
        initial_marking={"P_S": 1},
    )


def escalation_sigma(invalid_at=None):
    sigma = SignalState.declare(booleans=["invalid_flag", "ur_flag"])
    if invalid_at is not None:
        sigma.record("invalid_flag", True, invalid_at)
    return sigma


def drive(net, sigma, policy, horizon):
    state = KernelState.initial(net)
    events = []
    while state.now <= horizon:
        state, fired = advance_to_next_event(net, state, sigma, policy, horizon + 1)
        events.extend(fired)
    return state, events


class TestStructuralEnabling:
    def test_token_present(self):
        net = escalation_net()
        assert struct_enabled(net, {"P_S": 1}, "t_SM") is True

    def test_token_absent(self):
        net = escalation_net()
        assert struct_enabled(net, {"P_S": 0}, "t_SM") is False

    def test_no_input_arcs_vacuously_enabled(self):
        net = Net(places=["q"], transitions={"t": TransitionRecord("t")}, arcs=[Arc("t", "q")])
        assert struct_enabled(net, {"q": 0}, "t") is True


class TestGuardedEnabling:
    def test_conjunction_of_structure_and_guard(self):
        net = escalation_net()
        sigma = escalation_sigma(invalid_at=0)
        state = KernelState.initial(net)
        assert enabled(net, state, sigma, "t_SM") is True

    def test_guard_false_disables(self):
        net = escalation_net()
        sigma = escalation_sigma()  # invalid stays false
        state = KernelState.initial(net)
        assert enabled(net, state, sigma, "t_SM") is False

    def test_structure_false_despite_guard(self):
        net = escalation_net()
        sigma = escalation_sigma(invalid_at=0)
        state = KernelState.initial(net)
        state.marking = {"P_S": 0, "P_M": 0}
        assert enabled(net, state, sigma, "t_SM") is False


class TestFire:
    def test_moves_the_token(self):
        net = escalation_net()
        sigma = escalation_sigma(invalid_at=0)
        state = KernelState.initial(net)
        state, event = fire(net, state, "t_SM", sigma)
        assert state.marking == {"P_S": 0, "P_M": 1}
        assert event.pre_marking["P_S"] == 1 and event.post_marking["P_M"] == 1

    def test_weighted_arithmetic(self):
        net = Net(
            places=["p", "q"],
            transitions={"t": TransitionRecord("t")},
            arcs=[Arc("p", "t", 2), Arc("t", "q", 1)],
            initial_marking={"p": 3},
        )
        sigma = SignalState.declare()
        state = KernelState.initial(net)
        state, _ = fire(net, state, "t", sigma)
        assert state.marking == {"p": 1, "q": 1}

    def test_disabled_firing_rejected(self):
        net = escalation_net()
        sigma = escalation_sigma()  # guard false
        state = KernelState.initial(net)
        with pytest.raises(NotEnabled):
            fire(net, state, "t_SM", sigma)

    def test_firing_before_alpha_rejected(self):
        net = Net(
            places=["p", "q"],
            transitions={"t": TransitionRecord("t", TRUE, 2, 5)},
            arcs=[Arc("p", "t"), Arc("t", "q")],
            initial_marking={"p": 1},
        )
        sigma = SignalState.declare()
        state = KernelState.initial(net)
        with pytest.raises(NotEnabled):
            fire(net, state, "t", sigma)

    def test_token_conservation_on_every_firing(self):
        smart = build_single_agent(SmartConfig())
        sigma = SignalState.declare(
            booleans=smart.bool_signals(), reals=smart.real_signals(),
            initial=smart.default_initial_signals(),
        )
        sigma.record("anom", True, 1)
        state = KernelState.initial(smart.net)
        while state.now <= 8:
            state, fired = advance_to_next_event(smart.net, state, sigma, FiringPolicy(), 9)
            for event in fired:
                for place in smart.net.places:
                    pre = smart.net.pre(event.transition).get(place, 0)
                    post = smart.net.post(event.transition).get(place, 0)
                    assert event.post_marking.get(place, 0) == event.pre_marking.get(place, 0) - pre + post


class TestDeadlines:
    """A strong transition is forced at its enabling time plus beta."""

    def test_forced_deadline_is_enable_time_plus_beta(self):
        net = escalation_net(delta_s=2)
        sigma = escalation_sigma(invalid_at=4)
        _, events = drive(net, sigma, FiringPolicy("latest"), 10)
        assert [(e.time, e.transition) for e in events] == [(6, "t_SM")]

    def test_absent_without_strong_enabled(self):
        net = escalation_net()
        sigma = escalation_sigma()
        _, events = drive(net, sigma, FiringPolicy("latest"), 10)
        assert events == []

    def test_shared_deadline_returns_both(self):
        # two strong transitions enabled together with equal intervals reach
        # the bound at the same instant and both fire there, in id order
        net = Net(
            places=["p", "q"],
            transitions={
                "t_a": TransitionRecord("t_a", TRUE, 0, 3, "strong"),
                "t_b": TransitionRecord("t_b", TRUE, 0, 3, "strong"),
            },
            arcs=[Arc("p", "t_a"), Arc("p", "t_b"), Arc("t_a", "q"), Arc("t_b", "q")],
            initial_marking={"p": 2},
        )
        sigma = SignalState.declare()
        _, events = drive(net, sigma, FiringPolicy("latest"), 10)
        assert [(e.time, e.transition) for e in events] == [(3, "t_a"), (3, "t_b")]


class TestAdvance:
    def test_earliest_policy_fires_at_enablement(self):
        net = escalation_net(delta_s=2)
        sigma = escalation_sigma(invalid_at=5)
        _, events = drive(net, sigma, FiringPolicy("earliest"), 10)
        assert [(e.time, e.transition) for e in events] == [(5, "t_SM")]

    def test_latest_policy_fires_at_deadline(self):
        net = escalation_net(delta_s=2)
        sigma = escalation_sigma(invalid_at=5)
        _, events = drive(net, sigma, FiringPolicy("latest"), 10)
        assert [(e.time, e.transition) for e in events] == [(7, "t_SM")]

    def test_weak_window_earliest_fires_after_alpha(self):
        net = Net(
            places=["p", "q"],
            transitions={"t": TransitionRecord("t", TRUE, 1, 5)},
            arcs=[Arc("p", "t"), Arc("t", "q")],
            initial_marking={"p": 1},
        )
        sigma = SignalState.declare()
        _, events = drive(net, sigma, FiringPolicy("earliest"), 10)
        assert [(e.time, e.transition) for e in events] == [(1, "t")]

    def test_zeno_self_loop_raises(self):
        net = Net(
            places=["p"],
            transitions={"t": TransitionRecord("t", TRUE, 0, 0)},
            arcs=[Arc("p", "t"), Arc("t", "p")],
            initial_marking={"p": 1},
        )
        sigma = SignalState.declare()
        state = KernelState.initial(net)
        policy = FiringPolicy("earliest", zeno_limit=50)
        with pytest.raises(ZenoViolation):
            for _ in range(100):
                state, _ = advance_to_next_event(net, state, sigma, policy, 5)

    def test_guard_break_cancels_deadline(self):
        # the guard drops at the deadline instant itself: the change applies
        # first and the obligation is cancelled
        net = escalation_net(delta_s=2)
        sigma = escalation_sigma(invalid_at=4)
        sigma.record("invalid_flag", False, 6)
        _, events = drive(net, sigma, FiringPolicy("latest"), 10)
        assert events == []

    def test_timer_resets_on_reenable(self):
        net = escalation_net(delta_s=3)
        sigma = escalation_sigma(invalid_at=2)
        sigma.record("invalid_flag", False, 4)
        sigma.record("invalid_flag", True, 6)
        state, events = drive(net, sigma, FiringPolicy("latest"), 12)
        # second enabling starts a fresh clock: fires at 6 + 3, not 2 + 3
        assert [(e.time, e.transition) for e in events] == [(9, "t_SM")]


class TestDeterminism:
    def test_identical_runs_identical_logs(self):
        smart = build_single_agent(SmartConfig())

        def one_run():
            sigma = SignalState.declare(
                booleans=smart.bool_signals(), reals=smart.real_signals(),
                initial=smart.default_initial_signals(),
            )
            sigma.record("anom", True, 2)
            sigma.record("anom", False, 6)
            state = KernelState.initial(smart.net)
            log = []
            while state.now <= 15:
                state, fired = advance_to_next_event(
                    smart.net, state, sigma, FiringPolicy("random", seed=7), 16
                )
                log.extend((e.time, e.transition, tuple(sorted(e.post_marking.items()))) for e in fired)
            return log

        assert one_run() == one_run()

    def test_priority_then_id_tie_break(self):
        # both enabled and due at 0: governance-class beats escalation-class
        net = Net(
            places=["p", "q"],
            transitions={
                "t_gov": TransitionRecord("t_gov", TRUE, 0, 1, "strong", "mode-switch",
                                          priority=None),
                "t_esc": TransitionRecord("t_esc", TRUE, 0, 1, "strong", "mode-switch"),
            },
            arcs=[Arc("p", "t_gov"), Arc("p", "t_esc"), Arc("t_gov", "q"), Arc("t_esc", "q")],
            initial_marking={"p": 1},
        )
        from smart_tgpn.net import PriorityClass
        net.transitions["t_gov"] = TransitionRecord(
            "t_gov", TRUE, 0, 1, "strong", "mode-switch", PriorityClass.GOVERNANCE
        )
        sigma = SignalState.declare()
        state = KernelState.initial(net)
        state, fired = advance_to_next_event(net, state, sigma, FiringPolicy(), 2)
        assert fired[0].transition == "t_gov"

    def test_clone_advances_independently(self):
        net = escalation_net()
        sigma = escalation_sigma(invalid_at=1)
        state = KernelState.initial(net)
        copy = state.clone()
        copy, fired = advance_to_next_event(net, copy, sigma, FiringPolicy(), 5)
        assert state.now == 0 and state.marking["P_S"] == 1
        assert copy.marking["P_M"] == 1 or copy.now > 0


class TestReplacedRecord:
    """Guards are compiled per expression node, not per net: a record
    replaced after the net is built is enabled by its own guard."""

    def test_refresh_and_advance_read_the_replaced_guard(self):
        net = escalation_net()
        sigma = escalation_sigma(invalid_at=0)
        state = KernelState.initial(net)
        refresh_timers(net, state, sigma)
        assert state.timers == {"t_SM": 0}
        record = net.transitions["t_SM"]
        net.transitions["t_SM"] = record.with_guard(parse_guard("ur_flag"))
        refresh_timers(net, state, sigma)
        assert state.timers == {}
        state, fired = advance_to_next_event(net, state, sigma, FiringPolicy(), 5)
        assert fired == [] and state.now == 5
        net.transitions["t_SM"] = record
        state, fired = advance_to_next_event(net, state, sigma, FiringPolicy(), 10)
        assert [e.transition for e in fired] == ["t_SM"] and state.marking["P_M"] == 1


def sourced_net():
    """A transition without input places, one with a weight-2 arc, and a
    guarded one that consumes from two places."""
    return Net(
        places=["p", "q", "r"],
        transitions={
            "t_src": TransitionRecord("t_src", parse_guard("go")),
            "t_two": TransitionRecord("t_two", TRUE, 0, 3, "strong"),
            "t_pq": TransitionRecord("t_pq", parse_guard("not go")),
        },
        arcs=[Arc("t_src", "p"), Arc("p", "t_two", 2), Arc("t_two", "r"), Arc("p", "t_pq"), Arc("q", "t_pq")],
    )


REFRESH_NETS = {
    "single": lambda: build_single_agent(SmartConfig()).net,
    "hysteresis": lambda: build_single_agent(SmartConfig(hysteresis=Hysteresis(enabled=True))).net,
    "two-agent": lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]).net,
    "sourced": sourced_net,
}


def refresh_every_transition(net, state, sigma):
    """The clock reconciliation that tests every transition in id order."""
    for tid in net.transition_ids():
        if enabled(net, state, sigma, tid):
            state.timers.setdefault(tid, state.now)
        else:
            state.timers.pop(tid, None)


@st.composite
def refresh_cases(draw):
    name = draw(st.sampled_from(sorted(REFRESH_NETS)))
    net = REFRESH_NETS[name]()
    now = 6
    marking = {p: draw(st.integers(0, 2)) for p in net.places}
    timed = draw(st.permutations(net.transition_ids()))[: draw(st.integers(0, len(net.transitions)))]
    timers = {tid: draw(st.integers(now - 3, now)) for tid in timed}
    booleans = sorted({n for tid in net.transition_ids() for n in signal_names(net.transitions[tid].guard)})
    sigma = SignalState.declare(booleans=booleans)
    for signal in booleans:
        for time in sorted(draw(st.sets(st.integers(0, now), max_size=3))):
            sigma.record(signal, draw(st.booleans()), time)
    return net, KernelState(marking, timers, now, [(0, dict(marking))]), sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(refresh_cases())
def test_refresh_tests_covered_transitions_like_the_every_transition_loop(case):
    net, state, sigma = case
    expected = state.clone()
    refresh_every_transition(net, expected, sigma)
    try:
        refresh_timers(net, state, sigma)
    except DeadlineViolation:
        pass  # raised after the clocks are reconciled
    assert list(state.timers.items()) == list(expected.timers.items())


# one net per case for the whole test, so later examples hit the memo
# earlier ones filled
MEMO_NETS = {
    "single": build_single_agent(SmartConfig()).net,
    "two-agent": build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]).net,
    "weight-2": net_from_document({
        "places": ["p", "q", "r"],
        "transitions": [{"id": "t_src", "guard": "go"}, {"id": "t_two"}, {"id": "t_pq"}, {"id": "t_r"}],
        "arcs": [{"from": "t_src", "to": "p"}, {"from": "p", "to": "t_two", "weight": 2},
                 {"from": "t_two", "to": "r"}, {"from": "p", "to": "t_pq"}, {"from": "q", "to": "t_pq"},
                 {"from": "r", "to": "t_r"}],
    }),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_memoized_covered_transitions_equal_a_scan_of_every_pre_set(data):
    net = MEMO_NETS[data.draw(st.sampled_from(sorted(MEMO_NETS)), label="net")]
    marking = {p: data.draw(st.integers(0, 3), label=p) for p in net.places}
    scan = [tid for tid in net.transition_ids() if struct_enabled(net, marking, tid)]
    assert list(_covered(net, marking)) == scan
    # counts past the largest arc weight change no coverage and no memo key
    entries = len(net.covered_memo)
    raised = {p: c + 5 if c >= net.pre_weight_cap else c for p, c in marking.items()}
    assert list(_covered(net, raised)) == scan
    assert len(net.covered_memo) == entries


def test_the_covered_memo_clips_counts_at_the_largest_arc_weight():
    assert [MEMO_NETS[name].pre_weight_cap for name in ("single", "two-agent", "weight-2")] == [1, 1, 2]
