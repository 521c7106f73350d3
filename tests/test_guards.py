import pytest
from hypothesis import given, strategies as st

from smart_tgpn.guards import (
    And,
    Cmp,
    GuardError,
    HeldFor,
    Marked,
    Not,
    Or,
    PredicateLibrary,
    Sig,
    check_no_nested_held,
    eval_guard,
    guard_to_string,
    held_for,
    parse_guard,
    substitute,
)
from smart_tgpn.signals import SignalState, UndeclaredSignal


def sigma_with(**initial):
    booleans = ["anom", "evidence", "safe", "hardware_fault", "disagree"]
    return SignalState.declare(booleans=booleans, reals=["U"], initial=initial)


class TestParsing:
    def test_infix_precedence(self):
        expr = parse_guard("a or b and not c")
        assert expr == Or((Sig("a"), And((Sig("b"), Not(Sig("c"))))))

    def test_threshold_and_marked_atoms(self):
        expr = parse_guard("U >= 0.5 and marked(P_agree, 2)")
        assert expr == And((Cmp("U", ">=", 0.5), Marked("P_agree", 2)))

    def test_held_for(self):
        expr = parse_guard("held_for(U >= 0.7 or anom, 3)")
        assert expr == HeldFor(Or((Cmp("U", ">=", 0.7), Sig("anom"))), 3)

    def test_round_trip(self):
        texts = [
            "invalid and not UR",
            "(a or b) and c",
            "held_for(U <= 0.3 and not anom and evidence, 2) and not (not safe or hardware_fault)",
            "marked(P_S, 1)",
            "true",
        ]
        for text in texts:
            expr = parse_guard(text)
            assert parse_guard(guard_to_string(expr)) == expr

    def test_bad_tokens_rejected(self):
        for text in ["a &&", "marked(", "held_for(a)", "a or"]:
            with pytest.raises(GuardError):
                parse_guard(text)

    def test_nested_held_rejected_by_validation(self):
        expr = parse_guard("held_for(held_for(anom, 1), 2)")
        with pytest.raises(GuardError):
            check_no_nested_held(expr)


class TestEval:
    def test_invalid_by_uncertainty_threshold(self):
        # (U >= theta) or anom or not evidence, with theta = 0.5
        invalid = parse_guard("U >= 0.5 or anom or not evidence")
        sigma = sigma_with(U=0.9, evidence=True)
        assert eval_guard(invalid, sigma, {}, 0) is True

    def test_marking_atom_gates_regardless_of_signals(self):
        guard = parse_guard("marked(P_agree) and not disagree")
        sigma = sigma_with()
        assert eval_guard(guard, sigma, {"P_agree": 0}, 0) is False
        assert eval_guard(guard, sigma, {"P_agree": 1}, 0) is True

    def test_negated_unrecoverable(self):
        ur = parse_guard("not (not safe or hardware_fault)")
        sigma = sigma_with(safe=True)
        assert eval_guard(ur, sigma, {}, 0) is True

    def test_undeclared_signal_raises(self):
        sigma = sigma_with()
        with pytest.raises(UndeclaredSignal):
            eval_guard(parse_guard("missing_signal"), sigma, {}, 0)

    def test_unknown_place_raises(self):
        sigma = sigma_with()
        with pytest.raises(UndeclaredSignal):
            eval_guard(parse_guard("marked(P_nowhere)"), sigma, {}, 0)


class TestHeldFor:
    def test_constant_true_window(self):
        sigma = sigma_with(anom=True)
        assert held_for(Sig("anom"), 3, sigma, None, 5) is True

    def test_interior_falsification(self):
        sigma = sigma_with(anom=True)
        sigma.record("anom", False, 4)
        sigma.record("anom", True, 5)
        assert held_for(Sig("anom"), 3, sigma, None, 5) is False

    def test_incomplete_window_is_false(self):
        sigma = sigma_with(anom=True)
        assert held_for(Sig("anom"), 3, sigma, None, 2) is False

    def test_marking_history_atoms(self):
        sigma = sigma_with()
        history = [(0, {"P_M": 0}), (2, {"P_M": 1})]
        expr = Marked("P_M")
        assert held_for(expr, 2, sigma, history, 4, marking={"P_M": 1}) is True
        assert held_for(expr, 3, sigma, history, 4, marking={"P_M": 1}) is False

    @given(
        duration_long=st.integers(min_value=0, max_value=6),
        duration_short=st.integers(min_value=0, max_value=6),
        flips=st.lists(st.integers(min_value=1, max_value=20), max_size=6, unique=True),
        now=st.integers(min_value=0, max_value=20),
    )
    def test_monotone_in_duration(self, duration_long, duration_short, flips, now):
        """If a condition held for the longer window it held for the shorter."""
        if duration_short > duration_long:
            duration_short, duration_long = duration_long, duration_short
        sigma = SignalState.declare(booleans=["x"])
        value = False
        for t in sorted(flips):
            value = not value
            sigma.record("x", value, t)
        if held_for(Sig("x"), duration_long, sigma, None, now):
            assert held_for(Sig("x"), duration_short, sigma, None, now)


@given(
    u_values=st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=8),
    probe=st.integers(min_value=0, max_value=8),
)
def test_hysteresis_bands_are_exclusive(u_values, probe):
    """With theta_down < theta_up, the raised-escalation and lowered-return
    conditions are never simultaneously true (anom=0, evidence=1)."""
    up = parse_guard("U >= 0.7 or anom or not evidence")
    down = parse_guard("U <= 0.3 and not anom and evidence")
    sigma = SignalState.declare(booleans=["anom", "evidence"], reals=["U"], initial={"evidence": True})
    for t, value in enumerate(u_values):
        sigma.record("U", value, t) if t else sigma.record("U", value, 0)
    assert not (eval_guard(up, sigma, {}, probe) and eval_guard(down, sigma, {}, probe))


class TestPredicateLibrary:
    def test_expansion(self):
        library = PredicateLibrary()
        library.define("invalid", "U >= 0.5 or anom or not evidence")
        library.define("UR", "not safe or hardware_fault")
        expanded = library.expand("invalid and not UR")
        sigma = sigma_with(U=0.9, evidence=True, safe=True)
        assert eval_guard(expanded, sigma, {}, 0) is True

    def test_cycle_detection(self):
        library = PredicateLibrary()
        library.define("a", "b")
        library.define("b", "a")
        with pytest.raises(GuardError):
            library.expand("a")


def test_substitute_replaces_a_node_without_descending_into_it():
    expr = parse_guard("anom and not held_for(anom, 2)")
    virtual = substitute(expr, lambda node: Sig("h") if isinstance(node, HeldFor) else None)
    assert virtual == And((Sig("anom"), Not(Sig("h"))))
    renamed = substitute(expr, lambda node: Sig("x") if node == Sig("anom") else None)
    assert renamed == parse_guard("x and not held_for(x, 2)")
