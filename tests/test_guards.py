import dataclasses
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from smart_tgpn.builder import _guard_satisfiable
from smart_tgpn.guards import (
    And,
    Cmp,
    Const,
    EvalContext,
    GuardError,
    HeldFor,
    Marked,
    Not,
    Or,
    PredicateLibrary,
    Sig,
    atoms_of,
    bit_patterns,
    check_no_nested_held,
    eval_guard,
    guard_to_string,
    next_held_flip,
    parse_guard,
    place_names,
    signal_names,
    substitute,
    truth_bits,
)
from smart_tgpn.signals import ConstantSignals, SignalState, UndeclaredSignal


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

    @pytest.mark.parametrize("text", ["held_for(anom, .9)", "held_for(anom, 1.5)", "held_for(anom, x)",
                                      "marked(P_S, 0.5)", "marked(P_S, 2.0)", "marked(P_S, n)"])
    def test_a_duration_or_count_that_is_not_an_integer_literal_is_rejected(self, text):
        # truncated, held_for(anom, .9) would read as anom and marked(P_S, 0.5) as always true
        with pytest.raises(GuardError, match="must be an integer"):
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
        assert eval_guard(HeldFor(Sig("anom"), 3), sigma, {}, 5) is True

    def test_interior_falsification(self):
        sigma = sigma_with(anom=True)
        sigma.record("anom", False, 4)
        sigma.record("anom", True, 5)
        assert eval_guard(HeldFor(Sig("anom"), 3), sigma, {}, 5) is False

    def test_incomplete_window_is_false(self):
        sigma = sigma_with(anom=True)
        assert eval_guard(HeldFor(Sig("anom"), 3), sigma, {}, 2) is False

    def test_marking_history_atoms(self):
        sigma = sigma_with()
        history = [(0, {"P_M": 0}), (2, {"P_M": 1})]
        expr = Marked("P_M")
        assert eval_guard(HeldFor(expr, 2), sigma, {"P_M": 1}, 4, history) is True
        assert eval_guard(HeldFor(expr, 3), sigma, {"P_M": 1}, 4, history) is False

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
        if eval_guard(HeldFor(Sig("x"), duration_long), sigma, {}, now):
            assert eval_guard(HeldFor(Sig("x"), duration_short), sigma, {}, now)


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


# --- the compiled evaluator against a tree-walking interpreter -------------


def reference_eval(expr, ctx, time):
    """A tree-walking interpreter of the guard language: the oracle the
    compiled closures are checked against."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sig):
        return bool(ctx.sigma.value_at(expr.name, time))
    if isinstance(expr, Cmp):
        value = float(ctx.sigma.value_at(expr.name, time))
        return value >= expr.threshold if expr.op == ">=" else value <= expr.threshold
    if isinstance(expr, Marked):
        marking = ctx.marking if time >= ctx.now else ctx.marking_at(time)
        if expr.place not in marking:
            raise UndeclaredSignal(f"marking atom references unknown place {expr.place!r}")
        return marking[expr.place] >= expr.count
    if isinstance(expr, Not):
        return not reference_eval(expr.child, ctx, time)
    if isinstance(expr, And):
        return all(reference_eval(c, ctx, time) for c in expr.children)
    if isinstance(expr, Or):
        return any(reference_eval(c, ctx, time) for c in expr.children)
    if isinstance(expr, HeldFor):
        return reference_held(expr, ctx, time)
    raise GuardError(f"unknown expression node {expr!r}")


def reference_held(expr, ctx, time):
    """held_for by its definition: the body holds at the window's start, at
    its end, and at every change point inside it, read from the end back,
    so that a body which raises at one instant and fails at another raises
    or fails as the compiled rule does."""
    if time < expr.duration:
        return False
    start = time - expr.duration
    if not (reference_eval(expr.child, ctx, start) and reference_eval(expr.child, ctx, time)):
        return False
    # a constant view has no change points
    points = set() if isinstance(ctx.sigma, ConstantSignals) else set(
        scanned_change_points(ctx.sigma, signal_names(expr.child), start, time))
    if place_names(expr.child) and ctx.marking_history:
        points.update(t for t, _ in ctx.marking_history if start < t <= time)
    return all(reference_eval(expr.child, ctx, point) for point in sorted(points, reverse=True))


def scanned_change_points(sigma, names, start, end):
    """The change points in (start, end] of the named signals, by a scan of
    their whole histories."""
    points = set()
    for name in names:
        if name not in sigma.histories:
            raise UndeclaredSignal(f"signal {name!r} is not declared")
        points.update(t for t, _ in sigma.histories[name] if start < t <= end)
    return sorted(points)


BOOLS, REALS, PLACES = ["b0", "b1", "b2"], ["r0"], ["p0", "p1"]
ATOMS = st.one_of(
    st.booleans().map(Const),
    st.sampled_from(BOOLS + REALS).map(Sig),
    st.builds(Cmp, st.sampled_from(REALS + BOOLS[:1]), st.sampled_from([">=", "<="]),
              st.sampled_from([0.0, 0.5, 1.0])),
    st.builds(Marked, st.sampled_from(PLACES), st.integers(0, 2)),
    # declared nowhere: reading one must raise
    st.sampled_from([Sig("ghost"), Cmp("ghost", ">=", 0.5), Marked("nowhere")]),
)


def _combine(children):
    return st.one_of(
        children.map(Not),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
    )


BODIES = st.recursive(ATOMS, _combine, max_leaves=6)
HELD = st.builds(HeldFor, BODIES, st.integers(0, 4))
GUARDS = st.recursive(st.one_of(ATOMS, HELD), _combine, max_leaves=6)
MARKINGS = st.fixed_dictionaries({p: st.integers(0, 2) for p in PLACES})


def outcome(evaluate, *args):
    """The truth value, or the message of the UndeclaredSignal raised."""
    try:
        return evaluate(*args)
    except UndeclaredSignal as exc:
        return ("UndeclaredSignal", str(exc))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    expr=GUARDS,
    bools=st.fixed_dictionaries({b: st.booleans() for b in BOOLS}),
    real=st.sampled_from([0.0, 0.5, 0.7, 1.0]),
    marking=MARKINGS,
)
def test_compiled_guard_matches_the_tree_walk_on_constant_signals(expr, bools, real, marking):
    """Same truth value, or the same error, in the explorer's view."""
    values = {**bools, "r0": real}
    got = outcome(eval_guard, expr, ConstantSignals(values), marking, 0)
    want = outcome(reference_eval, expr, EvalContext(ConstantSignals(values), marking, 0), 0)
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=BODIES, real=st.sampled_from([0.0, 0.5, 0.7, 1.0]), marking=MARKINGS)
def test_truth_bits_holds_under_exactly_the_vectors_eval_guard_holds_under(expr, real, marking):
    """Vector v sets b_i iff its bit i is set. Bit v of ``truth_bits`` is the
    truth ``eval_guard`` gives under v, and it raises only the error of
    some vector's evaluation: an atom no vector reaches is never asked."""
    vectors = range(1 << len(BOOLS))

    def under(v):
        return ConstantSignals({**{b: bool(v >> i & 1) for i, b in enumerate(BOOLS)}, "r0": real})

    def atom_bits(atom):
        return sum(1 << v for v in vectors if eval_guard(atom, under(v), marking, 0))

    got = outcome(truth_bits, expr, atom_bits, (1 << len(vectors)) - 1)
    want = [outcome(eval_guard, expr, under(v), marking, 0) for v in vectors]
    if isinstance(got, int):
        assert want == [got >> v & 1 == 1 for v in vectors]
    else:
        assert got in want


def enumerated_satisfiable(guard, fixed):
    """The builder's earlier satisfiability probe, as the reference: every
    assignment of the guard's distinct atoms, with pinned signals fixed,
    substituted as constants and evaluated."""
    atoms = []
    for atom in atoms_of(guard):
        if atom not in atoms:
            atoms.append(atom)
    for bits in range(2 ** len(atoms)):
        assignment = {atom: bool(bits >> i & 1) for i, atom in enumerate(atoms)}
        for atom in atoms:
            name = getattr(atom, "name", None)
            if name in fixed:
                assignment[atom] = fixed[name]
        constant = substitute(guard, lambda node: Const(assignment[node]) if node in assignment else None)
        if eval_guard(constant, ConstantSignals({}), {}, 0):
            return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=GUARDS, fixed=st.dictionaries(st.sampled_from(BOOLS + REALS + ["ghost"]), st.booleans()))
def test_builder_satisfiability_probe_matches_the_assignment_enumeration(expr, fixed):
    assume(len(set(atoms_of(expr))) <= 10)
    assert _guard_satisfiable(expr, fixed) == enumerated_satisfiable(expr, fixed)


@st.composite
def histories(draw):
    """A SignalState with change points, and a marking history."""
    sigma = SignalState.declare(booleans=BOOLS, reals=REALS)
    for name in BOOLS + REALS:
        values = st.booleans() if name in BOOLS else st.sampled_from([0.0, 0.5, 1.0])
        for t in sorted(draw(st.sets(st.integers(0, 10), max_size=4))):
            sigma.record(name, draw(values), t)
    times = sorted(draw(st.lists(st.integers(1, 10), min_size=1, max_size=5)))
    return sigma, [(t, draw(MARKINGS)) for t in [0] + times]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=st.one_of(HELD, GUARDS), state=histories())
def test_compiled_guard_matches_the_tree_walk_over_histories(expr, state):
    """At every instant, as the kernel asks: held_for windows read signal
    change points and the marking history recorded so far."""
    sigma, history = state
    for now in range(12):
        so_far = [entry for entry in history if entry[0] <= now]
        marking = so_far[-1][1]
        got = outcome(eval_guard, expr, sigma, marking, now, so_far)
        want = outcome(reference_eval, expr, EvalContext(sigma, marking, now, so_far), now)
        assert got == want, now


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state=histories(), names=st.lists(st.sampled_from(BOOLS + REALS), unique=True))
def test_change_points_equal_a_scan_of_the_whole_histories(state, names):
    """Every window of the drawn histories: empty ones, and ones reaching
    past either end."""
    sigma, _ = state
    for start in range(-1, 12):
        for end in range(start - 1, 12):
            assert sigma.change_points(names, start, end) == scanned_change_points(sigma, names, start, end)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(term=HELD, state=histories())
def test_next_held_flip_is_the_first_tick_the_window_fills(term, state):
    """At every ``now`` from the last change on, nothing changes any more,
    so held_for flips true at the first tick of (now, now + d] whose window
    its body holds throughout; none if it already holds at now or its body
    fails now."""
    sigma, history = state
    last = max(history[-1][0], *(t for name in BOOLS + REALS for t, _ in sigma.histories[name]))
    marking = history[-1][1]

    def held_at(time):
        return reference_held(term, EvalContext(sigma, marking, time, history), time)

    def first_flip(now):
        if held_at(now):
            return None
        return next((t for t in range(now + 1, now + term.duration + 1) if held_at(t)), None)

    for now in range(last, last + term.duration + 2):
        want = outcome(first_flip, now)
        assume(not isinstance(want, tuple))  # an undeclared atom read
        assert next_held_flip(term, EvalContext(sigma, marking, now, history)) == want, now


# --- the compiled form is invisible from outside ----------------------------


CACHED_TEXT = "held_for(U >= 0.7 or anom, 2) and marked(P_M) and not safe"


def test_a_compiled_node_equals_and_hashes_as_a_fresh_one():
    used = parse_guard(CACHED_TEXT)
    eval_guard(used, sigma_with(U=0.9), {"P_M": 1}, 3)
    fresh = parse_guard(CACHED_TEXT)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert guard_to_string(used) == guard_to_string(fresh)
    assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
    assert pickle.loads(pickle.dumps(used)) == fresh


@pytest.mark.parametrize("rebuild", [
    lambda expr: substitute(expr, lambda node: None),
    lambda expr: dataclasses.replace(expr),
    lambda expr: substitute(expr, lambda node: Sig("evidence") if node == Sig("safe") else None),
], ids=["substitute-identity", "replace", "substitute-renaming"])
def test_a_rebuilt_node_evaluates_as_a_fresh_one(rebuild):
    used = parse_guard(CACHED_TEXT)
    sigma = sigma_with(U=0.9, safe=True)
    sigma.record("safe", False, 2)
    eval_guard(used, sigma, {"P_M": 1}, 4)
    rebuilt = rebuild(used)
    fresh = rebuild(parse_guard(CACHED_TEXT))
    for now in range(6):
        for marking in ({"P_M": 0}, {"P_M": 1}):
            assert eval_guard(rebuilt, sigma, marking, now) == eval_guard(fresh, sigma, marking, now)


def test_bit_patterns_hold_the_vectors_with_their_bit_set():
    for n in range(9):
        patterns = bit_patterns(n)
        assert len(patterns) == n
        for i, pattern in enumerate(patterns):
            assert pattern == sum(1 << v for v in range(1 << n) if v >> i & 1), (n, i)
