import gc
import random

import pytest
from hypothesis import given, strategies as st

from smart_tgpn.analysis import (
    BRANCH_ALL,
    ExplorationConfig,
    Formula,
    VectorSet,
    _Explorer,
    check_formula,
    check_p_invariant,
    explore,
    incidence_matrix,
    mode_indicator,
    replay_witness,
    resolve_forbidden,
)
from smart_tgpn.builder import AgentSpec, SmartConfig, SmartNet, build_multi_agent, build_single_agent, validate_smart
from smart_tgpn.guards import And, Cmp, Marked, Not, Sig, parse_guard
from smart_tgpn.net import Arc, Net, TransitionRecord, drop_transition
from smart_tgpn.signals import UndeclaredSignal

ALPHABET4 = ["anom", "evidence", "safe", "hardware_fault"]


def single():
    return build_single_agent(SmartConfig())


def mutant_without(smart, tid):
    return SmartNet(
        drop_transition(smart.net, tid), smart.config, smart.agents,
        smart.coordination_places, smart.gating_mode,
    )


class TestIncidence:
    def test_escalation_column(self):
        C = incidence_matrix(single().net)
        assert C.entry("P_S", "t_SM") == -1
        assert C.entry("P_M", "t_SM") == 1

    def test_self_loop_nets_to_zero(self):
        net = Net(
            places=["p"], transitions={"t": TransitionRecord("t")},
            arcs=[Arc("p", "t"), Arc("t", "p")],
        )
        assert incidence_matrix(net).entry("p", "t") == 0

    def test_output_restore_nets_to_zero(self):
        # the output transition consumes and restores the stable token
        assert incidence_matrix(single().net).entry("P_S", "t_out") == 0


class TestPInvariant:
    def test_mode_indicator_holds(self):
        smart = single()
        assert check_p_invariant(incidence_matrix(smart.net), mode_indicator(smart)) is True

    def test_stable_only_indicator_fails(self):
        # by hand: the t_SM column contributes -1 under weight {P_S: 1}
        smart = single()
        assert check_p_invariant(incidence_matrix(smart.net), {"P_S": 1}) is False

    def test_zero_vector_trivially_holds(self):
        assert check_p_invariant(incidence_matrix(single().net), {}) is True

    def test_unknown_place_rejected(self):
        with pytest.raises(ValueError):
            check_p_invariant(incidence_matrix(single().net), {"P_nowhere": 1})


class TestOutputSafety:
    def test_builder_passes(self):
        assert validate_smart(single()).check("output-gating").passed

    def test_extra_mode_preplace_flagged(self):
        smart = single()
        smart.net = Net(
            smart.net.places, dict(smart.net.transitions),
            list(smart.net.arcs) + [Arc("P_M", "t_out")],
            dict(smart.net.initial_marking),
        )
        gate = validate_smart(smart).check("output-gating")
        assert any("P_M" in w for w in gate.witnesses)


class TestExplore:
    def test_mode_sum_invariant_over_full_alphabet(self):
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=10, alphabet=ALPHABET4 + ["assist", "ext_auth"]))
        assert graph.state_count > 0
        assert not graph.incomplete
        assert graph.violations == []

    def test_guarded_outputs_never_fire_under_invalidity(self):
        smart = single()
        graph = explore(
            smart,
            ExplorationConfig(horizon=8, alphabet=ALPHABET4 + ["want_output"]),
        )
        assert graph.violations == []  # includes Lemma-4 style output breaches
        formula = Formula("safety", smart.agents[0].invalid, forbidden=("output",), name="gating")
        assert check_formula(graph, formula).status == "holds"

    def test_state_cap_marks_incomplete(self):
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=6, alphabet=ALPHABET4, state_cap=10))
        assert graph.incomplete
        # a cap passed only by the horizon's layer cuts nothing short
        full = explore(smart, ExplorationConfig(horizon=6, alphabet=ALPHABET4))
        last = explore(smart, ExplorationConfig(horizon=6, alphabet=ALPHABET4, state_cap=full.state_count - 1))
        assert (last.incomplete, last.state_count) == (False, full.state_count)

    def test_deleted_escalation_yields_replayable_counterexample(self):
        smart = mutant_without(single(), "t_SM")
        graph = explore(smart, ExplorationConfig(horizon=8, alphabet=ALPHABET4))
        anchor = And((smart.agents[0].invalid, Not(smart.agents[0].unrecoverable), Marked("P_S")))
        formula = Formula("bounded-response", anchor, place="P_M", within=2, name="escalation")
        verdict = check_formula(graph, formula)
        assert verdict.status == "violated"
        replayed = replay_witness(graph, verdict.witness)
        assert [(s["tick"], s["firings"]) for s in verdict.witness] == replayed

    def test_witness_replay_deposits_the_explorers_output_attempts(self):
        # with want_output in the alphabet the explorer deposits an output
        # attempt whenever the want place is empty; the replay must too
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=5, alphabet=ALPHABET4 + ["want_output"]))
        agent = smart.agents[0]
        formula = Formula("never-while", Cmp(agent.signal("U"), "<=", agent.config.theta), place="P_R",
                          from_places=("P_S",))
        verdict = check_formula(graph, formula)
        assert verdict.status == "violated"
        assert verdict.witness[0]["firings"] == ["t_out"]
        replayed = replay_witness(graph, verdict.witness)
        assert [(s["tick"], s["firings"]) for s in verdict.witness] == replayed

    def test_edge_targets_replay_from_sources(self):
        # spot-check: a stored quotient edge reproduces its target key
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=4, alphabet=["anom"]))
        explorer = graph._explorer
        key_id, vector, results = explorer.known_steps()[0]
        again = explorer._evolve_uncached(explorer.key_table[key_id], vector)
        assert [r.key for r in again] == [r.key for r in results]


class TestFormulas:
    def test_bounded_response_boundary_is_exact(self):
        smart = single()
        graph = explore(
            smart,
            ExplorationConfig(horizon=8, alphabet=ALPHABET4, weak_branching=BRANCH_ALL),
        )
        anchor = And((smart.agents[0].invalid, Not(smart.agents[0].unrecoverable), Marked("P_S")))
        at_deadline = Formula("bounded-response", anchor, place="P_M", within=2)
        inside_deadline = Formula("bounded-response", anchor, place="P_M", within=1)
        assert check_formula(graph, at_deadline).status == "holds"
        assert check_formula(graph, inside_deadline).status == "violated"

    def test_governance_reachability_formula(self):
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=10, alphabet=ALPHABET4 + ["assist"]))
        bound = smart.config.governance_bound
        formula = Formula("bounded-response", smart.agents[0].unrecoverable, place="P_R", within=bound)
        assert check_formula(graph, formula).status == "holds"

    def test_vacuous_when_premise_cannot_hold(self):
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=4, alphabet=["anom"]))
        formula = Formula("safety", Sig("hardware_fault"), forbidden=("output",))
        assert check_formula(graph, formula).status == "vacuous"

    def test_inconclusive_when_horizon_cannot_mature(self):
        # waiting branches keep the obligation open past the horizon
        smart = single()
        graph = explore(
            smart, ExplorationConfig(horizon=2, alphabet=["safe"], weak_branching=BRANCH_ALL)
        )
        formula = Formula(
            "bounded-response", smart.agents[0].unrecoverable, place="P_R", within=6
        )
        assert check_formula(graph, formula).status == "inconclusive"

    def test_never_while_on_two_agents(self):
        smart = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
        graph = explore(
            smart,
            ExplorationConfig(horizon=10, alphabet=ALPHABET4 + ["assist", "disagree", "agree"]),
        )
        condition = And((Sig("disagree"), Not(Sig("ext_auth_a1"))))
        formula = Formula("never-while", condition, place="P_S_a1", from_places=("P_A_a1",))
        assert check_formula(graph, formula).status == "holds"

    def test_never_while_detects_an_unguarded_return(self):
        # drop only the disagreement conjunct: the return then fires as soon
        # as validity recovers, silently overriding the standing conflict
        smart = build_multi_agent([AgentSpec("a1"), AgentSpec("a2")])
        agent = smart.agent("a1")
        record = smart.net.transitions["t_AS_a1"]
        smart.net = smart.net.with_transitions(
            [record.with_guard(And((Not(agent.invalid), Not(agent.unrecoverable))))]
        )
        graph = explore(
            smart,
            ExplorationConfig(horizon=10, alphabet=ALPHABET4 + ["assist", "disagree"]),
        )
        condition = And((Sig("disagree"), Not(Sig("ext_auth_a1"))))
        formula = Formula("never-while", condition, place="P_S_a1", from_places=("P_A_a1",))
        assert check_formula(graph, formula).status == "violated"

    def test_a_check_leaves_no_cyclic_garbage(self):
        # its searches and their memo are freed when the check returns,
        # not at the next collection
        smart = single()
        graph = explore(smart, ExplorationConfig(horizon=6, alphabet=ALPHABET4, weak_branching=BRANCH_ALL))
        anchor = And((smart.agents[0].invalid, Not(smart.agents[0].unrecoverable), Marked("P_S")))
        formulas = [
            Formula("bounded-response", anchor, place="P_M", within=2),
            Formula("bounded-response", anchor, place="P_M", within=1),
            Formula("never-while", Sig("safe"), place="P_S", from_places=("P_M",)),
        ]
        for formula in formulas:
            gc.collect()
            gc.disable()
            try:
                check_formula(graph, formula)
                assert gc.collect() == 0, formula
            finally:
                gc.enable()


@given(st.sets(st.integers(0, 300)))
def test_vector_set_reads_as_a_set_of_its_bits(vectors):
    bits = sum(1 << v for v in vectors)
    vector_set = VectorSet(bits)
    assert len(vector_set) == bits.bit_count() == len(vectors)
    assert list(vector_set) == sorted(vectors)
    assert all(v in vector_set for v in vectors)
    assert not any(v in vector_set for v in range(-2, 302) if v not in vectors)
    assert vector_set == VectorSet(bits) and vector_set != VectorSet(bits ^ 1)
    assert vector_set != set(vectors)


@pytest.mark.parametrize("flip_budget", [None, 1])
def test_state_count_is_the_sum_of_layer_popcounts(flip_budget):
    graph = explore(single(), ExplorationConfig(horizon=4, alphabet=ALPHABET4, flip_budget=flip_budget))
    assert graph.state_count == sum(v.bits.bit_count() for layer in graph.layers for v in layer.values())
    assert graph.state_count == sum(1 for _ in graph.states())


def test_worker_free_determinism():
    """Two explorations of the same configuration give the same graph."""
    smart = single()
    cfg = ExplorationConfig(horizon=6, alphabet=ALPHABET4)
    a, b = explore(smart, cfg), explore(smart, cfg)
    assert a.state_count == b.state_count
    assert [sorted(layer.items()) for layer in a.layers] == [sorted(layer.items()) for layer in b.layers]


def test_all_branching_siblings_read_their_own_timeouts():
    """Each sibling firing of an all-branching cascade reads the derived
    timeouts of its own marking and residence, not the values its previous
    sibling's branch left behind (that leak made t_MR_a2 fire unenabled)."""
    smart = build_multi_agent(
        [AgentSpec("a1"), AgentSpec("a2")], base_config=SmartConfig(budget_m=1, budget_a=1)
    )
    graph = explore(smart, ExplorationConfig(horizon=2, alphabet=ALPHABET4, weak_branching=BRANCH_ALL))
    assert (graph.state_count, graph.violations, graph.incomplete) == (425, [], False)


@pytest.mark.parametrize(
    "build, alphabet",
    [
        (single, ["anom", "anom", "safe"]),
        (lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]), ["anom", "anom_a1"]),
    ],
    ids=["repeated-name", "lockstep-name-and-agent-signal"],
)
def test_two_alphabet_entries_that_drive_one_signal_are_rejected(build, alphabet):
    """Each entry is one driver bit, so two entries on one signal would
    count the vectors where their bits disagree as extra states."""
    with pytest.raises(ValueError, match="both drive"):
        explore(build(), ExplorationConfig(horizon=3, alphabet=alphabet))


@pytest.mark.parametrize(
    "build, alphabet",
    [
        (single, ["anom", "evidence", "timeout_M"]),
        (lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]), ["anom", "timeout_A"]),
        (lambda: build_multi_agent([AgentSpec("a1"), AgentSpec("a2")]), ["anom", "timeout_M_a2"]),
    ],
    ids=["single-agent", "lockstep-name", "agent-signal"],
)
def test_a_derived_timeout_is_rejected_as_an_alphabet_entry(build, alphabet):
    """The residence clock sets the timeouts inside the instant and
    overwrites the driver bit, which would only double the states."""
    with pytest.raises(ValueError, match="derived from residence clocks"):
        explore(build(), ExplorationConfig(horizon=3, alphabet=alphabet))


@pytest.mark.parametrize("bound", ["horizon", "state_cap", "flip_budget"])
def test_a_negative_bound_is_rejected(bound):
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        explore(single(), ExplorationConfig(**{"horizon": 3, "alphabet": ["anom"], bound: -1}))


def test_bit_patterns_of_twenty_drivers_hold_the_vectors_with_their_bit_set():
    """At the widest alphabet each driver's pattern is a 2^20-bit int;
    bit v of pattern i is set exactly when vector v has bit i set."""
    smart = build_multi_agent([AgentSpec(f"a{i}") for i in (1, 2, 3)])
    alphabet = [f"{name}_a{i}" for name in ("anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth")
                for i in (1, 2, 3)] + ["disagree", "agree"]
    explorer = _Explorer(smart, ExplorationConfig(horizon=0, alphabet=alphabet))
    assert len(explorer.bit_patterns) == 20
    rng = random.Random(0)
    vectors = [0, 1, (1 << 20) - 1] + [rng.randrange(1 << 20) for _ in range(500)]
    for i, pattern in enumerate(explorer.bit_patterns):
        assert pattern.bit_length() <= 1 << 20 and bin(pattern).count("1") == 1 << 19
        for vector in vectors:
            assert (pattern >> vector) & 1 == (vector >> i) & 1, (i, vector)


def test_a_budget_as_wide_as_the_alphabet_steps_as_no_budget():
    """Such a budget lets every vector follow every vector, so each key
    steps once, from its lowest vector, as without a budget."""
    graphs = [explore(single(), ExplorationConfig(horizon=4, alphabet=ALPHABET4, flip_budget=budget))
              for budget in (None, len(ALPHABET4), 9)]
    for graph in graphs[1:]:
        assert list(graph.export_lines()) == list(graphs[0].export_lines())
        assert graph.stats == graphs[0].stats


class TestFormulaConditions:
    """Formula conditions go through the guard evaluator over one tick's
    constant assignment, with the errors that implies."""

    def check(self, condition):
        graph = explore(single(), ExplorationConfig(horizon=2, alphabet=ALPHABET4))
        return check_formula(graph, Formula("safety", parse_guard(condition), forbidden=("output",)))

    def test_held_for_is_rejected_before_evaluation(self):
        # the false conjunct short-circuits, so only an up-front check sees it
        with pytest.raises(ValueError, match="held_for in formula conditions is not supported"):
            self.check("false and held_for(anom, 1)")

    def test_threshold_on_undeclared_signal_raises(self):
        with pytest.raises(UndeclaredSignal):
            self.check("nosuch >= 0.5")

    def test_marking_atom_on_unknown_place_raises(self):
        with pytest.raises(UndeclaredSignal):
            self.check("marked(P_nosuch)")


def test_resolve_forbidden_reads_ids_output_and_role_classes():
    smart = single()
    assert resolve_forbidden(["t_SR"], smart.net, smart) == {"t_SR"}
    assert resolve_forbidden(["output"], smart.net, smart) == {"t_out"}
    assert resolve_forbidden(["mode-switch"], smart.net, smart) == set(smart.mode_switch_transitions)


class TestFlipBudgetSearch:
    """Under a flip budget, formula searches step only to the vectors within
    the budget of the vector the current state holds."""

    def explore(self, horizon):
        return explore(single(), ExplorationConfig(horizon=horizon, alphabet=ALPHABET4, flip_budget=1))

    def test_tick0_safety_edges_leave_from_the_initial_vector(self):
        # initially evidence and safe hold; one flip never clears both
        graph = self.explore(0)
        assert sorted({v for vectors in graph.layers[0].values() for v in vectors}) == [2, 4, 6, 7, 14]
        formula = Formula("safety", parse_guard("not safe and not evidence"), forbidden=("t_SR",))
        assert check_formula(graph, formula).status == "vacuous"

    def test_bounded_response_steps_from_the_current_vector(self):
        # an anomaly alone never leads to governance
        formula = Formula("bounded-response", Sig("anom"), place="P_R", within=1)
        graph = self.explore(5)
        verdict = check_formula(graph, formula)
        assert verdict.status == "violated"
        assert [(s["tick"], s["firings"]) for s in verdict.witness] == replay_witness(graph, verdict.witness)

    def test_never_while_steps_from_the_current_vector(self):
        # escalated on lost evidence while safe; one flip restores the
        # evidence, and the return to P_S happens under safe
        formula = Formula("never-while", Sig("safe"), place="P_S", from_places=("P_M",))
        verdict = check_formula(self.explore(2), formula)
        assert verdict.status == "violated"
        assert verdict.witness[0]["firings"] == ["t_SM"]
