"""`explore` builds the graph that stepping one vector at a time builds.

Without a flip budget, `explore` steps each key once per read class through
its step table. `reference_explore` below is the explorer's earlier loop,
one `evolve` call per (key, vector) edge, with a sorted list of vectors
per key and one parent entry per state. Both must agree on key ids, the
order of every layer and of its vectors (`export_lines` prints them in
iteration order), the parent of every state, violations in order, the
(key, vector) entries known to the step store, `export_lines`
and the engine counters. The safety search reads the same step tables;
`reference_safety` is its earlier per-edge loop, and both must give the
same verdict and witness. The bounded-response, reach and never-while
searches step through the same tables; `reference_persistent_steps` is
their earlier per-vector step, and swapped in it must leave every verdict
and witness as it was. `reference_deadline` decides the same formulas
without the search: it anchors at every state, steps one `evolve` call
per next vector, evaluates the condition on its own, and recurses plainly;
its status must equal `check_formula`'s. The references visit vectors in
ascending order and step a key from its lowest vector, the explorer's
order rule, and compute their own flip-budget Hamming balls.
"""

from functools import lru_cache

import pytest

from smart_tgpn import analysis
from smart_tgpn.analysis import (
    BRANCH_ALL,
    HOLDS,
    INCONCLUSIVE,
    VACUOUS,
    VIOLATED,
    ExplorationConfig,
    Formula,
    FormulaVerdict,
    ReachGraph,
    Violation,
    _condition_test,
    _Explorer,
    check_formula,
    explore,
    resolve_forbidden,
)
from smart_tgpn.guards import EvalContext, Marked, Not, Or, Sig
from smart_tgpn.builder import SmartNet
from smart_tgpn.net import Arc, Net
from smart_tgpn.signals import ConstantSignals
from test_explore_memo import ALPHABET8, CASES, double, single


def next_vectors(explorer, vector):
    """Every vector, or those within the flip budget's Hamming distance of
    ``vector``, ascending."""
    budget = explorer.cfg.flip_budget
    return [v for v in range(1 << len(explorer.drivers)) if budget is None or (v ^ vector).bit_count() <= budget]


def reference_explore(subject, cfg):
    """One `evolve` call per (key, vector) edge, in ascending vector order.
    The graph's `state_parents` maps each state to its (source key, source
    vector); its `parents` holds one chunk per state, for witnesses."""
    explorer = _Explorer(subject, cfg)
    graph = ReachGraph(explorer)
    graph.state_parents = {}
    frontier = {explorer.intern(explorer.initial_key()): {explorer.initial_vector()}}

    for tick in range(cfg.horizon + 1):
        layer = {}
        for key_id in sorted(frontier):
            prevs = sorted(frontier[key_id]) if cfg.flip_budget is not None else [min(frontier[key_id])]
            pairs = [(prev, v) for prev in prevs for v in next_vectors(explorer, prev)]
            for prev_vector, vector in pairs:
                for result in explorer.evolve(key_id, vector):
                    target = explorer.intern(result.key)
                    node = (tick, target, vector)
                    if node in graph.state_parents:
                        continue
                    layer.setdefault(target, set()).add(vector)
                    graph.state_parents[node] = (key_id, prev_vector)
                    graph.parents.setdefault((tick, target), []).append((key_id, prev_vector, 1 << vector))
                    for violation in result.violations:
                        graph.violations.append(Violation(tick, (target, vector), violation))
                    for breach in result.output_breaches:
                        graph.violations.append(
                            Violation(tick, (target, vector), f"output {breach} without stable token")
                        )
        graph.layers.append({key_id: sorted(vectors) for key_id, vectors in layer.items()})
        graph.state_count += sum(len(v) for v in layer.values())
        if 0 < tick < cfg.horizon and graph.state_count > cfg.state_cap:
            graph.incomplete = True
            break
        frontier = layer

    graph.stats = dict(explorer.counts)
    return graph


def reference_safety(graph, formula):
    """The safety search with one condition lookup per (key, vector) edge."""
    lowest = _condition_test(graph, formula.condition)

    def holds(key_id, vector):
        return lowest(key_id, 1 << vector) is not None

    explorer = graph._explorer
    forbidden = resolve_forbidden(formula.forbidden, explorer.net, explorer.smart)
    init = {explorer.intern(explorer.initial_key()): {explorer.initial_vector()}}
    for tick, layer in enumerate([init] + graph.layers[:-1]):
        for key_id, vectors in layer.items():
            prevs = sorted(vectors) if graph.config.flip_budget is not None else [min(vectors)]
            for vector in (v for prev in prevs for v in next_vectors(explorer, prev)):
                if not holds(key_id, vector):
                    continue
                for result in explorer.evolve(key_id, vector):
                    hit = sorted(set(result.firings) & forbidden)
                    if hit:
                        target = explorer.intern(result.key)
                        witness = graph.witness_path(tick, target, vector)
                        return FormulaVerdict(formula, VIOLATED, witness, f"{hit[0]} fired under the condition")
    if not any(holds(k, v) for _, k, v in graph.states()):
        return FormulaVerdict(formula, VACUOUS, detail="condition never held")
    return FormulaVerdict(formula, HOLDS)


def defective(weak_branching, output_loop=False):
    """The single-agent net with an ungated output (it fires outside P_S)
    and a t_SM that also marks P_A (two mode tokens). With ``output_loop``
    the output puts its want token back, so under all-branching firing it
    and not firing it reach one key, and only the first result counts."""
    smart = single()
    net = smart.net
    arcs = [a for a in net.arcs if (a.source, a.target) not in (("P_S", "t_out"), ("t_out", "P_S"))]
    arcs.append(Arc("t_SM", "P_A"))
    if output_loop:
        arcs.append(Arc("t_out", "P_want"))
    broken = Net(list(net.places), dict(net.transitions), arcs, dict(net.initial_marking), set(net.refinable))
    subject = SmartNet(broken, smart.config, smart.agents, smart.coordination_places, smart.gating_mode)
    cfg = ExplorationConfig(horizon=4, alphabet=ALPHABET8[:3] + ["want_output"], weak_branching=weak_branching)
    return subject, cfg


SUBJECTS = {
    **{name: (lambda f=factory, c=cfg: (f(), c)) for name, (factory, cfg, _) in CASES.items()},
    "c01-single-h7": lambda: (single(), ExplorationConfig(horizon=7, alphabet=ALPHABET8)),
    "c01-two-agent-h7": lambda: (double(), ExplorationConfig(horizon=7, alphabet=ALPHABET8)),
    "c01-single-budget-2-h6": lambda: (single(), ExplorationConfig(horizon=6, alphabet=ALPHABET8, flip_budget=2)),
    "defective-earliest": lambda: defective("earliest-only"),
    "defective-all-branching": lambda: defective(BRANCH_ALL),
    "defective-output-loop": lambda: defective(BRANCH_ALL, output_loop=True),
}


def _violations(graph):
    return [(v.tick, v.state, v.description) for v in graph.violations]


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_explore_matches_the_per_vector_reference(name):
    subject, cfg = SUBJECTS[name]()
    graph = explore(subject, cfg)
    subject, cfg = SUBJECTS[name]()
    expected = reference_explore(subject, cfg)
    assert graph._explorer.key_table == expected._explorer.key_table
    assert [[(key_id, list(vectors)) for key_id, vectors in layer.items()] for layer in graph.layers] == [
        [(key_id, list(vectors)) for key_id, vectors in layer.items()] for layer in expected.layers
    ]
    assert {state: graph.parent(*state) for state in graph.states()} == expected.state_parents
    assert _violations(graph) == _violations(expected)
    assert [entry[:2] for entry in graph._explorer.known_steps()] == [
        entry[:2] for entry in expected._explorer.known_steps()
    ]
    assert list(graph.export_lines()) == list(expected.export_lines())
    assert graph.stats == expected.stats
    assert (graph.state_count, graph.incomplete) == (expected.state_count, expected.incomplete)


@pytest.mark.parametrize("weak_branching", ["earliest-only", BRANCH_ALL])
def test_defective_net_reaches_both_kinds_of_violation(weak_branching):
    graph = explore(*defective(weak_branching))
    descriptions = {v.description for v in graph.violations}
    assert any(d.startswith("mode-token sum 2") for d in descriptions)
    assert "output t_out without stable token" in descriptions


def test_output_loop_gives_a_class_two_results_with_one_target():
    graph = explore(*defective(BRANCH_ALL, output_loop=True))
    classes = [step for entries, _ in graph._explorer.steps.values() for step in entries]
    assert any(len(set(targets)) < len(targets) for *_, (_, targets) in classes)


def safety_formulas(smart):
    agent = smart.agents[0]
    return [
        Formula("safety", Sig(agent.signal("anom")), forbidden=(agent.switch("t_SM"),)),
        # holds on vectors of a later read class below the first ones of an earlier class
        Formula("safety", Or((Sig(agent.signal("anom")), Sig(agent.signal("assist")))),
                forbidden=(agent.switch("t_SM"),)),
        Formula("safety", Not(Sig(agent.signal("ext_auth"))), forbidden=("mode-switch",)),
        Formula("safety", Not(Marked(agent.place("S"))), forbidden=("output",)),
        Formula("safety", Sig(agent.signal("timeout_M")), forbidden=(agent.switch("t_MR"), agent.switch("t_MA"))),
    ]


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_safety_matches_the_per_edge_reference(name):
    subject, cfg = SUBJECTS[name]()
    graph = explore(subject, cfg)
    verdicts = [check_formula(graph, formula) for formula in safety_formulas(subject)]
    subject, cfg = SUBJECTS[name]()
    expected = reference_explore(subject, cfg)
    expected_verdicts = [reference_safety(expected, formula) for formula in safety_formulas(subject)]
    assert [(v.status, v.detail, v.witness) for v in verdicts] == [
        (v.status, v.detail, v.witness) for v in expected_verdicts
    ]


def reference_persistent_steps(graph, lowest, key_id, vector):
    """The persistent steps with one `evolve` call per next vector."""
    explorer = graph._explorer
    for nxt in next_vectors(explorer, vector):
        for result in explorer.evolve(key_id, nxt):
            target = explorer.intern(result.key)
            if lowest(target, 1 << nxt) is not None:
                yield target, nxt, result


def search_formulas(smart):
    agent = smart.agents[0]
    return [
        Formula("bounded-response", agent.invalid, place=agent.place("M"), within=agent.config.delta_s),
        Formula("bounded-response", Sig(agent.signal("anom")), place=agent.place("M"), within=2),
        # its witness steps through the lowest vector of a later read class
        Formula("bounded-response", Sig(agent.signal("evidence")), place=agent.place("R"), within=2),
        Formula("reach", agent.unrecoverable, place=agent.place("R"), within=agent.config.governance_bound),
        Formula("reach", Sig(agent.signal("hardware_fault")), place=agent.place("R"), within=3),
        Formula("never-while", Not(Sig(agent.signal("ext_auth"))), place=agent.place("S"),
                from_places=(agent.place("R"),)),
        Formula("never-while", Sig(agent.signal("safe")), place=agent.place("S"), from_places=(agent.place("M"),)),
        # under a flip budget, vectors a target's read class shares steer its later steps apart
        Formula("never-while", Or((Sig(agent.signal("hardware_fault")), Sig(agent.signal("assist")))),
                place=agent.place("S"), from_places=(agent.place("R"),)),
    ]


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_searches_match_the_per_vector_reference(name, monkeypatch):
    subject, cfg = SUBJECTS[name]()
    graph = explore(subject, cfg)
    verdicts = [check_formula(graph, formula) for formula in search_formulas(subject)]
    monkeypatch.setattr(analysis, "_persistent_steps", reference_persistent_steps)
    subject, cfg = SUBJECTS[name]()
    expected = explore(subject, cfg)
    expected_verdicts = [check_formula(expected, formula) for formula in search_formulas(subject)]
    assert [(v.status, v.detail, v.witness) for v in verdicts] == [
        (v.status, v.detail, v.witness) for v in expected_verdicts
    ]


def reference_deadline(graph, formula):
    """The status of a bounded-response, reach or never-while formula, by
    plain recursion from every state of the graph. A state where the
    condition holds anchors (never-while: also where its marking anchors).
    From an anchor at tick t whose place is not marked, a run steps to
    successors where the condition still holds, one `evolve` call per next
    vector, for at most horizon - t ticks; a step marks the place if a
    firing puts a token in it or its target holds one. Bounded-response and
    reach are violated by a run of `within` ticks that marks nothing, and
    left open by one that reaches the horizon first; never-while is violated
    by a run that marks the place. The step reads no tick, so the anchors of
    one configuration (the key, and the vector under a flip budget) share
    one future: one of them that decides it decides them all."""
    explorer, place = graph._explorer, formula.place
    never = formula.kind == "never-while"
    budgeted = graph.config.flip_budget is not None

    @lru_cache(maxsize=None)
    def holds(key_id, vector):
        key = explorer.key_table[key_id]
        values = {**explorer.vector_values(vector), **explorer.clock_of(key).timeouts(0)}
        return formula.condition.holds(EvalContext(ConstantSignals(values), dict(key.marking), 0), 0)

    def marks(result, target):
        return graph.marking_of(target).get(place, 0) >= 1 or any(
            place in explorer.net.post(tid) for tid in result.firings)

    @lru_cache(maxsize=None)
    def run(key_id, vector, ticks):
        """Some persistent run of ``ticks`` ticks from the state marks the
        place (never-while: at some tick) or never does (otherwise). Without
        a flip budget every state steps to every vector, so ``vector`` is 0."""
        if ticks == 0:
            return not never
        for nxt in next_vectors(explorer, vector):
            for result in explorer.evolve(key_id, nxt):
                target = explorer.intern(result.key)
                if holds(target, nxt) and (
                        never if marks(result, target) else run(target, nxt if budgeted else 0, ticks - 1)):
                    return True
        return False

    decided = {}  # configuration -> the statuses of its anchors
    for tick, key_id, vector in graph.states():
        marking = graph.marking_of(key_id)
        if not holds(key_id, vector) or (never and not formula.anchors_at(marking)):
            continue
        slack = graph.horizon - tick
        within = slack if never else formula.within
        if marking.get(place, 0) >= 1 or not run(key_id, vector if budgeted else 0, min(within, slack)):
            status = HOLDS
        else:
            status = VIOLATED if within <= slack else INCONCLUSIVE
        decided.setdefault((key_id, vector if budgeted else None), set()).add(status)
    statuses = {VIOLATED if VIOLATED in s else HOLDS if HOLDS in s else INCONCLUSIVE for s in decided.values()}
    return next((s for s in (VIOLATED, INCONCLUSIVE, HOLDS) if s in statuses), VACUOUS)


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_searches_match_an_independent_reference(name):
    subject, cfg = SUBJECTS[name]()
    graph = explore(subject, cfg)
    statuses = [check_formula(graph, formula).status for formula in search_formulas(subject)]
    subject, cfg = SUBJECTS[name]()
    expected = explore(subject, cfg)
    assert statuses == [reference_deadline(expected, formula) for formula in search_formulas(subject)]
