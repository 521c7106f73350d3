"""Static structural analysis and bounded explicit-state exploration.

The incidence matrix and P-invariant checks use exact integer
arithmetic. The explorer enumerates, tick by tick, every assignment of
the chosen environment signals (within a per-tick flip budget), runs the
kernel's in-instant firing cascade, and deduplicates states on
(marking, timer residuals, derived clocks, signal vector, tick). Derived
timeout signals are computed from residence clocks internally and are
not part of the environment alphabet.

Formula verdicts are computed over the reached graph: safety (a
condition never coincides with a class of firings), bounded response and
reach (a place is marked within a deadline along every path where the
premise persists; paths where the environment retracts the premise are
excluded), and never-while (no premise-persistent path from given source
places ever marks a forbidden place). A horizon too short to decide an
obligation, or a state cap that cuts the exploration short, yields
"inconclusive", never a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .builder import WANT_OUTPUT as WANT_DRIVER, ResidenceClock, SmartNet
from .guards import (
    And,
    EvalContext,
    GuardExpr,
    HeldFor,
    MAX_ATOMS,
    Marked,
    Not,
    Or,
    Sig,
    bit_patterns,
    check_no_nested_held,
    held_terms,
    place_names,
    signal_names,
    substitute,
    truth_bits,
)
from .kernel import FiringPolicy, KernelState, _check_deadlines, _covered, _due_transition, _fire_now
from .net import INF, Marking, Net, STRONG
from .signals import ConstantSignals

# --- incidence matrix and P-invariants ---------------------------------------


@dataclass
class IncidenceMatrix:
    """C[p][t] = w(t, p) - w(p, t), exact integers."""

    places: list[str]
    transitions: list[str]
    entries: dict[str, dict[str, int]]

    def entry(self, place: str, transition: str) -> int:
        return self.entries[place].get(transition, 0)


def incidence_matrix(net: Net) -> IncidenceMatrix:
    entries: dict[str, dict[str, int]] = {p: {} for p in net.places}
    for tid in net.transition_ids():
        for place, weight in net.pre(tid).items():
            entries[place][tid] = entries[place].get(tid, 0) - weight
        for place, weight in net.post(tid).items():
            entries[place][tid] = entries[place].get(tid, 0) + weight
    return IncidenceMatrix(list(net.places), net.transition_ids(), entries)


def check_p_invariant(matrix: IncidenceMatrix, y: Mapping[str, int]) -> bool:
    """True iff y^T C is the zero vector."""
    if unknown := set(y) - set(matrix.places):
        raise ValueError(f"invariant vector names unknown places {sorted(unknown)}")
    return all(sum(weight * matrix.entry(place, tid) for place, weight in y.items()) == 0
               for tid in matrix.transitions)


def mode_indicator(smart: SmartNet) -> dict[str, int]:
    """Weight 1 on every mode place, 0 elsewhere."""
    return {p: 1 for p in smart.mode_place_ids}


# --- exploration --------------------------------------------------------------

BRANCH_EARLIEST = "earliest-only"
BRANCH_ALL = "all"


@dataclass
class ExplorationConfig:
    horizon: int
    alphabet: list[str] = field(default_factory=list)
    flip_budget: int | None = None  # None: any subset of the alphabet may flip per tick
    weak_branching: str = BRANCH_EARLIEST
    state_cap: int = 1_000_000


@dataclass(frozen=True)
class StateKey:
    """Canonical state identity: marking, capped timer elapse per enabled
    transition, per-agent residence clocks, and held-for run lengths."""

    marking: tuple[tuple[str, int], ...]
    timers: tuple[tuple[str, int], ...]
    residence: tuple[tuple[str, int], ...]
    held_runs: tuple[int, ...]


@dataclass
class EvolveResult:
    key: StateKey
    firings: tuple[str, ...]
    touched: frozenset[str]  # places marked at some point of the instant, see _Explorer._finish
    violations: tuple[str, ...]
    output_breaches: tuple[str, ...]  # outputs fired from a state without the stable token


# a key's start state, residence clock and entry places, see _Explorer.start_of
_Start = tuple[KernelState, ResidenceClock, frozenset[str]]


def _lowest(bits: int) -> int:
    """The lowest vector of a nonempty vector bitset."""
    return (bits & -bits).bit_length() - 1


@dataclass(slots=True)
class VectorSet:
    """A set of signal vectors as one int bitset: vector v is in the set iff
    bit v is set. Iteration is in ascending vector order."""

    bits: int = 0

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            yield _lowest(bits)
            bits &= bits - 1

    def __contains__(self, vector: int) -> bool:
        return vector >= 0 and self.bits >> vector & 1 == 1


@dataclass
class Violation:
    tick: int
    state: tuple[int, int]  # (state id, vector)
    description: str


class ReachGraph:
    """Layered reachability structure with a memoized per-tick transition
    function. States are (marking/timer key, signal vector, tick); the
    stored edge relation is the quotient map key x vector -> key, which
    every concrete edge instantiates."""

    def __init__(self, explorer: "_Explorer"):
        self._explorer = explorer
        self.layers: list[dict[int, VectorSet]] = []  # tick -> key id -> vectors
        # (tick, key id) -> (source key id, source vector, vector bits) of each
        # step that added states to it, in insertion order; see parent
        self.parents: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self.violations: list[Violation] = []
        self.incomplete = False
        self.state_count = 0
        self.stats: dict[str, int] = {}  # the exploration's evolve counters, see _Explorer.step_table
        # formula condition -> key id -> the vectors it holds under, see _condition_test
        self.condition_memo: dict[GuardExpr, dict[int, int]] = {}

    @property
    def horizon(self) -> int:
        return self._explorer.cfg.horizon

    @property
    def config(self) -> ExplorationConfig:
        return self._explorer.cfg

    def key_of(self, key_id: int) -> StateKey:
        return self._explorer.key_table[key_id]

    def states(self) -> Iterable[tuple[int, int, int]]:
        for tick, layer in enumerate(self.layers):
            for key_id, vectors in layer.items():
                for vector in vectors:
                    yield tick, key_id, vector

    def marking_of(self, key_id: int) -> Marking:
        return dict(self.key_of(key_id).marking)

    def successor(self, key_id: int, vector: int) -> list[EvolveResult]:
        return self._explorer.evolve(key_id, vector)

    def parent(self, tick: int, key_id: int, vector: int) -> tuple[int, int] | None:
        """(source key id, source vector) of the step that added the state;
        None for a state the graph does not hold."""
        for source, source_vector, bits in self.parents.get((tick, key_id), ()):
            if bits >> vector & 1:
                return source, source_vector
        return None

    def witness_path(self, tick: int, key_id: int, vector: int) -> list[dict]:
        """Replayable path from the initial state to the given state:
        one record per tick with the signal assignment and the firings."""
        explorer, path = self._explorer, []
        while tick >= 0 and (parent := self.parent(tick, key_id, vector)) is not None:
            firings = next((r.firings for r in explorer.evolve(parent[0], vector)
                            if explorer.key_ids.get(r.key) == key_id), ())
            path.append({"tick": tick, "signals": self.vector_to_named(vector), "firings": list(firings)})
            tick, key_id, vector = tick - 1, *parent
        path.reverse()
        return path

    def vector_to_named(self, vector: int) -> dict[str, bool]:
        """Driver-level view of a vector (for display and witnesses)."""
        return {name: bool(vector >> i & 1) for i, (name, _) in enumerate(self._explorer.drivers)}

    def export_lines(self) -> Iterable[str]:
        """Line-oriented dump: one state line per reachable state, one edge
        line per quotient edge."""
        for tick, key_id, vector in self.states():
            key = self.key_of(key_id)
            marking = ",".join(f"{p}:{c}" for p, c in key.marking if c)
            timers = ",".join(f"{t}:{e}" for t, e in key.timers)
            signals = ",".join(
                name for name, value in sorted(self.vector_to_named(vector).items()) if value
            )
            yield f"state {tick} {key_id} {vector} marking=[{marking}] timers=[{timers}] signals=[{signals}]"
        for key_id, vector, results in self._explorer.known_steps():
            for result in results:
                target = self._explorer.key_ids[result.key]
                label = ";".join(result.firings)
                yield f"edge {key_id} {vector} -> {target} [{label}]"


class _Explorer:
    def __init__(self, subject: Net | SmartNet, cfg: ExplorationConfig):
        self.cfg = cfg
        if isinstance(subject, SmartNet):
            self.smart: SmartNet | None = subject
            base_net = subject.net
            declared = set(subject.bool_signals()) | set(subject.real_signals())
        else:
            self.smart = None
            base_net = subject
            declared = {
                name
                for tid in base_net.transition_ids()
                for name in signal_names(base_net.transitions[tid].guard)
            }
        self.net, self.held_specs = self._strip_held(base_net)
        self.deposit_driver = WANT_DRIVER in cfg.alphabet and self.smart is not None
        self.agents = self.smart.agents if self.smart is not None else []
        # one driver bit per alphabet entry; an unnamespaced name drives the
        # per-agent namespaced signals of every agent in lockstep
        self.drivers: list[tuple[str, list[str]]] = []
        driven: dict[str, str] = {}  # signal -> the alphabet entry that drives it
        derived = {name for agent in self.agents for name in agent.timeouts.values()}
        for name in cfg.alphabet:
            if name == WANT_DRIVER:
                continue
            targets = [name] if name in declared else [
                a.signal(name) for a in self.agents if a.signal(name) in declared]
            if not targets:
                raise ValueError(f"alphabet signal {name!r} is not declared by the net")
            if derived.intersection(targets):
                raise ValueError(f"alphabet signal {name!r} is derived from residence clocks, not driven")
            for target in targets:
                if target in driven:
                    raise ValueError(f"alphabet signals {driven[target]!r} and {name!r} both drive {target!r}")
                driven[target] = name
            self.drivers.append((name, targets))
        if len(self.drivers) > MAX_ATOMS:  # a vector set is a 2^n-bit int
            raise ValueError(f"{len(self.drivers)} alphabet signals, at most {MAX_ATOMS} are explorable")
        if cfg.weak_branching not in (BRANCH_EARLIEST, BRANCH_ALL):
            raise ValueError(f"unknown weak branching {cfg.weak_branching!r}")
        for name, value in (("horizon", cfg.horizon), ("state cap", cfg.state_cap), ("flip budget", cfg.flip_budget)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.base_values = dict.fromkeys(declared, False) if self.smart is None else {
            **dict.fromkeys(self.smart.bool_signals(), False), **dict.fromkeys(self.smart.real_signals(), 0.0),
            **self.smart.default_initial_signals()}
        self.policy = FiringPolicy("earliest")

        self.key_ids: dict[StateKey, int] = {}
        self.key_table: list[StateKey] = []
        # key id -> [the key's classes, one (vector bits, (results, target
        # ids)) each, ordered by their lowest vector; the bits of the vectors
        # asked so far]; see step_table
        self.steps: dict[int, list] = {}
        self.every_vector = (1 << (1 << len(self.drivers))) - 1  # the bits of all vectors
        self.bit_patterns = bit_patterns(len(self.drivers))  # driver i -> the vectors with bit i set
        self.driver_patterns = {t: self.bit_patterns[i] for i, (_, targets) in enumerate(self.drivers) for t in targets}
        # the values a guard reads that neither a driver bit nor the base values fix
        self.varying = sorted(derived) + [name for _, name in self.held_specs]
        # (marking, varying values) -> {transition id: truth bits} of every
        # covered transition, in ascending id; see _refresh
        self.truth_memo: dict[tuple, dict[str, int]] = {}
        self.counts = {"evolve_calls": 0, "memo_hits": 0, "class_hits": 0, "evaluations": 0}
        # output id -> its agent's stable place (the first agent that lists it)
        self.output_stable = {tid: a.place("S") for a in reversed(self.agents) for tid in a.outputs}
        # transition id -> the cap of its stored timer elapse; one past a
        # weak beta: the window has expired
        self.timer_caps = {
            tid: r.alpha if r.beta == INF else int(r.beta) if r.timing == STRONG else int(r.beta) + 1
            for tid, r in self.net.transitions.items()
        }

    # -- net transformation ----------------------------------------------

    def _strip_held(self, net: Net) -> tuple[Net, list[tuple[HeldFor, str]]]:
        """Replace held_for terms with virtual boolean signals whose truth
        the explorer maintains as exact run-length counters."""
        specs: list[tuple[HeldFor, str]] = []
        mapping: dict[HeldFor, str] = {}
        records = []

        def virtual(node: GuardExpr) -> GuardExpr | None:
            return Sig(mapping[node]) if isinstance(node, HeldFor) else None

        for tid in net.transition_ids():
            record = net.transitions[tid]
            check_no_nested_held(record.guard)
            terms = held_terms(record.guard)
            if not terms:
                continue
            for term in terms:
                if place_names(term.child):
                    raise ValueError(
                        f"{tid}: held_for over marking atoms is not explorable"
                    )
                if term not in mapping:
                    name = f"held.{len(specs)}"
                    mapping[term] = name
                    specs.append((term, name))
            records.append(record.with_guard(substitute(record.guard, virtual)))
        return (net.with_transitions(records) if records else net), specs

    # -- state identity ----------------------------------------------------

    def intern(self, key: StateKey) -> int:
        key_id = self.key_ids.get(key)
        if key_id is None:
            key_id = len(self.key_table)
            self.key_ids[key] = key_id
            self.key_table.append(key)
        return key_id

    def initial_key(self) -> StateKey:
        marking = self.net.marking0()
        return StateKey(
            marking=tuple(sorted(marking.items())),
            timers=(),
            residence=tuple((agent.suffix, 0) for agent in self.agents),
            held_runs=tuple(-1 for _ in self.held_specs),
        )

    def vector_values(self, vector: int) -> dict[str, bool | float]:
        """Signal-level assignment a vector induces over the base values."""
        values = dict(self.base_values)
        for i, (_, targets) in enumerate(self.drivers):
            bit = bool(vector >> i & 1)
            for target in targets:
                values[target] = bit
        return values

    def initial_vector(self) -> int:
        """The vector of the drivers' base values."""
        return sum(1 << i for i, (_, targets) in enumerate(self.drivers) if self.base_values.get(targets[0]) is True)

    def next_vectors(self, vector: int) -> int:
        """The bits of the vectors a state with ``vector`` steps to: every
        vector, or the Hamming ball of the flip budget around it."""
        if self.cfg.flip_budget is None:
            return self.every_vector
        ball = 1 << vector
        for _ in range(min(self.cfg.flip_budget, len(self.drivers))):
            shell = ball
            for i, pattern in enumerate(self.bit_patterns):  # flip driver bit i
                ball |= (shell & ~pattern) << (1 << i) | (shell & pattern) >> (1 << i)
        return ball

    def wanted(self, vectors: VectorSet) -> Iterator[tuple[int, int]]:
        """(vector, next vectors) of each state of a key, lowest vector first,
        up to the first one that steps to every vector, as later ones would."""
        for vector in vectors:
            want = self.next_vectors(vector)
            yield vector, want
            if want == self.every_vector:
                return

    # -- one tick ------------------------------------------------------------

    def evolve(self, key_id: int, vector: int) -> list[EvolveResult]:
        """Successors of a state under one signal vector: a one-vector table."""
        return self.step_table(key_id, 1 << vector)[0][1]

    def step_table(self, key_id: int, want: int) -> list[tuple[int, list[EvolveResult], list[int]]]:
        """The key's successors under the vectors of ``want``, a nonempty
        bitset: one (class & want, results, target ids) entry per class that
        meets it, in the order of the classes' lowest wanted vectors, which
        is also the order their targets are interned in.

        The step depends on the vector only through the truth of the guards
        it evaluates, so one evaluation answers its class: every vector under
        which each of those guards has the truth it has under the evaluated
        one (see ``_classed``). The lowest wanted vector no class holds yet
        is evaluated until every wanted vector is held; then all are marked
        asked. The counters are those of one ``evolve`` call per wanted
        vector in ascending order.

        The step reads no tick: a reached key's held runs never exceed its
        tick, so the key and the vector fix it, and one entry per key serves
        every tick."""
        classes, asked = entry = self.steps.setdefault(key_id, [[], 0])
        fresh = want & ~asked
        evaluations = 0
        if fresh:
            covered = sum(bits for bits, _ in classes)  # the classes are disjoint
            key = self.key_table[key_id]
            start = self.start_of(key)
            while uncovered := fresh & ~covered:
                bits, results = self._classed(key, _lowest(uncovered), start)
                classes.append((bits, (results, [])))
                covered |= bits
                evaluations += 1
            classes.sort(key=lambda c: c[0] & -c[0])
            entry[1] = asked | want
        self.counts["evolve_calls"] += want.bit_count()
        self.counts["memo_hits"] += (want & asked).bit_count()
        self.counts["class_hits"] += fresh.bit_count() - evaluations
        self.counts["evaluations"] += evaluations
        table = sorted(((met, results, targets) for bits, (results, targets) in classes if (met := bits & want)),
                       key=lambda e: e[0] & -e[0])
        for _, results, targets in table:
            if not targets:
                targets += [self.intern(r.key) for r in results]
        return table

    def known_steps(self) -> list[tuple[int, int, list[EvolveResult]]]:
        """(key id, vector, results) of every vector asked so far, sorted."""
        return sorted(
            ((key_id, vector, answer[0])
             for key_id, (classes, asked) in self.steps.items()
             for bits, answer in classes
             for vector in VectorSet(bits & asked))
        )

    def atom_bits(self, ctx: EvalContext) -> Callable[[GuardExpr], int]:
        """``truth_bits``'s atom test in ``ctx``: a driven signal holds under
        the vectors that set it, a threshold over one under those whose 0 or
        1 passes it, and any other atom, which no vector changes, under all
        vectors or none."""
        every, patterns = self.every_vector, self.driver_patterns

        def bits(atom: GuardExpr) -> int:
            pattern = patterns.get(getattr(atom, "name", None))
            if pattern is None:
                return every if atom.holds(ctx, ctx.now) else 0
            if isinstance(atom, Sig):
                return pattern
            off, on = (atom.holds(EvalContext(ConstantSignals({atom.name: bit}), {}, 0), 0) for bit in (0, 1))
            return (every ^ pattern if off else 0) | (pattern if on else 0)

        return bits

    def _evolve_uncached(self, key: StateKey, vector: int) -> list[EvolveResult]:
        """Evaluate one tick from the key's start."""
        return self._classed(key, vector, self.start_of(key))[1]

    def _classed(self, key: StateKey, vector: int, start: _Start) -> tuple[int, list[EvolveResult]]:
        """The class of ``vector`` and the step's results under it, from a
        copy of the key's ``start_of``. The class is the vectors under which
        every guard the step evaluates, each held-for body and each covered
        guard at each refresh, has the truth it has under ``vector``; the
        held runs, the residence clock and so the cascade follow from those
        truths, so every vector of the class steps alike."""
        state, clock, entry = start
        state, clock = state.clone(), clock.copy()
        values = self.vector_values(vector)
        sigma = ConstantSignals(values)
        every = bits = self.every_vector

        # advance held-for run lengths under the new assignment; held
        # bodies read no places (_strip_held rejects them)
        atom_bits = self.atom_bits(EvalContext(sigma, {}, 0))
        held_runs = []
        for (term, name), prev in zip(self.held_specs, key.held_runs):
            truth = truth_bits(term.child, atom_bits, every)
            body_true = truth >> vector & 1 == 1
            bits &= truth if body_true else ~truth
            run = (0 if prev < 0 else min(prev + 1, term.duration)) if body_true else -1
            held_runs.append(run)
            values[name] = body_true and run >= term.duration

        ends, bits = self._cascade(state, sigma, clock, vector, bits)
        return bits, [self._finish(end_state, end_clock, held_runs, firings, entry)
                      for end_state, end_clock, firings in ends]

    def start_of(self, key: StateKey) -> _Start:
        """The key's kernel state, with the want-place deposits, its residence
        clock at tick 0 of its next step, and the places marked as that step
        begins. Each evaluation steps copies, so one start serves every class
        of a step table."""
        marking = dict(key.marking)
        if self.deposit_driver and self.smart is not None:
            # at most one pending output attempt per agent
            for agent in self.smart.agents:
                if marking.get(agent.want_place, 0) == 0:
                    marking[agent.want_place] = 1
        state = KernelState(marking=marking, timers={tid: -elapsed for tid, elapsed in key.timers},
                            marking_history=[(0, marking)])
        return state, self.clock_of(key, marking), frozenset(p for p, c in marking.items() if c > 0)

    def clock_of(self, key: StateKey, marking: Mapping[str, int] | None = None) -> ResidenceClock:
        """The key's residence clock at tick 0 of its next step; ``marking``,
        if given, holds the key's marking (the clock reads its mode places)."""
        marking = dict(key.marking) if marking is None else marking
        return ResidenceClock.at(self.agents, marking, [-elapsed for _, elapsed in key.residence])

    def _cascade(self, state: KernelState, sigma: ConstantSignals, clock: ResidenceClock, vector: int,
                 bits: int) -> tuple[list[tuple[KernelState, ResidenceClock, tuple[str, ...]]], int]:
        """(end state, residence clock, firings) of each way the instant may
        end from ``state`` under ``vector``, depth first, and the vectors of
        ``bits`` that step alike (see ``_refresh``). Earliest-only follows
        the policy's due transition and ends where nothing is due;
        all-branching follows every transition inside its window, in
        ascending id, may end where nothing is forced, and follows each
        distinct state (marking, clocks, residence clock) once. A loop over a
        stack of fired states: the later choices wait there as fired copies,
        and the first goes on at once, in place unless it is itself an end."""
        branching = self.cfg.weak_branching == BRANCH_ALL
        net, policy, values = self.net, self.policy, sigma.values
        seen: set[tuple] = set()
        outcomes = []
        stack = [(state, clock, [])]
        while stack:
            state, clock, firings = stack.pop()
            while True:
                values.update(clock.timeouts(state.now))
                bits = self._refresh(state, sigma, vector, bits)
                if branching and firings:  # the instant's entry state is never deduplicated
                    mark = (tuple(sorted(state.marking.items())), tuple(sorted(state.timers.items())),
                            tuple(clock.entered))
                    if mark in seen:
                        break
                    seen.add(mark)
                due, window, forced = _due_transition(net, state, policy)
                if branching:
                    window.sort()
                    due, ends = window[0] if window else None, not forced
                    for tid in window[:0:-1]:
                        later, later_clock = state.clone(), clock.copy()
                        _fire_now(net, later, tid, sigma, policy)
                        later_clock.observe(later.marking, later.now)
                        stack.append((later, later_clock, [*firings, tid]))
                else:
                    ends = due is None
                if ends:
                    outcomes.append((state, clock, tuple(firings)))
                    if due is None:
                        break
                    state, clock = state.clone(), clock.copy()
                firings.append(due)
                _fire_now(net, state, due, sigma, policy)
                clock.observe(state.marking, state.now)
        return outcomes, bits

    def _refresh(self, state: KernelState, sigma: ConstantSignals, vector: int, bits: int) -> int:
        """``refresh_timers`` under ``vector`` from each covered guard's truth
        bits, memoized on the marking and the varying values: a clock starts
        or stays where bit ``vector`` is set and is dropped elsewhere, in the
        kernel's order. Returns the vectors of ``bits`` with those truths."""
        memo_key = (tuple(state.marking.items()), *[sigma.values[name] for name in self.varying])
        truths = self.truth_memo.get(memo_key)
        if truths is None:
            atom_bits, every = self.atom_bits(state.eval_context(sigma)), self.every_vector
            truths = self.truth_memo[memo_key] = {
                tid: truth_bits(self.net.transitions[tid].guard, atom_bits, every)
                for tid in _covered(self.net, state.marking)}
        timers = state.timers
        for tid, truth in truths.items():
            if truth >> vector & 1:
                bits &= truth
                if tid not in timers:
                    timers[tid] = state.now
            else:
                bits &= ~truth
                timers.pop(tid, None)
        for tid in timers.keys() - truths.keys():
            del timers[tid]
        _check_deadlines(self.net, state)
        return bits

    def _finish(self, state: KernelState, clock: ResidenceClock, held_runs: list[int],
                firings: tuple[str, ...], entry: frozenset[str]) -> EvolveResult:
        # touched: the places marked as the instant begins, and those its
        # firings mark, so every place marked at its end
        touched = entry.union(*(self.net.post(t) for t in firings)) if firings else entry
        violations = []
        for agent in self.agents:
            total = sum(state.marking.get(p, 0) for p in agent.mode_places.values())
            if total != 1:
                violations.append(f"mode-token sum {total} for agent {agent.agent_id or 'default'}")
        breaches = [
            tid for index, tid in enumerate(firings)
            if tid in self.output_stable and state.marking_history[index][1].get(self.output_stable[tid], 0) < 1
        ]
        key = StateKey(
            marking=tuple(sorted(state.marking.items())),
            timers=tuple((tid, min(-since + 1, self.timer_caps[tid])) for tid, since in sorted(state.timers.items())),
            residence=clock.residence(state.now + 1),
            held_runs=tuple(held_runs),
        )
        return EvolveResult(key, firings, touched, tuple(violations), tuple(breaches))


def explore(subject: Net | SmartNet, cfg: ExplorationConfig) -> ReachGraph:
    """Breadth-first bounded exploration over environment assignments."""
    explorer = _Explorer(subject, cfg)
    graph = ReachGraph(explorer)
    frontier = {explorer.intern(explorer.initial_key()): VectorSet(1 << explorer.initial_vector())}

    for tick in range(cfg.horizon + 1):
        layer: dict[int, VectorSet] = {}
        for key_id in sorted(frontier):
            for prev_vector, want in explorer.wanted(frontier[key_id]):
                _step(graph, layer, tick, key_id, prev_vector, want)
        graph.layers.append(layer)
        graph.state_count += sum(len(v) for v in layer.values())
        # a capped graph still holds layers 0 and 1; one that holds the
        # horizon's layer is complete
        if 0 < tick < cfg.horizon and graph.state_count > cfg.state_cap:
            graph.incomplete = True
            break
        frontier = layer

    graph.stats = dict(explorer.counts)
    return graph


def _step(graph: ReachGraph, layer: dict[int, VectorSet], tick: int, key_id: int, prev_vector: int,
          want: int) -> None:
    """Step the state (key id, prev_vector) under the vectors of ``want``
    through its step table. The states reached and the violations are those
    of one ``evolve`` call per vector in ascending order: a class adds its
    vectors to each target through its first result with that target."""
    flagged = []  # (vector, result index, target, result) of each new state with a violation
    for met, results, targets in graph._explorer.step_table(key_id, want):
        for index, (target, result) in enumerate(zip(targets, results)):
            added = _add_states(graph, layer, tick, target, met, (key_id, prev_vector))
            if added and (result.violations or result.output_breaches):
                flagged += [(v, index, target, result) for v in VectorSet(added)]
    # in the order of one evolve call per vector
    for vector, _, target, result in sorted(flagged, key=lambda f: f[:2]):
        graph.violations += [Violation(tick, (target, vector), v) for v in result.violations]
        graph.violations += [Violation(tick, (target, vector), f"output {breach} without stable token")
                             for breach in result.output_breaches]


def _add_states(graph: ReachGraph, layer: dict[int, VectorSet], tick: int, target: int,
                bits: int, parent: tuple[int, int]) -> int:
    """Add the states (tick, target, v) for the vectors v of ``bits`` not yet
    in the layer, with their parent (source key, source vector); return the
    bits added."""
    reached = layer.get(target)
    if reached is None:
        reached = layer[target] = VectorSet()
    added = bits & ~reached.bits
    if added:
        reached.bits |= added
        chunks = graph.parents.setdefault((tick, target), [])
        if chunks and chunks[-1][:2] == parent:
            chunks[-1] = (*parent, chunks[-1][2] | added)
        else:
            chunks.append((*parent, added))
    return added


def replay_witness(graph: ReachGraph, witness: list[dict]) -> list[tuple[int, list[str]]]:
    """Replay a witness path through the production run loop and return the
    firings it produces per tick. A sound witness reproduces its recorded
    firings event for event."""
    from .scenario import Scenario, run as run_scenario

    explorer = graph._explorer
    if explorer.smart is None:
        raise ValueError("witness replay needs a SMART-annotated net")
    script: list[tuple[int, str, bool]] = []
    key_id = explorer.intern(explorer.initial_key())
    for step in witness:
        script += [(step["tick"], target, value) for driver, value in sorted(step["signals"].items())
                   for target in dict(explorer.drivers).get(driver, [driver])]
        if explorer.deposit_driver:
            # the explorer's output attempt for each agent whose want place is
            # empty as the tick begins; the step's firings give the next key
            marking = graph.marking_of(key_id)
            script += [(step["tick"], agent.want_signal, True)
                       for agent in explorer.agents if not marking.get(agent.want_place, 0)]
            vector = sum(1 << i for i, (name, _) in enumerate(explorer.drivers) if step["signals"].get(name))
            key_id = next((explorer.intern(r.key) for r in explorer.evolve(key_id, vector)
                           if list(r.firings) == step["firings"]), key_id)
    horizon = max((step["tick"] for step in witness), default=0)
    scenario = Scenario(
        name="witness-replay",
        smart=explorer.smart,
        horizon=horizon,
        policy="earliest",
        script=script,
    )
    trace, _ = run_scenario(scenario)
    by_tick: dict[int, list[str]] = {}
    for event in trace.firings():
        by_tick.setdefault(event.time, []).append(event.name)
    return [(step["tick"], by_tick.get(step["tick"], [])) for step in witness]


# --- formulas ----------------------------------------------------------------

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
INCONCLUSIVE = "inconclusive"

FORMULA_KINDS = ("safety", "bounded-response", "reach", "never-while")


@dataclass(frozen=True)
class Formula:
    kind: str  # one of FORMULA_KINDS
    condition: GuardExpr
    place: str | None = None
    within: int | None = None
    forbidden: tuple[str, ...] = ()  # transition ids or role classes for safety
    from_places: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in FORMULA_KINDS:
            raise ValueError(f"unknown formula kind {self.kind!r}")
        if self.kind in ("bounded-response", "reach"):
            if self.place is None or type(self.within) is not int or self.within < 0:
                raise ValueError(f"{self.kind} needs a place and an integer within >= 0")
        if self.kind == "never-while" and self.place is None:
            raise ValueError("never-while needs a place")

    def label(self) -> str:
        return self.name or f"{self.kind}"

    @cached_property
    def anchor(self) -> GuardExpr:
        """never-while's anchor rule: some ``from_places`` place is marked,
        or none are listed, and ``place`` is not."""
        unmarked = Not(Marked(self.place))
        return And((Or(tuple(map(Marked, self.from_places))), unmarked)) if self.from_places else unmarked

    def anchors_at(self, marking: Marking) -> bool:
        """Whether the anchor holds on a marking of every place."""
        return self.anchor.holds(EvalContext(None, marking, 0), 0)


@dataclass
class FormulaVerdict:
    formula: Formula
    status: str
    witness: list | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (HOLDS, VACUOUS)


# a formula condition's lowest holding vector of a bitset, see _condition_test
_Lowest = Callable[[int, int], int | None]


def _condition_test(graph: ReachGraph, condition: GuardExpr) -> _Lowest:
    """``lowest(key id, bits)``: the lowest vector of the bitset in whose
    state the condition holds, or None; ``bits`` of one vector asks whether
    it holds there.

    The condition reads driver bits, base values, and what the key fixes
    (the marking and the derived timeouts), so its truth is one bitset of
    vectors per key id, from ``truth_bits``. The bitsets live on the graph:
    every check of an equal condition on it reuses them."""
    explorer = graph._explorer
    by_key = graph.condition_memo.setdefault(condition, {})

    def lowest(key_id: int, bits: int) -> int | None:
        truth = by_key.get(key_id)
        if truth is None:
            key = explorer.key_table[key_id]
            marking = dict(key.marking)
            values = {**explorer.base_values, **explorer.clock_of(key, marking).timeouts(0)}
            ctx = EvalContext(ConstantSignals(values), marking, 0)
            truth = by_key[key_id] = truth_bits(condition, explorer.atom_bits(ctx), explorer.every_vector)
        bits &= truth
        return _lowest(bits) if bits else None

    return lowest


def resolve_forbidden(entries: Iterable[str], net: Net, smart: SmartNet | None = None) -> set[str]:
    """Transition ids a safety formula forbids. Each entry is a transition
    id, ``"output"`` (every output transition of a SMART net), or a role
    class."""
    ids: set[str] = set()
    for entry in entries:
        if entry in net.transitions:
            ids.add(entry)
        elif smart is not None and entry == "output":
            ids.update(smart.output_transitions)
        else:
            ids.update(tid for tid, rec in net.transitions.items() if rec.role == entry)
    return ids


def check_formula(graph: ReachGraph, formula: Formula) -> FormulaVerdict:
    # explorer states carry no signal history, so a held_for term would
    # read one tick's assignment as a whole window
    if held_terms(formula.condition):
        raise ValueError("held_for in formula conditions is not supported")
    lowest = _condition_test(graph, formula.condition)
    verdict = (_check_safety if formula.kind == "safety" else _check_deadline)(graph, formula, lowest)
    if graph.incomplete and verdict.status in (HOLDS, VACUOUS):
        # a capped graph lacks the later layers' anchors and firings: only a violation is decided
        return FormulaVerdict(formula, INCONCLUSIVE, detail=f"holds through tick {len(graph.layers) - 1}")
    return verdict


def _holding(lowest: _Lowest, key_id: int, bits: int, every: bool) -> Iterator[int]:
    """The vectors of ``bits`` in whose state the condition holds,
    ascending; only the lowest one unless ``every``."""
    while (vector := lowest(key_id, bits)) is not None:
        yield vector
        if not every:
            return
        bits &= -2 << vector  # the vectors above this one


def _persistent_steps(graph: ReachGraph, lowest: _Lowest, key_id: int, vector: int):
    """Yield (target, next vector, result) for each step of a state into the
    next tick after which the condition (see ``_condition_test``) still
    holds, sorted by (vector, result index). Without a flip budget the
    vector steers no later step, so each (class, result) yields only
    its lowest such vector."""
    explorer = graph._explorer
    budgeted = graph.config.flip_budget is not None
    steps = [(nxt, index, target, result)
             for met, results, targets in explorer.step_table(key_id, explorer.next_vectors(vector))
             for index, (target, result) in enumerate(zip(targets, results))
             for nxt in _holding(lowest, target, met, budgeted)]
    for nxt, _, target, result in sorted(steps, key=lambda step: step[:2]):
        yield target, nxt, result


def _anchors(graph: ReachGraph, lowest: _Lowest, keep) -> list[tuple[int, int, int, int]]:
    """(key id, vector, slack, tick) of each state where the condition
    holds and ``keep`` accepts the marking, one per configuration, sorted;
    ``lowest`` finds the condition's lowest holding vector of a bitset.

    The step reads no tick (see ``_Explorer.step_table``), so a
    configuration's future is the same at each of its occurrences, and it
    is judged at the one with the most remaining horizon; later occurrences
    share that verdict instead of reporting a spurious inconclusive. A
    configuration is a key, and under a flip budget also the vector, since
    the next vectors depend on it.

    Layers are visited in ascending tick, so the first state found in a
    configuration has its most slack, and the configuration is settled:
    its later states are skipped, without a budget a whole key at once.
    Within a key the anchor is the lowest vector."""
    budgeted = graph.config.flip_budget is not None
    anchors: dict[tuple[int, int | None], tuple[int, int, int]] = {}
    for tick, layer in enumerate(graph.layers):
        for key_id, vectors in layer.items():
            if (key_id, None) in anchors or not keep(graph.marking_of(key_id)):
                continue
            for vector in _holding(lowest, key_id, vectors.bits, budgeted):
                anchors.setdefault((key_id, vector if budgeted else None), (graph.horizon - tick, tick, vector))
    return [(key_id, vector, slack, tick) for (key_id, _), (slack, tick, vector) in sorted(anchors.items())]


def _check_safety(graph: ReachGraph, formula: Formula, lowest: _Lowest) -> FormulaVerdict:
    """No firing of a forbidden transition at an instant where the
    condition holds. The condition is read against the signal assignment
    governing the instant of the firing and the marking at its entry."""
    explorer = graph._explorer
    forbidden = resolve_forbidden(formula.forbidden, explorer.net, explorer.smart)
    init = {explorer.intern(explorer.initial_key()): VectorSet(1 << explorer.initial_vector())}
    # the edges into tick t leave the initial state (t = 0) or layer t - 1
    for tick, layer in enumerate([init] + graph.layers[:-1]):
        for key_id, vectors in layer.items():
            for _, want in explorer.wanted(vectors):
                # the first (vector, result index) of a forbidden firing, with
                # the lowest wanted vector of its class under the condition
                first = min(((vector, index, target, sorted(hit))
                             for met, results, targets in explorer.step_table(key_id, want)
                             for index, (target, result) in enumerate(zip(targets, results))
                             if (hit := forbidden.intersection(result.firings))
                             and (vector := lowest(key_id, met)) is not None), default=None)
                if first is not None:
                    vector, _, target, hit = first
                    witness = graph.witness_path(tick, target, vector)
                    return FormulaVerdict(formula, VIOLATED, witness, f"{hit[0]} fired under the condition")

    if all(lowest(k, vectors.bits) is None for layer in graph.layers for k, vectors in layer.items()):
        return FormulaVerdict(formula, VACUOUS, detail="condition never held")
    return FormulaVerdict(formula, HOLDS)


class _Search:
    """The memoized depth-first search of ``_check_deadline`` over the
    condition-persistent steps. Methods, not closures that call themselves:
    that is a reference cycle, which leaves each check's memo to the GC."""

    def __init__(self, graph: ReachGraph, formula: Formula, lowest: _Lowest):
        self.graph, self.formula, self.lowest = graph, formula, lowest
        self.budgeted = graph.config.flip_budget is not None
        self.touch = formula.kind == "never-while"
        # (key id, vector under a flip budget, steps) -> the first persistent
        # step (target, next vector, result) of the run found from there, or None
        self.memo: dict[tuple, tuple[int, int, EvolveResult] | None] = {}

    def run(self, key_id: int, vector: int, steps: int) -> bool:
        """True if some condition-persistent run of ``steps`` ticks from this
        state keeps the place out of every step's ``touched``, or, for
        never-while, touches it at some step, where the run ends. A step's
        ``touched`` holds every place marked at its end, so the states of a
        run need no marking test."""
        if steps == 0:
            return not self.touch
        memo_key = (key_id, vector if self.budgeted else None, steps)
        if memo_key not in self.memo:
            place = self.formula.place
            self.memo[memo_key] = next(
                (step for step in _persistent_steps(self.graph, self.lowest, key_id, vector)
                 if (self.touch if place in step[2].touched else self.run(step[0], step[1], steps - 1))), None)
        return self.memo[memo_key] is not None

    def suffix(self, key_id: int, vector: int, steps: int, tick: int) -> list[dict]:
        """The run ``run`` found from this state, for counterexample replay:
        the stored first step at each remaining length, up to the step that
        touches the place."""
        path: list[dict] = []
        while steps and (step := self.memo.get((key_id, vector if self.budgeted else None, steps))):
            key_id, vector, result = step
            steps, tick = steps - 1, tick + 1
            path.append({"tick": tick, "signals": self.graph.vector_to_named(vector), "firings": list(result.firings)})
            if self.formula.place in result.touched:
                break
        return path


def _check_deadline(graph: ReachGraph, formula: Formula, lowest: _Lowest) -> FormulaVerdict:
    """Bounded-response and reach: an anchor whose place is not marked is
    violated by a persistent run of ``within`` ticks that never touches it,
    and left open by one that lasts to the horizon first. Never-while: an
    anchor (``Formula.anchors_at``) is violated by a persistent run that
    touches the place before the horizon, its deadline."""
    search, place = _Search(graph, formula, lowest), formula.place
    anchors = _anchors(graph, lowest, formula.anchors_at if search.touch else lambda marking: True)
    if not anchors:
        return FormulaVerdict(formula, VACUOUS, detail="no anchored states" if search.touch else "premise never held")
    worst = HOLDS
    for key_id, vector, slack, tick in anchors:
        within = slack if search.touch else formula.within
        if graph.marking_of(key_id).get(place, 0) >= 1 or not search.run(key_id, vector, min(within, slack)):
            continue
        if within > slack:
            worst = INCONCLUSIVE
            continue
        witness = graph.witness_path(tick, key_id, vector) + search.suffix(key_id, vector, within, tick)
        detail = (f"{place} reached under a persistent condition from tick {tick}" if search.touch
                  else f"{place} not reached within {within} ticks of a persistent premise at tick {tick}")
        return FormulaVerdict(formula, VIOLATED, witness, detail)
    if worst == INCONCLUSIVE:
        return FormulaVerdict(formula, INCONCLUSIVE, detail="horizon ends inside an open obligation")
    return FormulaVerdict(formula, HOLDS)
