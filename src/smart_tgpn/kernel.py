"""Execution kernel: enabling, firing, timers, and deadline enforcement.

Time is an integer tick count. Guards are re-evaluated only at event
boundaries (signal changes, firings, and held-for window completions);
signals are piecewise constant, so enabledness is constant between
boundaries and "continuously enabled" is decided exactly. A
``held_for(e, d)`` window completes d ticks after e's current run started
(``guards.next_held_flip``), found from the window's change points alone.

Each transition has a clock that runs while the transition is enabled
(structurally and by guard) and resets whenever it becomes enabled after
being disabled, or when it fires. A strong transition that stays enabled
must fire no later than its latest time beta; a change that disables it
at exactly the deadline instant takes effect first and cancels the
obligation.

One transition fires per event. When several are due at one instant the
tie is broken by priority class (governance > escalation > recovery
return > internal > output), then lexicographic id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from .guards import EvalContext, next_held_flip
from .net import INF, Marking, Net, STRONG, UnknownTransition, apply_firing
from .signals import SignalState

DEFAULT_ZENO_LIMIT = 10_000
RANDOM_SPAN = 4  # width of the random policy's draw when beta is infinite

EARLIEST = "earliest"
LATEST = "latest"
RANDOM = "random"


class KernelError(RuntimeError):
    pass


class NotEnabled(KernelError):
    """Attempt to fire a transition that is not enabled (or outside its interval)."""


class ZenoViolation(KernelError):
    """More than the allowed number of events occurred at a single timestamp."""


class DeadlineViolation(KernelError):
    """A strong transition stayed enabled past beta: internal kernel bug."""


@dataclass(frozen=True)
class FiringEvent:
    time: int
    transition: str
    pre_marking: Marking
    post_marking: Marking


@dataclass(frozen=True)
class FiringPolicy:
    """How weak (and unforced strong) transitions choose a firing time
    within [alpha, beta]. ``random`` draws deterministically per
    (seed, transition, enabling time); an infinite beta is truncated to
    alpha + RANDOM_SPAN for the draw."""

    kind: str = EARLIEST
    seed: int = 0
    zeno_limit: int = DEFAULT_ZENO_LIMIT

    def chosen_offset(self, tid: str, record, enabled_since: int) -> int | None:
        if self.kind == EARLIEST:
            return record.alpha
        if self.kind == LATEST:
            if record.beta == INF:
                return None
            return int(record.beta)
        if self.kind == RANDOM:
            hi = int(record.beta) if record.beta != INF else record.alpha + RANDOM_SPAN
            rng = random.Random(f"{self.seed}:{tid}:{enabled_since}")
            return rng.randint(record.alpha, hi)
        raise ValueError(f"unknown firing policy {self.kind!r}")


@dataclass
class KernelState:
    """Marking, per-transition clocks, and the global tick counter.

    ``timers`` maps enabled transition ids to the tick at which they were
    last (re-)enabled. ``marking_history`` records post-firing markings so
    held-for guards over marking atoms can look back in time. A marking is
    never changed in place: each step builds a new one, so the history, a
    firing event and a clone share the dicts.
    """

    marking: Marking
    timers: dict[str, int] = field(default_factory=dict)
    now: int = 0
    marking_history: list[tuple[int, Marking]] = field(default_factory=list)
    events_at_now: int = 0

    @classmethod
    def initial(cls, net: Net) -> "KernelState":
        marking = net.marking0()
        return cls(marking=marking, marking_history=[(0, marking)])

    def clone(self) -> "KernelState":
        return KernelState(
            marking=self.marking,
            timers=dict(self.timers),
            now=self.now,
            marking_history=list(self.marking_history),
            events_at_now=self.events_at_now,
        )

    def eval_context(self, sigma: SignalState) -> EvalContext:
        return EvalContext(sigma, self.marking, self.now, self.marking_history)


def _covers(marking: Marking, pre: dict[str, int]) -> bool:
    for place, weight in pre.items():
        if marking.get(place, 0) < weight:
            return False
    return True


def _covered(net: Net, marking: Marking) -> tuple[str, ...]:
    """Ids, ascending, of the transitions whose pre-set ``marking`` covers:
    those without input places and those consuming from a marked place.

    Memoized on the net. Pre-sets are fixed at construction, and no arc
    weighs more than ``net.pre_weight_cap``, so coverage depends only on
    the counts clipped there: with unit weights, on the marked places. The
    memo key does not grow with the token counts."""
    cap = net.pre_weight_cap
    if cap == 1:
        memo_key = tuple([place for place, count in marking.items() if count > 0])
    else:
        memo_key = tuple([(place, min(count, cap)) for place, count in marking.items() if count > 0])
    covered = net.covered_memo.get(memo_key)
    if covered is None:
        candidates = set(net.inputless)
        for place, count in marking.items():
            if count > 0:
                candidates.update(net.consumers.get(place, ()))
        covered = net.covered_memo[memo_key] = tuple(
            tid for tid in sorted(candidates) if _covers(marking, net.pre_sets[tid])
        )
    return covered


def struct_enabled(net: Net, marking: Marking, tid: str) -> bool:
    """True iff every input place holds at least the arc weight."""
    return _covers(marking, net.pre(tid))


def enabled(net: Net, state: KernelState, sigma: SignalState, tid: str) -> bool:
    """The enabling test: the marking covers the pre-set, then the compiled
    guard holds now. The record is read from ``net.transitions`` on every
    call, so a replaced record takes effect at once."""
    if tid not in net.transitions:
        raise UnknownTransition(tid)
    return _covers(state.marking, net.pre_sets[tid]) and net.transitions[tid].guard.holds(
        state.eval_context(sigma), state.now)


def refresh_timers(net: Net, state: KernelState, sigma: SignalState) -> None:
    """Reconcile clocks with current enabledness: start clocks for newly
    enabled transitions, drop clocks of disabled ones, keep the rest. Only
    the guards of covered transitions are evaluated, in ascending id."""
    ctx = state.eval_context(sigma)
    timers = state.timers
    covered = _covered(net, state.marking)
    for tid in covered:
        if net.transitions[tid].guard.holds(ctx, ctx.now):
            if tid not in timers:
                timers[tid] = state.now
        elif tid in timers:
            del timers[tid]
    for tid in timers.keys() - covered:
        del timers[tid]
    _check_deadlines(net, state)


def _check_deadlines(net: Net, state: KernelState) -> None:
    """Raise DeadlineViolation at the first strong clock past its beta."""
    for tid, since in state.timers.items():
        record = net.transitions[tid]
        if record.timing == STRONG and state.now - since > record.beta:
            raise DeadlineViolation(f"{tid} enabled since {since}, now {state.now}, beta {record.beta}")


def fire(net: Net, state: KernelState, tid: str, sigma: SignalState) -> tuple[KernelState, FiringEvent]:
    """Fire one transition now. Requires enabledness and alpha <= clock;
    a strong transition past beta raises DeadlineViolation. The other clocks
    are left to the next step, which refreshes them before it reads them."""
    if not enabled(net, state, sigma, tid):
        raise NotEnabled(f"{tid} is not enabled at t={state.now}")
    if tid not in state.timers:
        refresh_timers(net, state, sigma)
    record = net.transitions[tid]
    elapsed = state.now - state.timers[tid]
    if elapsed < record.alpha:
        raise NotEnabled(f"{tid} fired at clock {elapsed} before alpha={record.alpha}")
    if elapsed > record.beta:
        if record.timing == STRONG:
            raise DeadlineViolation(f"{tid} fired at clock {elapsed} after beta={record.beta}")
        raise NotEnabled(f"{tid} fired at clock {elapsed} outside [{record.alpha}, {record.beta}]")

    pre_marking = state.marking
    state.marking = apply_firing(pre_marking, net.pre(tid), net.post(tid))
    state.marking_history.append((state.now, state.marking))
    event = FiringEvent(state.now, tid, pre_marking, state.marking)

    state.events_at_now += 1
    # the fired transition's own clock restarts if it is still enabled
    state.timers.pop(tid, None)
    return state, event


def _due_transition(net: Net, state: KernelState, policy: FiringPolicy) -> tuple[str | None, list[str], bool]:
    """One scan of the refreshed clocks at the current instant: the
    highest-priority transition that may (or must) fire now under the
    policy, the transitions inside their window [alpha, beta], in clock
    order, and whether one of those is forced (strong, at its beta)."""
    best: tuple[int, str] | None = None
    window: list[str] = []
    forced_any = False
    for tid, since in state.timers.items():
        record = net.transitions[tid]
        elapsed = state.now - since
        if elapsed < record.alpha or elapsed > record.beta:
            continue  # not yet, or a weak window that has expired; strong ones fail refresh first
        window.append(tid)
        if record.timing == STRONG and elapsed >= record.beta:
            forced_any = True
        elif (chosen := policy.chosen_offset(tid, record, since)) is None or elapsed < chosen:
            continue
        key = (int(record.priority), tid)
        if best is None or key < best:
            best = key
    return (best[1] if best else None), window, forced_any


def _fire_now(net: Net, state: KernelState, tid: str, sigma: SignalState, policy: FiringPolicy) -> FiringEvent:
    """Fire ``tid`` within the current instant and check the Zeno limit."""
    _, event = fire(net, state, tid, sigma)
    if state.events_at_now > policy.zeno_limit:
        raise ZenoViolation(f"Zeno net: {state.events_at_now} events at t={state.now}, limit {policy.zeno_limit}")
    return event


def _fire_due(net: Net, state: KernelState, sigma: SignalState, policy: FiringPolicy) -> FiringEvent | None:
    """One step within the current instant: reconcile the clocks, fire the
    highest-priority transition due now under the policy, if any, and
    check the Zeno limit. Returns the firing, None if nothing was due."""
    refresh_timers(net, state, sigma)
    due = _due_transition(net, state, policy)[0]
    return None if due is None else _fire_now(net, state, due, sigma, policy)


def _next_candidate(net: Net, state: KernelState, sigma: SignalState, policy: FiringPolicy) -> int | None:
    """Earliest future time at which anything can happen: a scripted signal
    change, a chosen or forced firing, or a held-for window completing."""
    candidates: list[int] = []
    change = sigma.next_change_after(state.now)
    if change is not None:
        candidates.append(change)
    for tid, since in state.timers.items():
        record = net.transitions[tid]
        if record.timing == STRONG:
            candidates.append(since + int(record.beta))
        chosen = policy.chosen_offset(tid, record, since)
        if chosen is not None:
            candidates.append(max(state.now, since + chosen))
    ctx = state.eval_context(sigma)
    for tid in _covered(net, state.marking):
        flip = next_held_flip(net.transitions[tid].guard, ctx)
        if flip is not None:
            candidates.append(flip)
    future = [c for c in candidates if c > state.now]
    return min(future) if future else None


def advance_to_next_event(
    net: Net,
    state: KernelState,
    sigma: SignalState,
    policy: FiringPolicy,
    limit: int | None = None,
) -> tuple[KernelState, list[FiringEvent]]:
    """Advance to the next event not later than ``limit`` and process it.

    Fires at most one transition. If a transition is due at the current
    instant it fires without time passing. Otherwise time advances to the
    earliest candidate (signal change, chosen firing time, forced strong
    deadline, or guard flip); if that exceeds ``limit``, now is set to
    ``limit`` and nothing fires. Returns the (mutated) state and the
    firing events produced (empty for pure wake-ups).
    """
    event = _fire_due(net, state, sigma, policy)
    if event is not None:
        return state, [event]

    target = _next_candidate(net, state, sigma, policy)
    if target is not None and (limit is None or target < limit):
        state.now, state.events_at_now = target, 0
        event = _fire_due(net, state, sigma, policy)
        return state, [] if event is None else [event]
    if limit is not None and limit > state.now:
        state.now, state.events_at_now = limit, 0
        refresh_timers(net, state, sigma)
    return state, []
