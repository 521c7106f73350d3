"""Timed guarded Petri net structure.

A net is places, transitions, weighted arcs, an initial marking, and a
set of places eligible for hierarchical refinement. Each transition
carries a guard, a firing interval [alpha, beta] in integer ticks, a
timing mode (weak transitions may fire anywhere in the interval; strong
transitions must fire by beta while continuously enabled), and a role
annotation used by structural analysis and event tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, Mapping

from .guards import GuardExpr, TRUE, check_no_nested_held, place_names, signal_names

INF = math.inf

Marking = dict[str, int]

WEAK = "weak"
STRONG = "strong"

ROLE_OUTPUT = "output"
ROLE_MODE_SWITCH = "mode-switch"
ROLE_INTERNAL = "internal"


class PriorityClass(IntEnum):
    """Tie-break order when several transitions are due at one instant.

    Lower value fires first: safety-biased ordering puts governance and
    escalation ahead of returns, internals, and outputs.
    """

    GOVERNANCE = 0
    ESCALATION = 1
    RECOVERY_RETURN = 2
    INTERNAL = 3
    OUTPUT = 4


_DEFAULT_PRIORITY = {
    ROLE_OUTPUT: PriorityClass.OUTPUT,
    ROLE_MODE_SWITCH: PriorityClass.ESCALATION,
    ROLE_INTERNAL: PriorityClass.INTERNAL,
}


class NetStructureError(ValueError):
    """Net structure violates a hard invariant."""


class UnknownTransition(KeyError):
    pass


@dataclass(frozen=True)
class TransitionRecord:
    id: str
    guard: GuardExpr = TRUE
    alpha: int = 0
    beta: float = INF  # int or math.inf
    timing: str = WEAK
    role: str = ROLE_INTERNAL
    priority: PriorityClass | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.alpha > self.beta:
            raise NetStructureError(f"{self.id}: interval requires 0 <= alpha <= beta")
        if self.timing not in (WEAK, STRONG):
            raise NetStructureError(f"{self.id}: timing must be weak or strong")
        if self.priority is None:
            object.__setattr__(
                self, "priority", _DEFAULT_PRIORITY.get(self.role, PriorityClass.INTERNAL)
            )

    @property
    def interval(self) -> tuple[int, float]:
        return (self.alpha, self.beta)

    def with_guard(self, guard: GuardExpr) -> "TransitionRecord":
        return replace(self, guard=guard)


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    weight: int = 1


@dataclass
class Net:
    """Static net structure. Treated as immutable once built."""

    places: list[str]
    transitions: dict[str, TransitionRecord]
    arcs: list[Arc]
    initial_marking: Marking = field(default_factory=dict)
    refinable: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.places = sorted(dict.fromkeys(self.places))
        self.initial_marking = {p: self.initial_marking.get(p, 0) for p in self.places}
        # transition id -> input place -> consumed weight, read by the kernel's enabling test
        self.pre_sets: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        self._post: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        place_set = set(self.places)
        for arc in self.arcs:
            if arc.source in place_set and arc.target in self.transitions:
                self.pre_sets[arc.target][arc.source] = self.pre_sets[arc.target].get(arc.source, 0) + arc.weight
            elif arc.source in self.transitions and arc.target in place_set:
                self._post[arc.source][arc.target] = self._post[arc.source].get(arc.target, 0) + arc.weight
            # dangling arcs are tolerated here and reported by validate_net
        # the transitions consuming from each place, and those with no input
        # place, ascending: the kernel tests only pre-sets a marking may cover
        self.consumers: dict[str, list[str]] = {p: [] for p in self.places}
        self.inputless: list[str] = []
        for tid in sorted(self.transitions):
            for place in self.pre_sets[tid]:
                self.consumers[place].append(tid)
            if not self.pre_sets[tid]:
                self.inputless.append(tid)
        # the kernel's covered-transition memo (``kernel._covered``): each
        # key clips token counts at the largest pre-set weight
        self.pre_weight_cap = max((w for pre in self.pre_sets.values() for w in pre.values()), default=1)
        self.covered_memo: dict[tuple, tuple[str, ...]] = {}

    def pre(self, tid: str) -> dict[str, int]:
        """Input places of a transition with consumed weights."""
        if tid not in self.transitions:
            raise UnknownTransition(tid)
        return self.pre_sets[tid]

    def post(self, tid: str) -> dict[str, int]:
        """Output places of a transition with produced weights."""
        if tid not in self.transitions:
            raise UnknownTransition(tid)
        return self._post[tid]

    def transition_ids(self) -> list[str]:
        return sorted(self.transitions)

    def marking0(self) -> Marking:
        return dict(self.initial_marking)

    def with_transitions(self, records: Iterable[TransitionRecord]) -> "Net":
        updated = dict(self.transitions)
        for record in records:
            updated[record.id] = record
        return Net(list(self.places), updated, list(self.arcs), dict(self.initial_marking), set(self.refinable))


def drop_transition(net: Net, tid: str) -> Net:
    """Copy of the net without the named transition (mutation fixture helper)."""
    if tid not in net.transitions:
        raise UnknownTransition(tid)
    transitions = {t: r for t, r in net.transitions.items() if t != tid}
    arcs = [a for a in net.arcs if a.source != tid and a.target != tid]
    return Net(list(net.places), transitions, arcs, dict(net.initial_marking), set(net.refinable))


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    infos: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"errors: {len(self.errors)}, warnings: {len(self.warnings)}, infos: {len(self.infos)}"]
        lines += [f"  error: {e}" for e in self.errors]
        lines += [f"  warning: {w}" for w in self.warnings]
        lines += [f"  info: {i}" for i in self.infos]
        return "\n".join(lines)


def validate_net(net: Net, declared_signals: Iterable[str] | None = None) -> ValidationReport:
    """Structural validation: dangling arcs, bad weights, timing, markings.

    Transitions with no input arcs are legal but flagged informationally;
    guarded transitions with alpha > 0 get a warning since their guard may
    expire before the earliest firing time.
    """
    report = ValidationReport()
    place_set = set(net.places)
    nodes = place_set | set(net.transitions)

    for arc in net.arcs:
        if arc.source not in nodes or arc.target not in nodes:
            report.errors.append(f"dangling arc {arc.source} -> {arc.target}")
            continue
        src_is_place = arc.source in place_set
        dst_is_place = arc.target in place_set
        if src_is_place == dst_is_place:
            report.errors.append(f"arc {arc.source} -> {arc.target} must connect a place and a transition")
        if arc.weight < 1:
            report.errors.append(f"arc {arc.source} -> {arc.target} has weight {arc.weight} < 1")

    for place, count in net.initial_marking.items():
        if count < 0 or count != int(count):
            report.errors.append(f"initial marking of {place} is {count}, not a non-negative integer")

    known_places = set(net.places)
    signals = set(declared_signals) if declared_signals is not None else None
    for tid in net.transition_ids():
        record = net.transitions[tid]
        if record.timing == STRONG and record.beta == INF:
            report.errors.append(f"{tid}: strong timing requires finite latest time")
        if not net.pre(tid):
            report.infos.append(f"{tid}: no input arcs (always structurally enabled)")
        if record.alpha > 0 and record.guard != TRUE:
            report.warnings.append(
                f"{tid}: guard may expire before earliest firing time alpha={record.alpha}"
            )
        try:
            check_no_nested_held(record.guard)
        except Exception as exc:
            report.errors.append(f"{tid}: {exc}")
        for place in sorted(place_names(record.guard)):
            if place not in known_places:
                report.errors.append(f"{tid}: guard references unknown place {place!r}")
        if signals is not None:
            for name in sorted(signal_names(record.guard)):
                if name not in signals:
                    report.errors.append(f"{tid}: guard references undeclared signal {name!r}")

    for place in net.refinable:
        if place not in place_set:
            report.errors.append(f"refinable entry {place!r} is not a place")

    return report


def apply_firing(marking: Marking, pre: Mapping[str, int], post: Mapping[str, int]) -> Marking:
    """New marking after consuming ``pre`` and producing ``post``."""
    result = dict(marking)
    for place, weight in pre.items():
        remaining = result.get(place, 0) - weight
        if remaining < 0:
            raise NetStructureError(f"firing would drive {place} negative")
        result[place] = remaining
    for place, weight in post.items():
        result[place] = result.get(place, 0) + weight
    return result
