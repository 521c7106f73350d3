"""Timed execution traces and their on-disk form.

A trace records one run over a known horizon: the transition firings and
output-attempt deposits, each with the marking it leaves, as its events,
and every signal change (scripted, derived, or agreement update) only in
its signal histories. Stored traces are JSON lines: a header record, then
the signal changes and events in time order, signal changes first at each
instant. Field order is fixed so identical runs produce identical files.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .builder import SmartNet
from .guards import GuardExpr, eval_guard, held_terms, place_names, signal_names
from .net import Marking
from .netio import net_to_document
from .signals import BOOL, REAL, SignalState

FIRE = "fire"
SIGNAL = "signal"
DEPOSIT = "deposit"


@dataclass
class TraceEvent:
    """A firing or a deposit, with the marking it leaves."""

    time: int
    kind: str
    name: str
    post_marking: Marking

    def to_record(self) -> dict:
        return {"time": self.time, "kind": self.kind, "transition" if self.kind == FIRE else "place": self.name,
                "marking": marking_digest(self.post_marking)}


def _between(times: list[int], items: Sequence, start: int, end: int) -> list:
    """The items whose (ascending) times lie in start..end."""
    return list(items[bisect_left(times, start):bisect_right(times, end)])


def marking_digest(marking: Marking) -> str:
    return ",".join(f"{p}:{c}" for p, c in sorted(marking.items()) if c)


def parse_marking_digest(digest: str) -> Marking:
    marking: Marking = {}
    if digest:
        for part in digest.split(","):
            place, count = part.rsplit(":", 1)
            if not count.isdecimal() or int(count) < 1:
                raise ValueError(f"marking count {count!r} of {place!r} is not a positive integer")
            marking[place] = int(count)
    return marking


@dataclass
class Trace:
    """One run's firings and deposits in time order, and its signal histories, fixed once built.

    Every derived view (markings, mode timelines, a predicate's change
    points and intervals, firings by name set) is computed once, on first
    use, as a time-sorted index, so queries answer by bisection or
    lookup. Lists a view returns are copies the caller may change.
    """

    events: Sequence[TraceEvent]
    sigma: SignalState
    initial_marking: Marking
    horizon: int
    quiesced_at: int | None = None
    meta: dict = field(default_factory=dict)
    smart: SmartNet | None = None

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        self._times = [e.time for e in self.events]
        if any(a > b for a, b in zip(self._times, self._times[1:])):
            raise ValueError("trace events are not in time order")
        self._views: dict = {}

    # -- derived views -----------------------------------------------------

    def _view(self, key, build):
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = build()
        return view

    def _window(self, start: int, end: int) -> range:
        """Indices of the events at instants start..end."""
        return range(bisect_left(self._times, start), bisect_right(self._times, end))

    def _history(self) -> list[tuple[int, Marking]]:
        """The marking history held_for reads: (0, initial marking), then
        (time, marking it leaves) for each event, so entry i holds the
        marking before event i. Once the trace is bound to its net, a place
        a stored marking digest omits reads as 0 tokens."""
        def build():
            empty = dict.fromkeys(self.smart.net.places, 0) if self.smart is not None else {}
            full = lambda marking: marking if empty.keys() <= marking.keys() else {**empty, **marking}
            return [(0, full(self.initial_marking)), *((e.time, full(e.post_marking)) for e in self.events)]
        return self._view("history" if self.smart is None else "bound history", build)

    def _modes(self, agent) -> tuple[list[int], list[tuple[int, str | None]]]:
        """The times of the agent's mode timeline, and the timeline."""
        def build():
            timeline = [(0, agent.mode_in(self.initial_marking))]
            for e in self.events:
                mode = agent.mode_in(e.post_marking)
                if mode != timeline[-1][1]:
                    timeline.append((e.time, mode))
            return [t for t, _ in timeline], timeline
        # keyed by what mode_in reads, so rebinding ``smart`` cannot go stale
        return self._view(("modes", tuple(agent.mode_places.items())), build)

    def _changes(self, expr: GuardExpr) -> list[int]:
        """The sorted instants at which the predicate can change: 0, the
        change points of its signals and, if it reads a place, the instants
        the marking is set. A held_for(e, d) term can turn true d ticks
        after any of them with nothing changing, so those instants are
        listed too. Between two listed instants the predicate is constant."""
        def build():
            points = {0}
            for name in signal_names(expr):
                times = self.sigma.times.get(name, ())
                points.update(times[:bisect_right(times, self.horizon)])
            if place_names(expr):
                points.update(self._times)
            durations = {term.duration for term in held_terms(expr)}
            points.update([p + d for p in points for d in durations if p + d <= self.horizon])
            return sorted(points)
        # keyed by identity, as a monitor asks once per residence and hashing
        # the tree costs more; the entry holds the expression, so its id
        # cannot pass to another object
        return self._view(id(expr), lambda: (expr, build()))[1]

    def _intervals(self, expr: GuardExpr) -> tuple[list[tuple[int, int, bool]], list[int]]:
        """The predicate's maximal intervals and their start instants,
        from its value at each of its change points."""
        def build():
            intervals, start = [], None
            for point in self._changes(expr):
                value = self.eval_at(expr, point)
                if value and start is None:
                    start = point
                elif not value and start is not None:
                    intervals.append((start, point, False))
                    start = None
            if start is not None:
                intervals.append((start, self.horizon, True))
            return intervals, [s for s, _, _ in intervals]
        return self._view(("intervals", expr), build)

    def firings(self, names: Iterable[str] | None = None) -> list[TraceEvent]:
        wanted = frozenset(names) if names is not None else None
        return list(self._view(("firings", wanted), lambda: [
            e for e in self.events
            if e.kind == FIRE and (wanted is None or e.name in wanted)
        ]))

    def events_between(self, start: int, end: int) -> list[TraceEvent]:
        """Events at instants start..end, both included, in trace order."""
        return _between(self._times, self.events, start, end)

    def marking_before(self, event: TraceEvent) -> Marking:
        """Marking immediately before an event: the one the previous event
        left, or the initial marking."""
        for i in self._window(event.time, event.time):
            if self.events[i] is event:
                return self._history()[i][1]
        raise ValueError("event does not belong to this trace")

    def marking_at(self, time: int) -> Marking:
        """Marking at the end of the given instant."""
        return self._history()[bisect_right(self._times, time)][1]

    def mode_timeline(self, agent) -> list[tuple[int, str | None]]:
        """Per-agent sequence of (time, mode key) changes, end-of-instant
        semantics; starts with the initial mode at time 0."""
        return list(self._modes(agent)[1])

    def mode_timeline_between(self, agent, start: int, end: int) -> list[tuple[int, str | None]]:
        """The mode timeline's entries at instants start..end."""
        return _between(*self._modes(agent), start, end)

    def mode_at(self, agent, time: int) -> str | None:
        times, timeline = self._modes(agent)
        index = bisect_right(times, time)
        return timeline[index - 1][1] if index else None

    def mode_before(self, agent, time: int) -> str | None:
        """Mode in force when the given instant began (the end-of-instant
        mode of the previous tick; the initial mode for time 0)."""
        if time <= 0:
            return self._modes(agent)[1][0][1]
        return self.mode_at(agent, time - 1)

    def mode_residences(self, agent, key: str) -> list[tuple[int, int | None, str | None]]:
        """Maximal residences in one mode place: (entry, exit, exit
        transition id); exit None when the trace ends inside the mode."""
        timeline = self._modes(agent)[1]
        history = self._history()
        place = agent.mode_places[key]
        residences = []
        for index, (start, mode) in enumerate(timeline):
            if mode != key:
                continue
            if index + 1 == len(timeline):
                residences.append((start, None, None))
                continue
            end = timeline[index + 1][0]
            exit_tid = next((
                self.events[i].name for i in self._window(end, end)
                if self.events[i].kind == FIRE
                and history[i][1].get(place, 0) >= 1
                and self.events[i].post_marking.get(place, 0) == 0
            ), None)
            residences.append((start, end, exit_tid))
        return residences

    def eval_at(self, expr: GuardExpr, time: int, marking: Marking | None = None) -> bool:
        """The predicate at the instant, on ``marking`` or the instant's end marking."""
        marking = self.marking_at(time) if marking is None else marking
        return eval_guard(expr, self.sigma, marking, time, self._history())

    def changes(self, expr: GuardExpr, start: int, end: int) -> list[int]:
        """``start``, then the predicate's change points in (start, end]:
        at every tick of start..end it holds as at the last listed instant
        at or before the tick; none when start > end."""
        if start > end:
            return []
        points = self._changes(expr)
        return [start, *points[bisect_right(points, start):bisect_right(points, end)]]

    def predicate_intervals(self, expr: GuardExpr) -> list[tuple[int, int, bool]]:
        """Maximal intervals [start, end) where the predicate holds;
        the final flag marks truncation by the horizon."""
        return list(self._intervals(expr)[0])

    def interval_at(self, expr: GuardExpr, time: int) -> tuple[int, int, bool] | None:
        """The predicate interval [start, end) holding the instant, if any;
        an interval the horizon cuts holds at the horizon too."""
        intervals, starts = self._intervals(expr)
        index = bisect_right(starts, time) - 1
        if index >= 0 and (time < intervals[index][1] or intervals[index][2] and time == intervals[index][1]):
            return intervals[index]
        return None

    def _signal_changes(self) -> list[tuple[int, str, bool | float]]:
        """(time, signal, value) of each signal change in (0, horizon], by
        time and then by name; the values at 0 are the initial ones."""
        return sorted((t, name, value) for name, times in self.sigma.times.items()
                      for t, value in zip(times, self.sigma.values[name]) if 0 < t <= self.horizon)

    def stats(self) -> dict:
        """Event count, signal changes included, mode residence totals, escalations, governance entries."""
        out: dict = {"events": len(self._signal_changes()) + len(self.events), "horizon": self.horizon}
        if self.smart is None:
            return out
        per_agent = {}
        for agent in self.smart.agents:
            label = agent.agent_id or "agent"
            timeline = self.mode_timeline(agent)
            residence = {k: 0 for k in agent.mode_places}
            for (start, mode), (end, _) in zip(timeline, timeline[1:] + [(self.horizon, None)]):
                if mode is not None:
                    residence[mode] += max(end - start, 0)
            fired = lambda key: len(self.firings([agent.switch(key)]))
            per_agent[label] = {
                "residence": residence,
                "escalations": fired("t_SM") + fired("t_MA"),
                "governance_entries": fired("t_SR") + fired("t_MR") + fired("t_AR"),
                "outputs": len(self.firings(agent.outputs)),
            }
        out["agents"] = per_agent
        return out


# --- serialization -----------------------------------------------------------


def net_digest(net) -> str:
    blob = json.dumps(net_to_document(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_lines(trace):
            fh.write(line + "\n")


def trace_lines(trace: Trace) -> Iterable[str]:
    header = {
        "kind": "header",
        "horizon": trace.horizon,
        "quiesced_at": trace.quiesced_at,
        "initial_marking": marking_digest(trace.initial_marking),
        "initial_signals": {name: values[0] for name, values in sorted(trace.sigma.values.items())},
        "signal_kinds": dict(sorted(trace.sigma.declarations.items())),
    }
    header.update(trace.meta)
    yield json.dumps(header, sort_keys=True)
    # field order fixed as (time, kind, name, payload) for diffability; the
    # sort is stable, so at each instant the signal changes go first
    records = [{"time": t, "kind": SIGNAL, "signal": name, "value": v} for t, name, v in trace._signal_changes()]
    for record in sorted(records + [e.to_record() for e in trace.events], key=itemgetter("time")):
        yield json.dumps(record)


def _field(record: dict, name: str, kind: type, line: int | None = None):
    """``record[name]``, which must be of type ``kind``; a bool is no int."""
    value = record[name]
    if type(value) is not kind:
        where = "" if line is None else f"line {line}: "
        raise ValueError(f"{where}{name} must be of type {kind.__name__}, got {value!r}")
    return value


def read_trace(path: str) -> Trace:
    """The trace a JSONL file holds. A malformed file raises ValueError, or
    KeyError for a record that lacks a field."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError(f"{path}: first line is not a trace header")

    horizon = _field(header, "horizon", int)
    if horizon < 0:
        raise ValueError(f"{path}: negative horizon {horizon}")
    quiesced_at = header.get("quiesced_at")
    if quiesced_at is not None and (type(quiesced_at) is not int or not 0 <= quiesced_at < horizon):
        raise ValueError(f"{path}: quiesced_at must be null or an integer in [0, {horizon}), got {quiesced_at!r}")
    kinds = _field({"signal_kinds": {}, **header}, "signal_kinds", dict)
    initial = _field({"initial_signals": {}, **header}, "initial_signals", dict)
    for name, kind in kinds.items():  # a run writes a kind and an initial value for every signal
        if kind not in (BOOL, REAL):
            raise ValueError(f"{path}: signal {name!r} has kind {kind!r}, not 'bool' or 'real'")
        if name not in initial:
            raise ValueError(f"{path}: declared signal {name!r} has no initial value")
    sigma = SignalState.declare([n for n, k in kinds.items() if k == BOOL],
                                [n for n, k in kinds.items() if k == REAL], initial)
    events: list[TraceEvent] = []
    last = 0
    for number, line in enumerate(lines[1:], 2):
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {number} is not an object")
        kind, time = record["kind"], _field(record, "time", int, number)
        if kind not in (SIGNAL, FIRE, DEPOSIT):
            raise ValueError(f"{path}: unknown event kind {kind!r}")
        # records in time order, in [0, horizon]; a signal value at 0 is an initial one
        low = max(last, 1 if kind == SIGNAL else 0)
        if not low <= time <= horizon:
            raise ValueError(f"{path}: line {number}: {kind} at t={time}, out of time order or of [{low}, {horizon}]")
        last = time
        if kind == SIGNAL:
            sigma.record(_field(record, "signal", str, number), record["value"], time)
        else:
            name = _field(record, "transition" if kind == FIRE else "place", str, number)
            marking = parse_marking_digest(_field(record, "marking", str, number))
            events.append(TraceEvent(time, kind, name, post_marking=marking))

    meta = {k: v for k, v in header.items()
            if k not in ("kind", "horizon", "quiesced_at", "initial_marking", "initial_signals", "signal_kinds")}
    return Trace(
        events=events,
        sigma=sigma,
        initial_marking=parse_marking_digest(_field(header, "initial_marking", str)),
        horizon=horizon,
        quiesced_at=quiesced_at,
        meta=meta,
    )
