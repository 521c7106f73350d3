"""Timed execution traces and their on-disk form.

A trace is the ordered record of one run: transition firings (with the
marking they produced), signal changes (scripted, derived, or agreement
updates), and output-attempt deposits, over a known horizon. Stored
traces are JSON lines, one event per line, preceded by a header record;
field order is fixed so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

from .builder import SmartNet
from .guards import GuardExpr, eval_guard
from .net import Marking
from .signals import BOOL, SignalState

FIRE = "fire"
SIGNAL = "signal"
DEPOSIT = "deposit"


@dataclass
class TraceEvent:
    time: int
    kind: str
    name: str
    value: bool | float | None = None
    post_marking: Marking | None = None

    def to_record(self) -> dict:
        record: dict = {"time": self.time, "kind": self.kind}
        if self.kind == FIRE:
            record["transition"] = self.name
            record["marking"] = marking_digest(self.post_marking or {})
        elif self.kind == SIGNAL:
            record["signal"] = self.name
            record["value"] = self.value
        else:
            record["place"] = self.name
            record["marking"] = marking_digest(self.post_marking or {})
        return record


def marking_digest(marking: Marking) -> str:
    return ",".join(f"{p}:{c}" for p, c in sorted(marking.items()) if c)


def parse_marking_digest(digest: str) -> Marking:
    marking: Marking = {}
    if digest:
        for part in digest.split(","):
            place, count = part.rsplit(":", 1)
            marking[place] = int(count)
    return marking


@dataclass
class Trace:
    events: list[TraceEvent]
    sigma: SignalState
    initial_marking: Marking
    horizon: int
    quiesced_at: int | None = None
    meta: dict = field(default_factory=dict)
    smart: SmartNet | None = None

    # -- derived views -----------------------------------------------------

    def firings(self, names: Iterable[str] | None = None) -> list[TraceEvent]:
        wanted = set(names) if names is not None else None
        return [
            e for e in self.events
            if e.kind == FIRE and (wanted is None or e.name in wanted)
        ]

    def marking_before(self, event: TraceEvent) -> Marking:
        """Marking immediately before a firing event (end of the previous
        marking-changing event, or the initial marking)."""
        marking = self.initial_marking
        for e in self.events:
            if e is event:
                return marking
            if e.post_marking is not None:
                marking = e.post_marking
        raise ValueError("event does not belong to this trace")

    def marking_at(self, time: int) -> Marking:
        """Marking at the end of the given instant."""
        marking = self.initial_marking
        for e in self.events:
            if e.time > time:
                break
            if e.post_marking is not None:
                marking = e.post_marking
        return marking

    def mode_timeline(self, agent) -> list[tuple[int, str | None]]:
        """Per-agent sequence of (time, mode key) changes, end-of-instant
        semantics; starts with the initial mode at time 0."""
        timeline = [(0, agent.mode_in(self.initial_marking))]
        for e in self.events:
            if e.post_marking is None:
                continue
            mode = agent.mode_in(e.post_marking)
            if mode != timeline[-1][1]:
                timeline.append((e.time, mode))
        return timeline

    def mode_at(self, agent, time: int) -> str | None:
        current = None
        for t, mode in self.mode_timeline(agent):
            if t > time:
                break
            current = mode
        return current

    def mode_before(self, agent, time: int) -> str | None:
        """Mode in force when the given instant began (the end-of-instant
        mode of the previous tick; the initial mode for time 0)."""
        if time <= 0:
            return self.mode_timeline(agent)[0][1]
        return self.mode_at(agent, time - 1)

    def mode_residences(self, agent, key: str) -> list[tuple[int, int | None, str | None]]:
        """Maximal residences in one mode place: (entry, exit, exit
        transition id); exit None when the trace ends inside the mode."""
        timeline = self.mode_timeline(agent)
        residences = []
        for index, (start, mode) in enumerate(timeline):
            if mode != key:
                continue
            if index + 1 < len(timeline):
                end = timeline[index + 1][0]
                exit_tid = None
                for e in self.events:
                    if e.kind == FIRE and e.time == end:
                        before = self.marking_before(e)
                        after = e.post_marking or {}
                        place = agent.mode_places[key]
                        if before.get(place, 0) >= 1 and after.get(place, 0) == 0:
                            exit_tid = e.name
                            break
                residences.append((start, end, exit_tid))
            else:
                residences.append((start, None, None))
        return residences

    def eval_at(self, expr: GuardExpr, time: int) -> bool:
        return eval_guard(expr, self.sigma, self.marking_at(time), time)

    def change_points(self) -> list[int]:
        """All instants at which anything changed, plus 0 and the horizon."""
        points = {0, self.horizon}
        for history in self.sigma.histories.values():
            points.update(t for t, _ in history if t <= self.horizon)
        points.update(e.time for e in self.events)
        return sorted(points)

    def predicate_intervals(self, expr: GuardExpr) -> list[tuple[int, int, bool]]:
        """Maximal intervals [start, end) where the predicate holds;
        the final flag marks truncation by the horizon."""
        points = self.change_points()
        intervals = []
        start = None
        for point in points:
            value = self.eval_at(expr, point)
            if value and start is None:
                start = point
            elif not value and start is not None:
                intervals.append((start, point, False))
                start = None
        if start is not None:
            intervals.append((start, self.horizon, True))
        return intervals

    def stats(self) -> dict:
        """Mode residence totals, escalation counts, governance entries."""
        out: dict = {"events": len(self.events), "horizon": self.horizon}
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
    from .netio import net_to_document

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
        "initial_signals": {
            name: history[0][1] for name, history in sorted(trace.sigma.histories.items())
        },
        "signal_kinds": dict(sorted(trace.sigma.declarations.items())),
    }
    header.update(trace.meta)
    yield json.dumps(header, sort_keys=True)
    for event in trace.events:
        # field order fixed as (time, kind, name, payload) for diffability
        yield json.dumps(event.to_record())


def read_trace(path: str) -> Trace:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("kind") != "header":
        raise ValueError(f"{path}: first line is not a trace header")

    kinds = header.get("signal_kinds", {})
    sigma = SignalState.declare(
        booleans=[n for n, k in kinds.items() if k == BOOL],
        reals=[n for n, k in kinds.items() if k != BOOL],
        initial=header.get("initial_signals", {}),
    )
    events: list[TraceEvent] = []
    for line in lines[1:]:
        record = json.loads(line)
        kind = record["kind"]
        if kind == FIRE:
            events.append(
                TraceEvent(record["time"], FIRE, record["transition"],
                           post_marking=parse_marking_digest(record["marking"]))
            )
        elif kind == SIGNAL:
            events.append(TraceEvent(record["time"], SIGNAL, record["signal"], value=record["value"]))
            sigma.record(record["signal"], record["value"], record["time"])
        elif kind == DEPOSIT:
            events.append(
                TraceEvent(record["time"], DEPOSIT, record["place"],
                           post_marking=parse_marking_digest(record["marking"]))
            )
        else:
            raise ValueError(f"{path}: unknown event kind {kind!r}")

    meta = {
        k: v
        for k, v in header.items()
        if k not in ("kind", "horizon", "quiesced_at", "initial_marking", "initial_signals", "signal_kinds")
    }
    return Trace(
        events=events,
        sigma=sigma,
        initial_marking=parse_marking_digest(header["initial_marking"]),
        horizon=header["horizon"],
        quiesced_at=header.get("quiesced_at"),
        meta=meta,
    )
