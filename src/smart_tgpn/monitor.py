"""Trace monitors for the SMART behavioral guarantees.

Each monitor scans a completed trace and returns a verdict that is a
violation, a pass, a vacuous pass (the premise was never exercised), or
inconclusive (the horizon ended inside an open obligation). One rule,
``_unmet``, decides every deadline: an obligation still unmet at the end
of the trace is inconclusive while the horizon lies before its deadline
and a violation once the horizon reaches it. One rule, ``_obligations``,
decides the response a premise interval owes: met by its deadline, else
discharged when the premise is retracted before it, else ``_unmet``.
Signals are piecewise constant, so "persistently" means: at every
instant of the checked interval.

The checks, by name:

- bounded autonomy: residence in the stable place under persistent
  epistemic invalidity (and no unsafety) never exceeds the escalation
  deadline.
- output gating: no externally visible firing at an instant of
  invalidity (guarded builds); under purely structural gating, invalid
  outputs are confined to the window before the forced exit from the
  stable place, and never occur once the mode token has left it.
- mandatory escalation: every local-recovery residence ends within the
  recovery budget plus the worst escalation deadline, through exactly one
  legal exit whose choice matches the assist / unsafety signals.
- governance reachability: persistent unsafety puts the mode token in
  the regulated place within the governance bound, and the regulated
  place is absorbing while authorization is absent.
- distributed soundness: a disagreeing agent never returns to stable
  autonomy; persistent disagreement forces its governance exit within
  the consensus budget plus deadline; resolved disagreement permits (and
  with strong timing produces) the legitimate return.
- trigger sufficiency: completeness (risky intervals activate some
  trigger), soundness (no governance trigger outside risk, returns not
  blocked in low-risk recovery), and non-Zeno escalation (no unbounded
  stable/recovery thrash under persistent risk), plus the safety-envelope
  view (stable mode does not coexist with matured risk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .analysis import FormulaVerdict, HOLDS, INCONCLUSIVE, VACUOUS, VIOLATED, resolve_forbidden
from .builder import GATING_GUARDED, SmartNet, TriggerSet
from .guards import FALSE, And, Marked, Not, Sig
from .trace import FIRE, Trace, TraceEvent

PASS = "pass"
VIOLATION = "violation"

_RANK = {VACUOUS: 0, PASS: 1, INCONCLUSIVE: 2, VIOLATION: 3}

PROPOSITIONS = ("P1", "P2", "P3", "P4", "P5")
MAX_ALTERNATIONS = 3  # stable/recovery swaps under persistent risk before non-Zeno fails


@dataclass
class Verdict:
    name: str
    status: str
    violations: list[str] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, VACUOUS)

    def record(self, status: str, violation: str = "", witness: dict | None = None, note: str = "") -> None:
        """One finding: raise the status to ``status`` if it ranks higher,
        and keep what comes with the finding, its violation and witness if
        it is a violation, else its note."""
        if _RANK[status] > _RANK[self.status]:
            self.status = status
        if status == VIOLATION:
            self.violations.append(violation)
            if witness is not None:
                self.witnesses.append(witness)
        elif note:
            self.notes.append(note)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def _unmet(trace: Trace, deadline: int) -> str:
    """The status of an obligation that the trace leaves unmet: a finite
    trace decides a deadline only once its horizon reaches it."""
    return INCONCLUSIVE if trace.horizon < deadline else VIOLATION


def _obligations(trace: Trace, intervals: list[tuple[int, int, bool]], within: int,
                 met: Callable[[int, int, int], bool]) -> Iterator[tuple[int, int, int, str]]:
    """The responses the premise intervals [start, end) owe ``within``
    ticks of their start, decided three-valued on a finite trace (Bauer,
    Leucker & Schallhart, TOSEM 20(4), 2011): one that ``met(start, end,
    deadline)`` says came in time, or whose premise was retracted before
    its deadline, is discharged; the others yield (start, end, deadline,
    ``_unmet`` status), in interval order."""
    for start, end, truncated in intervals:
        deadline = start + within
        if not (met(start, end, deadline) or end <= deadline and not truncated):
            yield start, end, deadline, _unmet(trace, deadline)


def _marks(event: TraceEvent, place: str) -> bool:
    """Whether the marking an event leaves holds a token in ``place``."""
    return event.post_marking.get(place, 0) >= 1


def _require_smart(trace: Trace) -> SmartNet:
    if trace.smart is None:
        raise ValueError("trace is not bound to a SMART net (rebuild via its scenario)")
    return trace.smart


def check_proposition(name: str, trace: Trace) -> Verdict:
    """The verdict of proposition ``name``, one of PROPOSITIONS, on a trace;
    every bound comes from each agent's configuration."""
    # looked up per call, so a checker rebound on this module (a tracing wrapper) is the one run
    checker = {
        "P1": check_bounded_autonomy,
        "P2": check_output_gating,
        "P3": check_mandatory_escalation,
        "P4": check_governance_reachability,
        "P5": check_distributed_soundness,
    }[name]
    return checker(trace)


# --- P1 ------------------------------------------------------------------


def check_bounded_autonomy(trace: Trace) -> Verdict:
    """Stable-mode residence under persistent (invalid and not UR) must
    end within the escalation deadline of the condition's onset."""
    smart = _require_smart(trace)
    verdict = Verdict("P1 bounded autonomy", VACUOUS)
    for agent in smart.agents:
        intervals = [i for i in trace.predicate_intervals(agent.premise) if trace.mode_before(agent, i[0]) == "S"]
        if intervals:
            verdict.record(PASS)
        left_s = lambda start, end, deadline: any(
            mode != "S" for _, mode in trace.mode_timeline_between(agent, start, deadline))
        for start, end, deadline, status in _obligations(trace, intervals, agent.config.delta_s, left_s):
            verdict.record(
                status,
                f"agent {agent.agent_id or 'default'}: still in P_S at {deadline} "
                f"after persistent invalidity from {start}",
                {"interval": [start, end], "deadline": deadline},
                note=f"interval at {start} ends with the horizon inside the deadline",
            )
    return verdict


# --- P2 ------------------------------------------------------------------


def check_output_gating(trace: Trace) -> Verdict:
    """Guarded agents: no output firing at an instant with invalid true.
    All agents: no output firing without the stable token (checked from
    the firing's own pre-marking). Structural-only agents additionally
    classify invalid-instant outputs into the pre-escalation window. Each
    agent is judged by its own config's gating mode."""
    smart = _require_smart(trace)
    verdict = Verdict("P2 output gating", VACUOUS)
    for agent in smart.agents:
        guarded = agent.config.gating_mode == GATING_GUARDED
        outputs = trace.firings(agent.outputs)
        if outputs:
            verdict.record(PASS)
        for event in outputs:
            if trace.marking_before(event).get(agent.place("S"), 0) < 1:
                verdict.record(VIOLATION, f"{event.name} fired at {event.time} without the stable token")
            elif not trace.eval_at(agent.invalid, event.time):
                pass  # a valid instant leaves nothing to gate
            elif guarded:
                verdict.record(VIOLATION, f"{event.name} fired at {event.time} while invalid")
            elif _within_pre_escalation_window(trace, agent, event.time):
                verdict.notes.append(
                    f"{event.name} fired at {event.time} inside the bounded "
                    f"pre-escalation window (structural gating)"
                )
            else:
                verdict.record(
                    VIOLATION, f"{event.name} fired at {event.time} under invalidity outside the bounded window"
                )
    if verdict.status == VACUOUS:
        verdict.notes.append("no output firings in this trace")
    return verdict


def _within_pre_escalation_window(trace: Trace, agent, time: int) -> bool:
    """True when the instant lies between invalidity onset and the forced
    exit from the stable place, and that exit honored its deadline. With
    debounced escalation the window extends by the escalate debounce."""
    debounce = agent.config.hysteresis.debounce_up if agent.config.hysteresis.enabled else 0
    window = agent.config.delta_s + debounce
    interval = trace.interval_at(agent.premise, time)
    if interval is not None:
        return time - interval[0] <= window
    # invalid with UR alongside: the stable exit is the governance one
    interval = trace.interval_at(agent.invalid, time)
    return interval is not None and time - interval[0] <= max(window, agent.config.delta_sr)


# --- P3 ------------------------------------------------------------------


def check_mandatory_escalation(trace: Trace) -> Verdict:
    """Every local-recovery residence ends, within budget plus deadline,
    via exactly one of the return / assisted / governance exits, and the
    exit choice matches the assist and unsafety signals at that instant."""
    smart = _require_smart(trace)
    verdict = Verdict("P3 mandatory escalation", VACUOUS)
    for agent in smart.agents:
        bound = agent.config.budget_m + max(agent.config.delta_m, agent.config.delta_mr)
        legal = {agent.switch("t_MS"), agent.switch("t_MA"), agent.switch("t_MR")}
        for entry, exit_time, exit_tid in trace.mode_residences(agent, "M"):
            verdict.record(PASS)
            if exit_time is None:
                verdict.record(
                    _unmet(trace, entry + bound),
                    f"residence from {entry} has no exit by its deadline {entry + bound}",
                    note=f"residence from {entry} still open at the horizon",
                )
                continue
            if exit_time - entry > bound:
                verdict.record(VIOLATION, f"residence [{entry}, {exit_time}] exceeded {bound} ticks")
            if exit_tid not in legal:
                verdict.record(
                    VIOLATION, f"residence [{entry}, {exit_time}] left via {exit_tid}, not a legal M exit"
                )
                continue
            assist = bool(trace.sigma.value_at(agent.signal("assist"), exit_time))
            unsafe = trace.eval_at(agent.unrecoverable, exit_time)
            if exit_tid == agent.switch("t_MA") and not (assist and not unsafe):
                verdict.record(VIOLATION, f"t_MA at {exit_time} but assist={assist}, UR={unsafe}")
            if exit_tid == agent.switch("t_MR") and not (unsafe or not assist):
                verdict.record(VIOLATION, f"t_MR at {exit_time} but assist={assist}, UR={unsafe}")
    return verdict


# --- P4 ------------------------------------------------------------------


def check_governance_reachability(trace: Trace) -> Verdict:
    """Persistent unsafety reaches the regulated place within the
    governance bound; while authorization is absent, nothing leaves it."""
    smart = _require_smart(trace)
    verdict = Verdict("P4 governance reachability", VACUOUS)
    for agent in smart.agents:
        intervals = trace.predicate_intervals(agent.unrecoverable)
        if intervals:
            verdict.record(PASS)
        reached_r = lambda start, end, deadline: trace.mode_before(agent, start) == "R" or any(
            mode == "R" for _, mode in trace.mode_timeline_between(agent, start, deadline))
        for start, _, deadline, status in _obligations(trace, intervals, agent.config.governance_bound, reached_r):
            verdict.record(
                status,
                f"agent {agent.agent_id or 'default'}: P_R not reached by {deadline} for unsafety from {start}",
                note=f"unsafety from {start} still maturing at the horizon",
            )

        # absorption: no exit firing while in R with authorization absent
        for entry, exit_time, exit_tid in trace.mode_residences(agent, "R"):
            if exit_time is None:
                continue
            auth = bool(trace.sigma.value_at(agent.signal("ext_auth"), exit_time))
            unsafe = trace.eval_at(agent.unrecoverable, exit_time)
            if not auth:
                verdict.record(VIOLATION, f"{exit_tid} left P_R at {exit_time} without authorization")
            elif unsafe:
                verdict.record(VIOLATION, f"{exit_tid} left P_R at {exit_time} while unsafe")
            else:
                verdict.notes.append(f"authorized exit {exit_tid} at {exit_time}")
    return verdict


# --- P5 ------------------------------------------------------------------


def check_distributed_soundness(trace: Trace) -> Verdict:
    """Per agent: no stable return at a disagreeing instant; disagreement
    through the consensus budget forces the governance exit; a resolved
    disagreement (with validity and safety) yields the legitimate return
    within its deadline."""
    smart = _require_smart(trace)
    verdict = Verdict("P5 distributed soundness", VACUOUS)
    disagree = trace.sigma
    for agent in smart.agents:
        t_as, t_ar = agent.switch("t_AS"), agent.switch("t_AR")
        # what a legitimate return from A needs at an instant: the agent's
        # t_AS guard, and a token in each coordination place it consumes
        consensus = [Marked(p) for p in smart.net.pre_sets.get(t_as, {}) if p in smart.coordination_places]
        permitted = And((*consensus, Not(Sig("disagree")), Sig("agree"), Not(agent.risk)))
        for event in trace.firings([t_as]):
            verdict.record(PASS)
            if bool(disagree.value_at("disagree", event.time)):
                verdict.record(VIOLATION, f"{t_as} fired at {event.time} under disagreement")

        bound = agent.config.budget_a + agent.config.delta_ar
        for entry, exit_time, exit_tid in trace.mode_residences(agent, "A"):
            verdict.record(PASS)
            span_end = exit_time if exit_time is not None else trace.horizon
            disagree_throughout = all(
                bool(disagree.value_at("disagree", t))
                for t in trace.changes(permitted, entry, min(span_end, entry + bound))
            )
            if disagree_throughout:
                if exit_time is None:
                    verdict.record(
                        _unmet(trace, entry + bound),
                        f"agent {agent.agent_id or 'default'}: disagreement from {entry} "
                        f"never escalated within {bound}",
                        note=f"disagreeing residence from {entry} open at horizon",
                    )
                elif exit_time - entry > bound or exit_tid != t_ar:
                    verdict.record(
                        VIOLATION,
                        f"agent {agent.agent_id or 'default'}: residence [{entry}, {exit_time}] "
                        f"exited via {exit_tid} at +{exit_time - entry} (bound {bound} via {t_ar})",
                    )
                continue
            resolved = next((t for t in trace.changes(permitted, entry, span_end) if trace.eval_at(permitted, t)), None)
            if resolved is None:
                continue
            deadline = resolved + agent.config.delta_a
            if any(e.kind == FIRE and e.name == t_as for e in trace.events_between(resolved, deadline)):
                continue  # returned in time
            if not all(trace.eval_at(permitted, t) for t in trace.changes(permitted, resolved, min(deadline, span_end))):
                continue  # conditions lapsed again; no obligation matured
            status = _unmet(trace, deadline)
            # once decided, only a residence still open at the deadline owed the return
            if status == INCONCLUSIVE or exit_time is None or exit_time > deadline:
                verdict.record(
                    status,
                    f"agent {agent.agent_id or 'default'}: resolution at {resolved} "
                    f"did not produce {t_as} by {deadline}",
                    note=f"resolution at {resolved} still maturing at horizon",
                )
    return verdict


# --- trigger sufficiency ---------------------------------------------------


@dataclass
class TriggerVerdict:
    completeness: list[dict] = field(default_factory=list)
    soundness: list[dict] = field(default_factory=list)
    non_zeno: list[dict] = field(default_factory=list)
    envelope: list[dict] = field(default_factory=list)
    inconclusive: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.completeness or self.soundness or self.non_zeno or self.envelope)

    def to_record(self) -> dict:
        return {
            "completeness_violations": self.completeness,
            "soundness_violations": self.soundness,
            "non_zeno_violations": self.non_zeno,
            "envelope_violations": self.envelope,
            "inconclusive": self.inconclusive,
        }


def check_trigger_set(traces: list[Trace], triggers: TriggerSet) -> TriggerVerdict:
    """Sufficiency of a trigger set over a suite of traces.

    A trigger "fires" when its named transition fires in the trace.
    Completeness: every risk interval at least the dwell long sees some
    trigger fire inside it. Soundness: governance triggers never fire at
    a no-risk instant, and a low-risk local-recovery segment is not
    blocked from returning. Non-Zeno: bounded stable/recovery alternation
    under persistent risk without reaching assistance or governance.
    The envelope list records instants of stable mode after risk has
    persisted past the dwell.
    """
    verdict = TriggerVerdict()
    for index, trace in enumerate(traces):
        smart = _require_smart(trace)
        label = trace.meta.get("scenario", f"trace#{index}")
        all_names = {t.name for t in triggers.all_triggers()}
        rt_names = [t.name for t in triggers.t_rt]

        for start, end, truncated in trace.predicate_intervals(triggers.u_risk):
            if end - start < triggers.dwell:
                continue
            if not any(e.kind == FIRE and e.name in all_names for e in trace.events_between(start, end - 1)):
                verdict.completeness.append(
                    {"trace": label, "interval": [start, end], "truncated": truncated}
                )

        for event in trace.firings(rt_names):
            if trace.interval_at(triggers.u_risk, event.time) is None:
                verdict.soundness.append(
                    {"trace": label, "trigger": event.name, "time": event.time}
                )

        for agent in smart.agents:
            risk_expr = agent.risk if len(smart.agents) > 1 else triggers.u_risk
            # return not blocked during low-risk local recovery; a net without it never returns
            record = smart.net.transitions.get(agent.switch("t_MS"))
            guard = record.guard if record else FALSE
            low_risk_return = And((Not(risk_expr), guard))
            for entry, exit_time, _ in trace.mode_residences(agent, "M"):
                span_end = exit_time if exit_time is not None else trace.horizon
                ticks = trace.changes(low_risk_return, entry, span_end)
                low = [t for t in ticks if trace.interval_at(risk_expr, t) is None]
                if low and not any(trace.eval_at(guard, t) for t in low):
                    verdict.soundness.append(
                        {
                            "trace": label,
                            "agent": agent.agent_id or "default",
                            "blocked_return": [entry, span_end],
                        }
                    )
            # bounded alternation and the safety envelope
            stable = Marked(agent.place("S"))
            for start, end, truncated in trace.predicate_intervals(risk_expr):
                if end - start < triggers.dwell:
                    continue
                timeline = trace.mode_timeline_between(agent, start, end - 1)
                swaps = sum(1 for _, m in timeline if m in ("S", "M"))
                final_mode = trace.mode_at(agent, end - 1) if end > start else None
                if swaps > MAX_ALTERNATIONS and final_mode not in ("A", "R"):
                    verdict.non_zeno.append(
                        {
                            "trace": label,
                            "agent": agent.agent_id or "default",
                            "interval": [start, end],
                            "alternations": swaps,
                        }
                    )
                ticks = trace.changes(stable, start + triggers.dwell, end - 1)
                stable_at = next((t for t in ticks if trace.eval_at(stable, t)), None)
                if stable_at is not None:
                    verdict.envelope.append(
                        {
                            "trace": label,
                            "agent": agent.agent_id or "default",
                            "time": stable_at,
                            "risk_since": start,
                        }
                    )
    return verdict


# --- trace-level formula checking --------------------------------------------


def check_formula_on_trace(trace: Trace, formula) -> FormulaVerdict:
    """Evaluate one of the four formula schemas against a single trace
    (one path; the explorer covers the branching case). Verdicts use the
    same statuses as graph checking: holds / violated / vacuous /
    inconclusive."""
    smart = _require_smart(trace)

    if formula.kind == "safety":  # read on the marking at the instant's entry, as the explorer reads it
        for event in trace.firings(resolve_forbidden(formula.forbidden, smart.net, smart)):
            if trace.eval_at(formula.condition, event.time, trace.marking_at(event.time - 1)):
                return FormulaVerdict(
                    formula, VIOLATED,
                    [{"time": event.time, "firing": event.name}],
                    f"{event.name} fired at {event.time} under the condition",
                )

    intervals = trace.predicate_intervals(formula.condition)
    if not intervals:
        return FormulaVerdict(formula, VACUOUS, detail="condition never held on this trace")
    if formula.kind == "safety":
        return FormulaVerdict(formula, HOLDS)

    if formula.kind in ("bounded-response", "reach"):
        place, worst = formula.place, HOLDS
        marked = lambda start, end, deadline: trace.marking_at(start).get(place, 0) >= 1 or any(
            _marks(event, place) for event in trace.events_between(start, min(deadline, end)))
        for start, end, _, status in _obligations(trace, intervals, formula.within, marked):
            if status == VIOLATION:
                return FormulaVerdict(
                    formula, VIOLATED,
                    [{"interval": [start, end]}],
                    f"{place} not marked within {formula.within} of {start}",
                )
            worst = INCONCLUSIVE
        return FormulaVerdict(formula, worst)

    # never-while, anchored as the explorer anchors: at the first instant of
    # a condition interval whose end-of-instant marking anchors; an interval
    # the horizon cuts holds the condition at the horizon too
    anchored = False
    for start, end, truncated in intervals:
        last = end if truncated else end - 1
        ticks = trace.changes(formula.anchor, start, last)
        anchor = next((t for t in ticks if trace.eval_at(formula.anchor, t)), None)
        if anchor is None:
            continue
        anchored = True
        for event in trace.events_between(anchor + 1, last):
            if _marks(event, formula.place):
                return FormulaVerdict(
                    formula, VIOLATED,
                    [{"time": event.time, "interval": [start, end]}],
                    f"{formula.place} marked at {event.time} inside a condition interval",
                )
    if not anchored:
        return FormulaVerdict(formula, VACUOUS, detail="no anchored instant on this trace")
    return FormulaVerdict(formula, HOLDS)
