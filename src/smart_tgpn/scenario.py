"""Scenario definition and the discrete-event run loop.

A scenario binds a net (builder configuration or net file), a signal
script, a horizon, a firing policy and seed, plus the checks to run.
The script is resolved once, as the scenario is built, into what runs read:

- signal histories (``Scenario.signal_state``, a copy per run): the
  initial values and the scripted changes; with ``derive_agreement``, also
  ``disagree`` / ``agree``, decided from the per-agent ``claim_*`` signals
  at tick 0 and at each claim change, which depend on nothing a run decides;
- output attempts (``Scenario.deposits``): each true script entry for an
  agent's ``want_signal`` deposits a token into its want place.

The loop drives the kernel and handles only what the run itself
decides: the deposit instants, and the derived timeouts ``timeout_M`` /
``timeout_A``, recorded true when the agent's ``ResidenceClock`` says
they hold and reset on the next entry to their place.

A run ends at the horizon. When nothing can ever happen after its last
event, the trace also records that instant (absorbing quiescence).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .analysis import Formula, FormulaVerdict, resolve_forbidden
from .builder import (
    SHARED_BOOL_SIGNALS,
    AgentSpec,
    ResidenceClock,
    SmartNet,
    TriggerSet,
    Trigger,
    build_multi_agent,
    build_single_agent,
    default_trigger_set,
)
from .guards import GuardExpr, parse_guard, place_names, signal_names
from .kernel import EARLIEST, LATEST, RANDOM, FiringPolicy, KernelState, _next_candidate, advance_to_next_event
from .monitor import (
    PROPOSITIONS,
    TriggerVerdict,
    Verdict,
    check_formula_on_trace,
    check_proposition,
    check_trigger_set,
)
from .net import validate_net
from .netio import NetDocumentError, config_from_document, load_smart
from .signals import SignalState, as_bool
from .trace import DEPOSIT, FIRE, Trace, TraceEvent, net_digest

SEED_ENV_VAR = "SMART_TGPN_SEED"


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    smart: SmartNet
    horizon: int
    policy: str = "earliest"
    seed: int = 0
    script: list[tuple[int, str, Any]] = field(default_factory=list)
    initial_signals: dict[str, Any] = field(default_factory=dict)
    extra_booleans: list[str] = field(default_factory=list)
    extra_reals: list[str] = field(default_factory=list)
    propositions: list[str] = field(default_factory=list)
    formulas: list[Formula] = field(default_factory=list)
    triggers: TriggerSet | None = None
    derive_agreement: bool = False
    exploration: dict | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Resolve the script once (see the module docstring): a changed
        field needs a new scenario, as ``dataclasses.replace`` builds."""
        booleans = self.smart.bool_signals() + list(self.extra_booleans)
        reals = self.smart.real_signals() + list(self.extra_reals)
        claims = [a.claim for a in self.smart.agents] if self.derive_agreement else []
        initial = {**self.smart.default_initial_signals(), **self.initial_signals}
        sigma = SignalState.declare(booleans, sorted(set(reals + claims)), initial)
        places = {a.want_signal: a.want_place for a in self.smart.agents}
        for time, name, value in self.script:
            if name not in places:
                sigma.record(name, value, time)
        for time in [0, *sigma.change_points(claims, 0, self.horizon)] if claims else []:
            disagree = len({sigma.value_at(claim, time) for claim in claims}) > 1
            sigma.record("disagree", disagree, time)
            sigma.record("agree", not disagree, time)
        self._sigma = sigma
        self._deposits = sorted((time, places[name]) for time, name, value in self.script
                                if name in places and as_bool(name, value))

    def signal_state(self) -> SignalState:
        """A copy of the resolved histories, for one run's derived timeouts."""
        return self._sigma.copy()

    def deposits(self) -> list[tuple[int, str]]:
        """(time, want place) of every scripted output attempt."""
        return list(self._deposits)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object, got {value!r}")
    return value


def _build_net(raw: dict, base_dir: str) -> SmartNet:
    if "file" in raw:
        return load_smart(os.path.join(base_dir, raw["file"]))
    if "builder" not in raw:
        raise ScenarioError("net section needs either 'builder' or 'file'")
    spec = _object(raw["builder"], "net.builder")
    cfg = config_from_document(_object(spec.get("config", {}), "net.builder.config"))
    agents = spec.get("agents", 1)
    if not (agents is None or type(agents) is int or isinstance(agents, list)):
        raise ScenarioError(f"net.builder.agents must be an integer or a list of agent ids, got {agents!r}")
    if agents in (1, None):
        return build_single_agent(cfg)
    ids = agents if isinstance(agents, list) else [f"a{i + 1}" for i in range(agents)]
    return build_multi_agent([AgentSpec(i) for i in ids], base_config=cfg)


def _declared(expr: GuardExpr, known: set[str], smart: SmartNet, where: str) -> GuardExpr:
    """``expr``, once every signal it reads is declared and every place it
    reads is a place of the net."""
    for name in sorted(signal_names(expr)):
        if name not in known:
            raise ScenarioError(f"{where}: undeclared signal {name!r}")
    for place in sorted(place_names(expr)):
        if place not in smart.net.places:
            raise ScenarioError(f"{where}: unknown place {place!r}")
    return expr


def _names(raw: dict, key: str, where: str) -> list[str]:
    value = raw.get(key, [])
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ScenarioError(f"{where}: {key} must be a list of names, got {value!r}")
    return value


def _parse_formula(raw, smart: SmartNet, known: set[str]) -> Formula:
    raw = _object(raw, "formula")
    if "kind" not in raw:
        raise ScenarioError("formula lacks required field 'kind'")
    where = f"formula {raw.get('name', raw['kind'])!r}"
    library = smart.predicates()
    condition = _declared(library.expand(parse_guard(raw.get("condition", "true"))), known, smart, where)
    forbidden, from_places = _names(raw, "forbidden", where), _names(raw, "from_places", where)
    for entry in forbidden:
        if not resolve_forbidden([entry], smart.net, smart):
            raise ScenarioError(f"{where}: forbidden entry {entry!r} names no transition, role or 'output'")
    place = raw.get("place")
    for name in from_places + ([] if place is None else [place]):
        if not isinstance(name, str) or name not in smart.net.places:
            raise ScenarioError(f"{where}: {name!r} is not a place of the net")
    try:
        return Formula(
            kind=raw["kind"],
            condition=condition,
            place=place,
            within=raw.get("within"),
            forbidden=tuple(forbidden),
            from_places=tuple(from_places),
            name=raw.get("name", raw["kind"]),
        )
    except ValueError as exc:  # the schema of its kind
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_exploration(raw) -> dict:
    """The exploration section, once its fields have the types explore reads."""
    section = _object(raw, "exploration")
    unknown = sorted(set(section) - {"horizon", "alphabet", "flip_budget", "branching", "cap"})
    if unknown:
        raise ScenarioError(f"exploration: unknown fields {unknown}")
    for key in ("horizon", "cap", "flip_budget"):
        value = section.get(key, 0)
        if key == "flip_budget" and value is None:
            continue  # any subset of the alphabet may flip per tick
        if type(value) is not int or value < 0:
            raise ScenarioError(f"exploration.{key} must be an integer >= 0, got {value!r}")
    _names(section, "alphabet", "exploration")
    return section


def _parse_triggers(raw, smart: SmartNet, known: set[str]) -> TriggerSet:
    if raw in (None, "default"):
        return default_trigger_set(smart)
    raw = _object(raw, "triggers")

    def tier(entries) -> list[Trigger]:
        for entry in entries:
            if not isinstance(entry["name"], str):
                raise ScenarioError(f"trigger name must be a string, got {entry['name']!r}")
            if set(entry) != {"name"}:  # its condition is the guard of the transition it names
                raise ScenarioError(f"trigger {entry['name']!r}: unknown fields {sorted(set(entry) - {'name'})}")
        return [Trigger(entry["name"]) for entry in entries]

    dwell = raw.get("dwell", 1)
    if type(dwell) is not int or dwell < 0:
        raise ScenarioError(f"triggers.dwell must be an integer >= 0, got {dwell!r}")
    return TriggerSet(
        t_m=tier(raw.get("t_m", [])),
        t_a=tier(raw.get("t_a", [])),
        t_rt=tier(raw.get("t_rt", [])),
        u_risk=_declared(smart.predicates().expand(parse_guard(raw["u_risk"])), known, smart, "triggers.u_risk"),
        dwell=dwell,
    )


def parse_scenario(source: str | dict, base_dir: str | None = None) -> Scenario:
    """Parse and resolve a scenario document (path or already-loaded dict).
    A TypeError or ValueError raised while parsing (a bad value, config or
    guard), or a KeyError (a section lacking a field), is reported as a
    ScenarioError."""
    if isinstance(source, str):
        base_dir = base_dir or os.path.dirname(os.path.abspath(source))
        with open(source, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{source}: line {exc.lineno}: {exc.msg}") from None
    else:
        doc = source
        base_dir = base_dir or "."
    try:
        return _parse_document(doc, base_dir)
    except (ScenarioError, NetDocumentError):
        raise
    except (TypeError, ValueError) as exc:  # SmartConfigError, GuardError and SignalError among them
        raise ScenarioError(f"invalid scenario: {exc}") from None
    except KeyError as missing:  # a trigger without name, triggers without u_risk
        raise ScenarioError(f"invalid scenario: a section lacks required field {missing}") from None


def _parse_document(doc: dict, base_dir: str) -> Scenario:
    for key in ("name", "net", "horizon"):
        if key not in doc:
            raise ScenarioError(f"scenario lacks required field {key!r}")
    # the name is the file name stem of the run's trace and reports
    if not isinstance(doc["name"], str) or "/" in doc["name"] or "\\" in doc["name"]:
        raise ScenarioError(f"scenario name must be a string without a path separator, got {doc['name']!r}")
    smart = _build_net(doc["net"], base_dir)
    horizon = doc["horizon"]
    if type(horizon) is not int or horizon < 0:
        raise ScenarioError(f"horizon must be an integer >= 0, got {horizon!r}")

    warnings: list[str] = []
    declare = _object(doc.get("declare", {}), "declare")
    extra_booleans, extra_reals = _names(declare, "booleans", "declare"), _names(declare, "reals", "declare")
    known = set(smart.bool_signals()) | set(smart.real_signals()) | set(extra_booleans) | set(extra_reals)
    derive_agreement = doc.get("derive_agreement", False)
    if type(derive_agreement) is not bool:
        raise ScenarioError(f"derive_agreement must be true or false, got {derive_agreement!r}")
    if derive_agreement:
        known |= {a.claim for a in smart.agents}
    if "file" in doc["net"]:  # a builder net reads only the signals it declares
        errors = validate_net(smart.net, known).errors
        if errors:
            raise ScenarioError(f"net file {doc['net']['file']}: {'; '.join(errors)}")

    initial = dict(doc.get("signals", {}))  # resolving the script refuses a value for an undeclared signal
    for name in extra_reals:
        if name not in initial:
            warnings.append(f"real signal {name!r} has no initial value; defaulting to 0")

    script: list[tuple[int, str, Any]] = []
    wants = {a.want_signal for a in smart.agents}
    for index, entry in enumerate(doc.get("script", [])):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ScenarioError(f"script[{index}]: expected [time, signal, value]")
        time, name, value = entry[0], str(entry[1]), entry[2]
        if type(time) is not int:
            raise ScenarioError(f"script[{index}]: time must be an integer, got {time!r}")
        if time < 0 or time > horizon:
            raise ScenarioError(f"script[{index}]: time {time} outside [0, {horizon}]")
        if derive_agreement and name in SHARED_BOOL_SIGNALS:
            raise ScenarioError(f"script[{index}]: {name!r} is derived from the claims under derive_agreement")
        if name not in known and name not in wants:
            raise ScenarioError(f"script[{index}]: undeclared signal {name!r}")
        script.append((time, name, value))
    script.sort(key=lambda e: (e[0], e[1]))

    seed = doc.get("seed")
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    elif type(seed) is not int:
        raise ScenarioError(f"seed must be an integer, got {seed!r}")
    policy = doc.get("policy", EARLIEST)
    if policy not in (EARLIEST, LATEST, RANDOM):
        raise ScenarioError(f"unknown firing policy {policy!r}")
    propositions = doc.get("propositions", [])
    unknown = [p for p in propositions if p not in PROPOSITIONS]
    if unknown:
        raise ScenarioError(f"unknown propositions {unknown} (known: {list(PROPOSITIONS)})")

    return Scenario(
        name=doc["name"],
        smart=smart,
        horizon=horizon,
        policy=policy,
        seed=seed,
        script=script,
        initial_signals=initial,
        extra_booleans=extra_booleans,
        extra_reals=extra_reals,
        propositions=list(propositions),
        formulas=[_parse_formula(raw, smart, known) for raw in doc.get("formulas", [])],
        triggers=_parse_triggers(doc.get("triggers"), smart, known) if "triggers" in doc else None,
        derive_agreement=derive_agreement,
        exploration=None if doc.get("exploration") is None else _parse_exploration(doc["exploration"]),
        warnings=warnings,
    )  # resolving the script rejects bad values, clashing entries and output attempts neither true nor false


@dataclass
class RunReport:
    scenario: str
    verdicts: list[Verdict] = field(default_factory=list)
    formula_verdicts: list[FormulaVerdict] = field(default_factory=list)
    trigger_verdict: TriggerVerdict | None = None
    stats: dict = field(default_factory=dict)
    quiesced_at: int | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        bad = [v for v in self.verdicts if v.status == "violation"]
        bad += [v for v in self.formula_verdicts if v.status == "violated"]
        if self.trigger_verdict is not None and not self.trigger_verdict.ok:
            bad.append(self.trigger_verdict)
        if bad:
            return "violation"
        inconclusive = any(v.status == "inconclusive" for v in self.verdicts)
        inconclusive = inconclusive or any(v.status == "inconclusive" for v in self.formula_verdicts)
        return "inconclusive" if inconclusive else "pass"

    def to_record(self) -> dict:
        return {
            "scenario": self.scenario,
            "status": self.status,
            "verdicts": [v.to_record() for v in self.verdicts],
            "formulas": [
                {"name": v.formula.label(), "status": v.status, "detail": v.detail}
                for v in self.formula_verdicts
            ],
            "triggers": self.trigger_verdict.to_record() if self.trigger_verdict else None,
            "stats": self.stats,
            "quiesced_at": self.quiesced_at,
            "warnings": self.warnings,
        }

    def table(self) -> str:
        lines = [f"scenario: {self.scenario}   status: {self.status}"]
        if self.quiesced_at is not None:
            lines.append(f"  quiesced at t={self.quiesced_at}")
        for verdict in self.verdicts:
            lines.append(f"  {verdict.name:<34} {verdict.status}")
            for violation in verdict.violations:
                lines.append(f"      {violation}")
        for verdict in self.formula_verdicts:
            lines.append(f"  formula {verdict.formula.label():<26} {verdict.status}")
        if self.trigger_verdict is not None:
            record = self.trigger_verdict.to_record()
            lines.append(f"  trigger-set {'pass' if self.trigger_verdict.ok else 'violation'}")
            for kind in ("completeness_violations", "soundness_violations", "non_zeno_violations"):
                for item in record[kind]:
                    lines.append(f"      {kind.split('_')[0]}: {item}")
        return "\n".join(lines)


def _next_timeout(clock: ResidenceClock, sigma: SignalState, now: int) -> int | None:
    """The earliest tick from ``now`` on at which a timeout not yet true turns true."""
    return min((due for name, due in clock.deadlines() if due >= now and not sigma.value_at(name, now)), default=None)


def run(scenario: Scenario) -> tuple[Trace, RunReport]:
    """Execute a scenario and evaluate its requested checks."""
    smart = scenario.smart
    net = smart.net
    sigma = scenario.signal_state()
    policy = FiringPolicy(scenario.policy, seed=scenario.seed)
    state = KernelState.initial(net)
    deposits = deque(scenario.deposits())
    clock = ResidenceClock.at(smart.agents, state.marking, [0] * len(smart.agents))
    events: list[TraceEvent] = []

    while state.now <= scenario.horizon:
        for name, value in clock.timeouts(state.now).items():
            if value and not bool(sigma.value_at(name, state.now)):
                sigma.record(name, True, state.now)
        # events come in time order, deposits first at an instant: the kernel stops short of a deposit tick
        while deposits and deposits[0][0] == state.now:
            _, place = deposits.popleft()
            state.marking = {**state.marking, place: state.marking.get(place, 0) + 1}
            state.marking_history.append((state.now, state.marking))
            events.append(TraceEvent(state.now, DEPOSIT, place, post_marking=state.marking))

        injections = (_next_timeout(clock, sigma, state.now), deposits[0][0] if deposits else None)
        limit = min([scenario.horizon + 1, *(t for t in injections if t is not None)])
        if limit <= state.now:
            raise RuntimeError(f"scheduler stalled at t={state.now}")  # injections are always ahead

        state, fired = advance_to_next_event(net, state, sigma, policy, limit)

        for event in fired:
            events.append(TraceEvent(event.time, FIRE, event.transition, post_marking=event.post_marking))
        if fired:
            # a timeout stays true after its place is left, until the next
            # entry; an entry in the instant it turned true cancels it
            for name in clock.observe(state.marking, state.now):
                sigma.reset(name, state.now)

    # absorbing quiescence: nothing happened after the last event and
    # nothing ever can (no kernel candidate, pending deposit, or timeout)
    quiesced_at: int | None = None
    if not deposits and _next_timeout(clock, sigma, state.now) is None:
        if _next_candidate(net, state, sigma, policy) is None:
            last_activity = events[-1].time if events else 0
            if last_activity < scenario.horizon:
                quiesced_at = last_activity

    trace = Trace(
        events=events,
        sigma=sigma,
        initial_marking=state.marking_history[0][1],
        horizon=scenario.horizon,
        quiesced_at=quiesced_at,
        meta={
            "scenario": scenario.name,
            "policy": scenario.policy,
            "seed": scenario.seed,
            "gating": smart.gating_mode,
            "net_digest": net_digest(net),
        },
        smart=smart,
    )
    report = verify(trace, scenario)
    return trace, report


def verify(trace: Trace, scenario: Scenario) -> RunReport:
    """Run the scenario's monitors and trace-level formulas on a trace."""
    if trace.smart is None:
        trace.smart = scenario.smart
    report = RunReport(scenario.name, warnings=list(scenario.warnings))
    report.quiesced_at = trace.quiesced_at
    for name in scenario.propositions:
        report.verdicts.append(check_proposition(name, trace))
    for formula in scenario.formulas:
        report.formula_verdicts.append(check_formula_on_trace(trace, formula))
    if scenario.triggers is not None:
        report.trigger_verdict = check_trigger_set([trace], scenario.triggers)
    report.stats = trace.stats()
    return report
