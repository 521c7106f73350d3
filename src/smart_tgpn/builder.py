"""Construction of SMART autonomy nets.

A SMART net has four mode places per agent (P_S stable, P_M local
recovery, P_A assisted recovery, P_R regulated control) holding a single
mode token, guarded mode-switch transitions between them, output
transitions gated on P_S, and a coordination subnet (claim / check /
agree / conflict) that tracks consensus progress while the mode token
sits in P_A.

Output attempts are modeled as tokens in a want-place consumed by the
output transition, which reads and restores the P_S token, so output
never moves the mode token and each scripted attempt fires at most once.

Escalation and governance transitions are strongly timed with finite
deadlines; returns are weak. Timeouts (timeout_M / timeout_A) are derived
signals: ``ResidenceClock`` decides them from the residence budgets
B_M / B_A for the run loop and the explorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

from .guards import (
    And,
    Cmp,
    GuardError,
    GuardExpr,
    HeldFor,
    MAX_ATOMS,
    Marked,
    Not,
    Or,
    PredicateLibrary,
    Sig,
    TRUE,
    atoms_of,
    bit_patterns,
    eval_guard,
    signal_names,
    truth_bits,
)
from .hierarchy import CheckReport, CheckResult, InterfaceSpec, Subnet
from .net import (
    Arc,
    INF,
    Net,
    PriorityClass,
    ROLE_INTERNAL,
    ROLE_MODE_SWITCH,
    ROLE_OUTPUT,
    STRONG,
    TransitionRecord,
    WEAK,
)
from .signals import ConstantSignals

GATING_GUARDED = "structural+guarded"
GATING_STRUCTURAL = "structural-only"

MODE_KEYS = ("S", "M", "A", "R")

COORDINATION_PLACES = ["P_Aentry", "P_claim", "P_check", "P_agree", "P_conflict"]

AGENT_BOOL_SIGNALS = ["anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth"]
AGENT_REAL_SIGNALS = ["U"]
SHARED_BOOL_SIGNALS = ["disagree", "agree"]
# an agent's output attempt: a script pseudo-signal and an explorer driver
WANT_OUTPUT = "want_output"


class SmartConfigError(ValueError):
    pass


def _check_types(config) -> None:
    """Each field of a config holds a value of its declared type: a bool is
    no int, and a float field takes any finite int or float but a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not (type(value) in (int, float) and math.isfinite(value)):
            raise SmartConfigError(f"{f.name} must be a finite number, got {value!r}")
        if f.type != "float" and type(value).__name__ != f.type:
            raise SmartConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class Hysteresis:
    enabled: bool = False
    theta_up: float = 0.7
    theta_down: float = 0.3
    debounce_up: int = 2  # escalation must hold this long
    debounce_down: int = 2  # return condition must hold this long

    def validate(self) -> None:
        _check_types(self)
        if self.enabled and not self.theta_down < self.theta_up:
            raise SmartConfigError("hysteresis requires theta_down < theta_up")
        if self.debounce_up < 0 or self.debounce_down < 0:
            raise SmartConfigError("debounce durations must be >= 0")


@dataclass(frozen=True)
class SmartConfig:
    """Deadlines, budgets, thresholds, and output gating for one agent."""

    delta_s: int = 2
    delta_sr: int = 1
    delta_m: int = 1
    delta_mr: int = 1
    delta_a: int = 2
    delta_ar: int = 1
    budget_m: int = 5
    budget_a: int = 5
    theta: float = 0.5
    hysteresis: Hysteresis = field(default_factory=Hysteresis)
    gating_mode: str = GATING_GUARDED

    def validate(self) -> None:
        _check_types(self)
        for f in fields(self):  # the int fields are the deadlines and budgets
            value = getattr(self, f.name)
            if f.type == "int" and not 0 < value < INF:
                raise SmartConfigError(f"{f.name} must be a positive finite tick count, got {value!r}")
        if self.gating_mode not in (GATING_GUARDED, GATING_STRUCTURAL):
            raise SmartConfigError(f"unknown gating mode {self.gating_mode!r}")
        self.hysteresis.validate()

    @property
    def governance_bound(self) -> int:
        """Worst-case ticks from persistent unsafety to P_R."""
        return max(self.delta_sr, self.delta_s + self.delta_mr, self.delta_mr, self.delta_ar)


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    config: SmartConfig | None = None


@dataclass
class AgentView:
    """Per-agent name bindings and derived predicates of a built net: each
    name and predicate of one agent is built here once, by ``agent_view``."""

    agent_id: str | None
    suffix: str
    config: SmartConfig
    mode_places: dict[str, str]
    mode_switches: dict[str, str]
    outputs: list[str]
    want_place: str
    want_signal: str  # its script entries and explorer driver deposit into want_place
    timeouts: dict[str, str]  # "M" / "A" -> its derived timeout signal
    claim: str  # the real signal derived agreement compares
    invalid: GuardExpr
    unrecoverable: GuardExpr
    premise: GuardExpr  # invalid and not UR: escalation is owed
    risk: GuardExpr  # invalid or UR

    def signal(self, base: str) -> str:
        return base + self.suffix

    def place(self, key: str) -> str:
        return self.mode_places[key]

    def switch(self, key: str) -> str:
        return self.mode_switches[key]

    def mode_in(self, marking: Mapping[str, int]) -> str | None:
        """Key of the first marked mode place (S, M, A, R), None if none is."""
        for key, place in self.mode_places.items():
            if marking.get(place, 0) >= 1:
                return key
        return None

    def bool_signals(self) -> list[str]:
        return [s + self.suffix for s in AGENT_BOOL_SIGNALS] + list(self.timeouts.values())

    def real_signals(self) -> list[str]:
        return [s + self.suffix for s in AGENT_REAL_SIGNALS]


@dataclass
class ResidenceClock:
    """The derived timeouts' one rule, for the simulator and the explorer:
    ``timeout_M`` / ``timeout_A`` hold once an agent's mode token has stayed
    ``budget_m`` / ``budget_a`` ticks in P_M / P_A. Per agent it keeps the
    token's mode and the tick it entered that mode place. Every mode change
    ``observe`` sees, a leave and re-entry within one instant included,
    restarts the clock."""

    agents: list[AgentView]
    modes: list[str | None]
    entered: list[int]

    @classmethod
    def at(cls, agents: list[AgentView], marking: Mapping[str, int], entered: list[int]) -> "ResidenceClock":
        return cls(agents, [agent.mode_in(marking) for agent in agents], list(entered))

    def copy(self) -> "ResidenceClock":
        return ResidenceClock(self.agents, list(self.modes), list(self.entered))

    def observe(self, marking: Mapping[str, int], now: int) -> list[str]:
        """Restart the clock of each agent whose token changed mode place;
        return the timeout signal of each restarted clock in P_M or P_A."""
        restarted = []
        for index, agent in enumerate(self.agents):
            mode = agent.mode_in(marking)
            if mode != self.modes[index]:
                self.modes[index], self.entered[index] = mode, now
                if mode in ("M", "A"):
                    restarted.append(agent.timeouts[mode])
        return restarted

    def deadlines(self) -> list[tuple[str, int]]:
        """(timeout signal, tick it holds from) of each agent in P_M or P_A."""
        return [
            (agent.timeouts[mode], entered + (agent.config.budget_m if mode == "M" else agent.config.budget_a))
            for agent, mode, entered in zip(self.agents, self.modes, self.entered)
            if mode in ("M", "A")
        ]

    def timeouts(self, now: int) -> dict[str, bool]:
        """Every agent's ``timeout_M`` / ``timeout_A`` at ``now``."""
        values = {}
        for agent, mode, entered in zip(self.agents, self.modes, self.entered):
            values[agent.timeouts["M"]] = mode == "M" and now >= entered + agent.config.budget_m
            values[agent.timeouts["A"]] = mode == "A" and now >= entered + agent.config.budget_a
        return values

    def residence(self, now: int) -> tuple[tuple[str, int], ...]:
        """(suffix, ticks in the current mode place at ``now``) per agent,
        capped at the larger budget, past which no timeout changes."""
        return tuple((agent.suffix, min(now - entered, max(agent.config.budget_m, agent.config.budget_a)))
                     for agent, entered in zip(self.agents, self.entered))


@dataclass
class SmartNet:
    """A built net plus the role annotations analysis and monitors use."""

    net: Net
    config: SmartConfig
    agents: list[AgentView]
    coordination_places: list[str]
    gating_mode: str

    @property
    def mode_place_ids(self) -> list[str]:
        return [p for agent in self.agents for p in agent.mode_places.values()]

    @property
    def output_transitions(self) -> list[str]:
        return [t for agent in self.agents for t in agent.outputs]

    @property
    def mode_switch_transitions(self) -> list[str]:
        return [t for agent in self.agents for t in agent.mode_switches.values()]

    def agent(self, agent_id: str | None = None) -> AgentView:
        for view in self.agents:
            if view.agent_id == agent_id:
                return view
        raise KeyError(f"no agent {agent_id!r}")

    def bool_signals(self) -> list[str]:
        names = [s for agent in self.agents for s in agent.bool_signals()]
        names += SHARED_BOOL_SIGNALS
        return sorted(dict.fromkeys(names))

    def real_signals(self) -> list[str]:
        return sorted({s for agent in self.agents for s in agent.real_signals()})

    def default_initial_signals(self) -> dict[str, bool]:
        """A stable start: safety and evidence hold, everything else quiet."""
        initial: dict[str, bool] = {}
        for agent in self.agents:
            initial[agent.signal("safe")] = True
            initial[agent.signal("evidence")] = True
        return initial

    def predicates(self) -> PredicateLibrary:
        """Named derived predicates for formulas, triggers, and monitors:
        invalid / UR plus the raised and lowered hysteresis variants, per
        agent namespace."""
        library = PredicateLibrary()
        for agent in self.agents:
            hyst = agent.config.hysteresis
            library.define("invalid" + agent.suffix, agent.invalid)
            library.define("UR" + agent.suffix, agent.unrecoverable)
            library.define("invalid_up" + agent.suffix, invalid_expr(hyst.theta_up, agent.suffix))
            library.define("valid_down" + agent.suffix, valid_expr(hyst.theta_down, agent.suffix))
        return library

    def coordination_subnet(self) -> tuple[Subnet, InterfaceSpec]:
        """The consensus subnet viewed through the refinement interface:
        the mode-switch into A deposits the coordination token, the
        return-to-S switch extracts it from the success exit."""
        sub_places = list(self.coordination_places)
        sub_transitions = {}
        sub_arcs = []
        subnet_ids = {"t_propose", "t_verify", "t_agree", "t_conflict", "t_resolve", "t_Aexit"}
        place_set = set(sub_places)
        for tid in subnet_ids:
            record = self.net.transitions.get(tid)
            if record is None:
                continue
            sub_transitions[tid] = record
            for p, w in self.net.pre(tid).items():
                if p in place_set:
                    sub_arcs.append(Arc(p, tid, w))
            for p, w in self.net.post(tid).items():
                if p in place_set:
                    sub_arcs.append(Arc(tid, p, w))
        sub = Subnet(
            net=Net(sub_places, sub_transitions, sub_arcs),
            entry=["P_Aentry"],
            exit=["P_agree"],
            success_exit=["P_agree"],
        )
        first = self.agents[0]
        return sub, InterfaceSpec(in_transition=first.switch("t_MA"), out_transition=first.switch("t_AS"))


def invalid_expr(theta: float, suffix: str = "") -> GuardExpr:
    return Or((Cmp("U" + suffix, ">=", theta), Sig("anom" + suffix), Not(Sig("evidence" + suffix))))


def valid_expr(theta: float, suffix: str = "") -> GuardExpr:
    return And((Cmp("U" + suffix, "<=", theta), Not(Sig("anom" + suffix)), Sig("evidence" + suffix)))


def unrecoverable_expr(suffix: str = "") -> GuardExpr:
    return Or((Not(Sig("safe" + suffix)), Sig("hardware_fault" + suffix)))


# config deadline of each strongly timed mode switch; the others are weak
_SWITCH_DEADLINES = {
    "t_SM": "delta_s", "t_SR": "delta_sr", "t_MA": "delta_m",
    "t_MR": "delta_mr", "t_AS": "delta_a", "t_AR": "delta_ar",
}
# a switch into R is governance and a switch into S a return; the rest escalate
_TARGET_PRIORITY = {"R": PriorityClass.GOVERNANCE, "S": PriorityClass.RECOVERY_RETURN}


def _macro_parts(view: AgentView, entry: str | None):
    """Places, transitions, and arcs of one agent's macro-level net.

    Switch ``t_XY`` moves the mode token from P_X to P_Y. It is strong with
    its config deadline from _SWITCH_DEADLINES, weak without one. With
    hysteresis enabled, escalation (t_SM) needs the raised-threshold
    invalidity held for the escalate debounce and the return (t_MS) the
    lowered-threshold validity held for the return debounce. ``entry``
    names the coordination subnet's entry place (the assisted escalation
    deposits the consensus token there); None leaves the assisted place
    opaque. The return from A reads the shared agreement signals, and its
    arcs come last."""
    cfg = view.config
    cfg.validate()
    invalid, ur, hyst = view.invalid, view.unrecoverable, cfg.hysteresis
    sig = lambda base: Sig(view.signal(base))
    escalate, settle = invalid, Not(invalid)
    if hyst.enabled:
        escalate = HeldFor(invalid_expr(hyst.theta_up, view.suffix), hyst.debounce_up)
        settle = HeldFor(valid_expr(hyst.theta_down, view.suffix), hyst.debounce_down)
    guards = {
        "t_SM": And((escalate, Not(ur))),
        "t_SR": ur,
        "t_MS": And((settle, Not(ur))),
        "t_MA": And((invalid, Sig(view.timeouts["M"]), Not(ur), sig("assist"))),
        "t_MR": Or((ur, And((invalid, Sig(view.timeouts["M"]), Not(sig("assist")))))),
        "t_AS": And((Not(Sig("disagree")), Sig("agree"), Not(invalid), Not(ur))),
        "t_AR": Or((ur, And((Sig("disagree"), Sig(view.timeouts["A"]))))),
        "t_RS": And((sig("ext_auth"), Not(ur))),
    }

    out, p_s = view.outputs[0], view.place("S")
    out_guard = And((Not(invalid), Not(ur))) if cfg.gating_mode == GATING_GUARDED else TRUE
    transitions = {out: TransitionRecord(out, out_guard, 0, INF, WEAK, ROLE_OUTPUT, PriorityClass.OUTPUT)}
    arcs = [Arc(p_s, out), Arc(view.want_place, out), Arc(out, p_s)]
    return_arcs = []
    for key, tid in view.mode_switches.items():
        deadline = _SWITCH_DEADLINES.get(key)
        transitions[tid] = TransitionRecord(
            tid, guards[key], 0, getattr(cfg, deadline) if deadline else INF, STRONG if deadline else WEAK,
            ROLE_MODE_SWITCH, _TARGET_PRIORITY.get(key[3], PriorityClass.ESCALATION),
        )
        moves = [Arc(view.place(key[2]), tid), Arc(tid, view.place(key[3]))]
        (return_arcs if key == "t_AS" else arcs).extend(moves)
    if entry is not None:
        arcs.append(Arc(view.switch("t_MA"), entry))
    return [*view.mode_places.values(), view.want_place], transitions, arcs + return_arcs


def _coordination_parts(mode_a_places: list[str], consensus_guards: dict[str, GuardExpr] | None = None):
    """Shared claim/check/agree/conflict machinery. Transitions only run
    while some agent's mode token is in A, so the subnet freezes (and the
    run quiesces) under regulated control.

    ``consensus_guards`` optionally supplies extra conjuncts for the
    agree / conflict verdicts (evidence and safety for a single agent;
    multi-agent verdicts are driven by the shared agreement signals only).
    """
    places = list(COORDINATION_PLACES)
    entry, claim, check, agree, conflict = places
    in_a: GuardExpr = Marked(mode_a_places[0])
    if len(mode_a_places) > 1:
        in_a = Or(tuple(Marked(p) for p in mode_a_places))
    no_disagree = Not(Sig("disagree"))
    extra = consensus_guards or {}

    def record(tid: str, guard: GuardExpr, alpha: int = 0, beta: float = 1) -> TransitionRecord:
        return TransitionRecord(tid, guard, alpha, beta, WEAK, ROLE_INTERNAL, PriorityClass.INTERNAL)

    def conj(*parts: GuardExpr) -> GuardExpr:
        terms = tuple(p for p in parts if p != TRUE)
        return terms[0] if len(terms) == 1 else And(terms)

    transitions = {
        "t_propose": record("t_propose", in_a),
        "t_verify": record("t_verify", in_a),
        "t_agree": record("t_agree", conj(no_disagree, extra.get("agree", TRUE), in_a)),
        "t_conflict": record("t_conflict", conj(Sig("disagree"), extra.get("conflict", TRUE), in_a)),
        "t_resolve": record("t_resolve", conj(no_disagree, in_a)),
        "t_Aexit": record("t_Aexit", conj(Marked(agree), in_a), alpha=1, beta=1),
    }
    arcs = [
        Arc(entry, "t_propose"), Arc("t_propose", claim),
        Arc(claim, "t_verify"), Arc("t_verify", check),
        Arc(check, "t_agree"), Arc("t_agree", agree),
        Arc(check, "t_conflict"), Arc("t_conflict", conflict),
        Arc(conflict, "t_resolve"), Arc("t_resolve", claim),
        Arc(agree, "t_Aexit"), Arc("t_Aexit", agree),
    ]
    return places, transitions, arcs


def agent_view(cfg: SmartConfig, agent_id: str | None) -> AgentView:
    """The name bindings of one agent of a built net. The agent's id decides
    its namespace: a lone agent (id None) has the bare names, any other
    agent the suffix ``_<id>``."""
    suffix = "" if agent_id is None else f"_{agent_id}"
    invalid, unrecoverable = invalid_expr(cfg.theta, suffix), unrecoverable_expr(suffix)
    return AgentView(
        agent_id=agent_id,
        suffix=suffix,
        config=cfg,
        mode_places={k: f"P_{k}{suffix}" for k in MODE_KEYS},
        mode_switches={
            key: key + suffix
            for key in ("t_SM", "t_SR", "t_MS", "t_MA", "t_MR", "t_AS", "t_AR", "t_RS")
        },
        outputs=[f"t_out{suffix}"],
        want_place=f"P_want{suffix}",
        want_signal=WANT_OUTPUT + suffix,
        timeouts={key: f"timeout_{key}{suffix}" for key in "MA"},
        claim=f"claim{suffix}",
        invalid=invalid,
        unrecoverable=unrecoverable,
        premise=And((invalid, Not(unrecoverable))),
        risk=Or((invalid, unrecoverable)),
    )


def build_single_agent(cfg: SmartConfig) -> SmartNet:
    """The reference single-agent SMART net, coordination subnet attached.

    The returns from A read the subnet's places instead of the shared
    signals: the return-to-S switch consumes both the mode token and the
    consensus token in P_agree, so a legitimate return requires recorded
    consensus, and the abort exit reads P_conflict."""
    view = agent_view(cfg, None)
    places, transitions, arcs = _macro_parts(view, entry="P_Aentry")
    ur = view.unrecoverable
    transitions["t_AS"] = transitions["t_AS"].with_guard(
        And((Marked("P_agree"), Not(Sig("disagree")), Not(view.invalid), Not(ur)))
    )
    timeout_a = Sig(view.timeouts["A"])
    transitions["t_AR"] = transitions["t_AR"].with_guard(Or((ur, And((Marked("P_conflict"), timeout_a)))))
    arcs.insert(-1, Arc("P_agree", "t_AS"))

    c_places, c_transitions, c_arcs = _coordination_parts(
        ["P_A"],
        consensus_guards={
            "agree": And((Sig("evidence"), Not(ur))),
            "conflict": Not(ur),
        },
    )
    net = Net(places + c_places, {**transitions, **c_transitions}, arcs + c_arcs, {"P_S": 1})
    return SmartNet(net, cfg, [view], c_places, cfg.gating_mode)


def build_macro_only(cfg: SmartConfig) -> SmartNet:
    """Single-agent macro level with P_A left refinable: the assisted
    state is opaque and its return guard is signal-only."""
    view = agent_view(cfg, None)
    net = Net(*_macro_parts(view, entry=None), {"P_S": 1}, refinable={"P_A"})
    return SmartNet(net, cfg, [view], [], cfg.gating_mode)


def build_multi_agent(agents: list[AgentSpec], base_config: SmartConfig | None = None) -> SmartNet:
    """Namespaced per-agent macro nets plus one shared coordination subnet.

    Agreement is a joint property: disagree / agree are shared signals and
    each agent's return-from-A guard requires resolved agreement. Each
    escalation into A deposits a consensus token into the shared subnet.
    """
    if len(agents) < 2:
        raise SmartConfigError("multi-agent build requires at least 2 agents (use build_single_agent)")
    ids = [a.agent_id for a in agents]
    if len(set(ids)) != len(ids):
        raise SmartConfigError(f"duplicate agent ids in {ids}")

    base = base_config or SmartConfig()
    views = [agent_view(spec.config or base, spec.agent_id) for spec in agents]
    places: list[str] = []
    transitions: dict[str, TransitionRecord] = {}
    arcs: list[Arc] = []
    for view in views:
        agent_places, agent_transitions, agent_arcs = _macro_parts(view, entry="P_Aentry")
        places += agent_places
        transitions.update(agent_transitions)
        arcs += agent_arcs

    c_places, c_transitions, c_arcs = _coordination_parts([view.place("A") for view in views])
    marking = {view.place("S"): 1 for view in views}
    net = Net(places + c_places, {**transitions, **c_transitions}, arcs + c_arcs, marking)
    return SmartNet(net, base, views, c_places, base.gating_mode)


# --- trigger sets ------------------------------------------------------------


@dataclass(frozen=True)
class Trigger:
    """An escalation probe: the transition it names. It fires when that
    transition fires, and its condition is that transition's guard."""

    name: str


@dataclass
class TriggerSet:
    t_m: list[Trigger]
    t_a: list[Trigger]
    t_rt: list[Trigger]
    u_risk: GuardExpr
    dwell: int = 1

    def all_triggers(self) -> list[Trigger]:
        return list(self.t_m) + list(self.t_a) + list(self.t_rt)

    def without(self, name: str) -> "TriggerSet":
        """Copy with one trigger removed (mutation fixtures)."""
        strip = lambda triggers: [t for t in triggers if t.name != name]
        return TriggerSet(strip(self.t_m), strip(self.t_a), strip(self.t_rt), self.u_risk, self.dwell)


def default_trigger_set(smart: SmartNet) -> TriggerSet:
    """The built net's own escalation transitions as the trigger set.
    Transitions absent from the net (mutation fixtures) contribute no
    trigger."""
    t_m, t_a, t_rt = [], [], []
    risk_terms: list[GuardExpr] = []
    for agent in smart.agents:
        for tier, keys in ((t_m, ("t_SM",)), (t_a, ("t_MA",)), (t_rt, ("t_SR", "t_MR", "t_AR"))):
            tier.extend(Trigger(agent.switch(key)) for key in keys if agent.switch(key) in smart.net.transitions)
        risk_terms.append(agent.risk)
    u_risk = risk_terms[0] if len(risk_terms) == 1 else Or(tuple(risk_terms))
    return TriggerSet(t_m, t_a, t_rt, u_risk, dwell=1)


# --- SMART structure validation ----------------------------------------------


def _guard_satisfiable(guard: GuardExpr, fixed: dict[str, bool]) -> bool:
    """Can any assignment to the guard's atoms (with some signals pinned)
    make it true? Atoms are treated independently, which is exact for the
    builder's guards and conservative otherwise: atom i holds under the
    assignments with bit i set."""
    atoms = list(dict.fromkeys(atoms_of(guard)))
    if len(atoms) > MAX_ATOMS:  # the patterns take n * 2^n bits
        raise GuardError(f"a guard of {len(atoms)} atoms, at most {MAX_ATOMS} can be probed")
    every = (1 << (1 << len(atoms))) - 1
    patterns = dict(zip(atoms, bit_patterns(len(atoms))))

    def atom_bits(atom: GuardExpr) -> int:
        if (name := getattr(atom, "name", None)) in fixed:
            return every if fixed[name] else 0
        return patterns[atom]

    return truth_bits(guard, atom_bits, every) != 0


def validate_smart(smart: SmartNet) -> CheckReport:
    """SMART-specific structural checks over a built or loaded net."""
    net = smart.net
    mode_places = set(smart.mode_place_ids)
    checks: list[CheckResult] = []

    # (a) outputs gated on the owning agent's P_S and no other mode place
    gate = CheckResult("output-gating")
    for agent in smart.agents:
        for tid in agent.outputs:
            if tid not in net.transitions:
                gate.witnesses.append(f"missing transition {tid}")
                continue
            pre = net.pre(tid)
            if pre.get(agent.place("S"), 0) < 1:
                gate.witnesses.append(f"{tid}: {agent.place('S')} is not a preplace")
            others = sorted(set(pre) & (mode_places - {agent.place("S")}))
            if others:
                gate.witnesses.append(f"{tid}: other mode places as preplaces: {others}")
    checks.append(gate)

    # (b) S, M, A each have a governance exit that opens under unsafety
    governance = CheckResult("governance-exits")
    for agent in smart.agents:
        # unsafe with evidence; every other signal reads False, so reals read 0.0
        unsafe = {agent.signal("evidence"): True, agent.signal("safe"): False, agent.signal("hardware_fault"): True}
        for key in ("S", "M", "A"):
            place = agent.place(key)
            marking = {p: int(p == place) for p in net.places}
            exits = [net.transitions[tid].guard for tid in net.transition_ids()
                     if net.pre(tid).get(place, 0) >= 1 and net.post(tid).get(agent.place("R"), 0) >= 1]
            if not any(eval_guard(guard, ConstantSignals({**dict.fromkeys(signal_names(guard), False), **unsafe}),
                                  marking, 0) for guard in exits):
                governance.witnesses.append(f"{place}: no unsafety-enabled exit to {agent.place('R')}")
    checks.append(governance)

    # (c) every exit from P_R requires external authorization
    absorbing = CheckResult("regulated-absorbing")
    for agent in smart.agents:
        p_r = agent.place("R")
        for tid in net.transition_ids():
            if net.pre(tid).get(p_r, 0) >= 1:
                if _guard_satisfiable(net.transitions[tid].guard, {agent.signal("ext_auth"): False}):
                    absorbing.witnesses.append(f"{tid}: can exit {p_r} without {agent.signal('ext_auth')}")
    checks.append(absorbing)

    # (d) escalation and governance transitions are strong with finite beta
    timing = CheckResult("strong-deadlines")
    for agent in smart.agents:
        for key in _SWITCH_DEADLINES:
            record = net.transitions.get(agent.switch(key))
            if record is None:
                timing.witnesses.append(f"missing transition {agent.switch(key)}")
                continue
            if record.timing != STRONG or record.beta == INF:
                timing.witnesses.append(
                    f"{record.id}: needs strong finite timing, has {record.timing} [{record.alpha}, {record.beta}]"
                )
    checks.append(timing)

    # (e) each agent starts with one mode token, and mode switches conserve it
    conserve = CheckResult("mode-token-flow")
    for agent in smart.agents:
        agent_modes = set(agent.mode_places.values())
        if (tokens := sum(net.initial_marking.get(p, 0) for p in agent_modes)) != 1:
            conserve.witnesses.append(f"initial marking: {tokens} mode tokens for agent {agent.agent_id or 'default'}")
        for tid in agent.mode_switches.values():
            if tid not in net.transitions:
                continue
            consumed = sum(w for p, w in net.pre(tid).items() if p in agent_modes)
            produced = sum(w for p, w in net.post(tid).items() if p in agent_modes)
            if (consumed, produced) != (1, 1):
                conserve.witnesses.append(f"{tid}: consumes {consumed}, produces {produced} mode tokens")
    checks.append(conserve)

    return CheckReport(checks)
