"""Hierarchical refinement and interface hypothesis checking.

A refinable macro place can be replaced by a subnet. The interface
contract keeps macro-level reasoning valid after refinement:

- H1 (mode-token conservation): internal subnet transitions conserve the
  token count over subnet places; the in-interface deposits exactly one
  token and the out-interface extracts exactly one.
- H2 (encapsulation): internal transitions touch only subnet places with
  their arcs. Guards may read macro state, but tokens cross the boundary
  only through the declared interface transitions.
- H3 (exit determinacy): once a designated success-exit place is marked,
  the out-interface is strongly enabled with a finite deadline, so return
  to the macro level cannot be postponed forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .net import INF, Arc, Net, STRONG, TransitionRecord


class RefinementError(ValueError):
    pass


@dataclass
class Subnet:
    """A net fragment standing for the internals of one macro place."""

    net: Net
    entry: list[str]
    exit: list[str]
    success_exit: list[str]

    def __post_init__(self) -> None:
        places = set(self.net.places)
        for group, name in ((self.entry, "entry"), (self.exit, "exit"), (self.success_exit, "success_exit")):
            missing = [p for p in group if p not in places]
            if missing:
                raise RefinementError(f"{name} places {missing} not in subnet")


@dataclass
class InterfaceSpec:
    """Interface transitions moving the mode token across the boundary.

    ``in_transition`` / ``out_transition`` name transitions in the subnet
    or in the surrounding macro net; either may be None, in which case
    macro arcs attach directly to the entry / success-exit places.
    """

    in_transition: str | None = None
    out_transition: str | None = None


@dataclass
class CheckResult:
    """One named structural check, with a witness line per failure; it
    passes exactly when it has no witness."""

    name: str
    witnesses: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.witnesses


@dataclass
class CheckReport:
    """The results of a list of structural checks (interface hypotheses
    here, the SMART structure checks in the builder)."""

    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.name}: {'pass' if c.passed else 'FAIL'}")
            lines.extend(f"  {w}" for w in c.witnesses)
        return "\n".join(lines)


class InterfaceReport(CheckReport):
    """H1, H2 and H3, in that order."""

    h1 = property(lambda self: self.checks[0])
    h2 = property(lambda self: self.checks[1])
    h3 = property(lambda self: self.checks[2])


def _qualified(prefix: str, name: str, taken: set[str]) -> str:
    return f"{prefix}.{name}" if name in taken else name


def refine(macro: Net, place: str, sub: Subnet, iface: InterfaceSpec) -> Net:
    """Replace a refinable place with a subnet, rerouting macro arcs.

    Arcs into the place reach the subnet entry (through the in-interface
    transition when one is declared); arcs out of the place leave from the
    success-exit places (through the out-interface). Subnet ids colliding
    with macro ids are qualified with the refined place's name.
    """
    if place not in macro.refinable:
        raise RefinementError(f"place {place!r} is not refinable")

    macro_names = set(macro.places) | set(macro.transitions)
    rename = {name: _qualified(place, name, macro_names) for name in sub.net.places}
    rename.update({name: _qualified(place, name, macro_names) for name in sub.net.transitions})

    places = [p for p in macro.places if p != place]
    places += [rename[p] for p in sub.net.places]
    transitions = {t: r for t, r in macro.transitions.items()}
    for tid, record in sub.net.transitions.items():
        new_id = rename[tid]
        transitions[new_id] = TransitionRecord(
            new_id, record.guard, record.alpha, record.beta, record.timing, record.role, record.priority
        )

    def resolve(name: str) -> str:
        return rename.get(name, name)

    in_tid = resolve(iface.in_transition) if iface.in_transition else None
    out_tid = resolve(iface.out_transition) if iface.out_transition else None
    for tid, label in ((in_tid, "in"), (out_tid, "out")):
        if tid is not None and tid not in transitions:
            raise RefinementError(f"interface {label} transition {tid!r} not found")

    entry = [rename[p] for p in sub.entry]
    success = [rename[p] for p in sub.success_exit]

    arcs: list[Arc] = [Arc(resolve(a.source), resolve(a.target), a.weight) for a in sub.net.arcs]
    in_vestibule = f"{place}.in"
    out_vestibule = f"{place}.out"
    used_in = used_out = False

    for arc in macro.arcs:
        if arc.target == place:
            if in_tid is not None:
                arcs.append(Arc(arc.source, in_vestibule, arc.weight))
                used_in = True
            else:
                for p in entry:
                    arcs.append(Arc(arc.source, p, arc.weight))
        elif arc.source == place:
            if out_tid is not None:
                arcs.append(Arc(out_vestibule, arc.target, arc.weight))
                used_out = True
            else:
                for p in success:
                    arcs.append(Arc(p, arc.target, arc.weight))
        else:
            arcs.append(arc)

    if used_in:
        places.append(in_vestibule)
        arcs.append(Arc(in_vestibule, in_tid))
    if used_out:
        places.append(out_vestibule)
        arcs.append(Arc(out_tid, out_vestibule))

    marking = {p: c for p, c in macro.initial_marking.items() if p != place}
    for p, c in sub.net.initial_marking.items():
        marking[rename[p]] = c
    if macro.initial_marking.get(place, 0):
        marking[entry[0]] = marking.get(entry[0], 0) + macro.initial_marking[place]

    refinable = (macro.refinable - {place}) | {rename[p] for p in sub.net.refinable}
    return Net(places, transitions, arcs, marking, refinable)


def _boundary_flow(net: Net, tid: str, subnet_places: set[str]) -> int:
    """Net token flow of one transition into the subnet's places."""
    produced = sum(w for p, w in net.post(tid).items() if p in subnet_places)
    consumed = sum(w for p, w in net.pre(tid).items() if p in subnet_places)
    return produced - consumed


def check_interface(macro: Net | None, sub: Subnet, iface: InterfaceSpec) -> InterfaceReport:
    """Verify H1-H3 for a subnet against its interface description.

    Interface transitions are looked up in the subnet first, then in the
    macro net (they are macro transitions in shell-style compositions).
    """
    subnet_places = set(sub.net.places)

    def lookup(tid: str | None) -> tuple[Net, TransitionRecord] | None:
        if tid is None:
            return None
        if tid in sub.net.transitions:
            return sub.net, sub.net.transitions[tid]
        if macro is not None and tid in macro.transitions:
            return macro, macro.transitions[tid]
        raise RefinementError(f"interface transition {tid!r} not found")

    internal = [t for t in sub.net.transition_ids() if t not in (iface.in_transition, iface.out_transition)]

    # H1: conservation of the mode token while inside the subnet
    h1 = CheckResult("H1 mode-token conservation")
    for tid in internal:
        flow = _boundary_flow(sub.net, tid, subnet_places)
        if flow != 0:
            h1.witnesses.append(f"{tid}: net flow {flow:+d} into subnet places (expected 0)")
    in_entry, out_entry = lookup(iface.in_transition), lookup(iface.out_transition)
    for entry, tid, expected, verb in ((in_entry, iface.in_transition, 1, "deposits"),
                                       (out_entry, iface.out_transition, -1, "extracts")):
        if entry is not None and (flow := _boundary_flow(entry[0], tid, subnet_places)) != expected:
            h1.witnesses.append(f"{tid}: {verb} {flow:+d} tokens (expected {expected:+d})")

    # H2: internal arcs stay inside the subnet (checked against the
    # composed net when available, which holds the full arc picture)
    h2 = CheckResult("H2 encapsulation")
    for tid in internal:
        net_of = macro if (macro is not None and tid in macro.transitions) else sub.net
        touched = set(net_of.pre(tid)) | set(net_of.post(tid))
        outside = sorted(touched - subnet_places)
        if outside:
            h2.witnesses.append(f"{tid}: arcs touch non-subnet places {outside}")

    # H3: marked success exit strongly enables the out interface
    h3 = CheckResult("H3 exit determinacy")
    if out_entry is None:
        h3.witnesses.append("no out interface transition declared")
    else:
        net_of, record = out_entry
        if record.timing != STRONG or record.beta == INF:
            h3.witnesses.append(
                f"{iface.out_transition}: needs strong timing with finite beta, "
                f"has {record.timing} [{record.alpha}, {record.beta}]"
            )
        inputs_inside = {p for p in net_of.pre(iface.out_transition) if p in subnet_places}
        if inputs_inside != set(sub.success_exit):
            h3.witnesses.append(
                f"{iface.out_transition}: subnet inputs {sorted(inputs_inside)} "
                f"!= success exits {sorted(sub.success_exit)}"
            )
        for p in inputs_inside:
            if net_of.pre(iface.out_transition)[p] != 1:
                h3.witnesses.append(f"{iface.out_transition}: weight on {p} must be 1")

    return InterfaceReport([h1, h2, h3])
