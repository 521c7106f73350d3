"""Net description files (JSON).

Top-level keys: places[], transitions[] (id, guard expression string,
interval [alpha, beta] with an "inf" sentinel, timing, role, optional
priority), arcs[] (from, to, weight), initial_marking{}, refinable[].
Optional sections: subnets[] (hierarchical fragments with entry / exit /
success_exit places and interface transition names) and smart{} (the
base config and each agent's id and config, which a builder wrote,
letting a loaded net drive the SMART monitors and structure checks).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import Any

from .builder import COORDINATION_PLACES, Hysteresis, SmartConfig, SmartNet, agent_view
from .guards import guard_to_string, parse_guard
from .hierarchy import InterfaceSpec, Subnet
from .net import Arc, INF, Net, PriorityClass, TransitionRecord


class NetDocumentError(ValueError):
    pass


@contextmanager
def _reading(what: str):
    """Report a missing field, or a field of the wrong type, of ``what`` as
    a NetDocumentError."""
    try:
        yield
    except NetDocumentError:
        raise
    except KeyError as missing:  # a document, section or entry lacks a field
        raise NetDocumentError(f"{what} lacks required key {missing}") from None
    except (TypeError, AttributeError, ValueError) as exc:  # a field of the wrong type
        raise NetDocumentError(f"malformed {what}: {exc}") from None


def _interval_out(alpha: int, beta: float) -> list:
    return [alpha, "inf" if beta == INF else int(beta)]


def _integer(value: Any, what: str) -> int:
    if type(value) is not int:  # a float, a bool or a string is refused, not rounded
        raise NetDocumentError(f"{what} must be an integer, got {value!r}")
    return value


def _interval_in(raw: Any, where: str) -> tuple[int, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise NetDocumentError(f"{where}: interval must be [alpha, beta]")
    return _integer(raw[0], f"{where}: alpha"), INF if raw[1] == "inf" else _integer(raw[1], f"{where}: beta")


def net_to_document(net: Net) -> dict:
    return {
        "places": list(net.places),
        "transitions": [
            {
                "id": tid,
                "guard": guard_to_string(record.guard),
                "interval": _interval_out(record.alpha, record.beta),
                "timing": record.timing,
                "role": record.role,
                "priority": record.priority.name.lower(),
            }
            for tid, record in sorted(net.transitions.items())
        ],
        "arcs": [
            {"from": arc.source, "to": arc.target, "weight": arc.weight} for arc in net.arcs
        ],
        "initial_marking": {p: c for p, c in sorted(net.initial_marking.items()) if c},
        "refinable": sorted(net.refinable),
    }


def net_from_document(doc: dict) -> Net:
    """The net a document describes. A missing field or a field of the
    wrong type raises NetDocumentError."""
    with _reading("net document"):
        places = list(doc["places"])
        transitions = {}
        for raw in doc["transitions"]:
            tid = raw["id"]
            alpha, beta = _interval_in(raw.get("interval", [0, "inf"]), tid)
            priority = None
            if "priority" in raw:
                name = raw["priority"].upper().replace("-", "_")
                if name not in PriorityClass.__members__:
                    raise NetDocumentError(f"{tid}: unknown priority {raw['priority']!r}")
                priority = PriorityClass[name]
            transitions[tid] = TransitionRecord(
                tid,
                parse_guard(raw.get("guard", "true")),
                alpha,
                beta,
                raw.get("timing", "weak"),
                raw.get("role", "internal"),
                priority,
            )
        arcs = [Arc(raw["from"], raw["to"], _integer(raw.get("weight", 1), "arc weight")) for raw in doc["arcs"]]
        return Net(
            places,
            transitions,
            arcs,
            {p: _integer(c, f"initial marking of {p}") for p, c in doc.get("initial_marking", {}).items()},
            set(doc.get("refinable", [])),
        )


def subnets_from_document(doc: dict) -> list[tuple[str, Subnet, InterfaceSpec]]:
    """(name, fragment, interface) of each subnets[] entry. A section or an
    entry of the wrong type raises NetDocumentError."""
    with _reading("subnets section"):
        return [subnet_from_document(raw) for raw in doc.get("subnets", [])]


def subnet_from_document(doc: dict) -> tuple[str, Subnet, InterfaceSpec]:
    """One subnets[] entry; a place list or an interface transition of the
    wrong type raises TypeError."""
    places = {key: doc.get(key, []) for key in ("entry", "exit", "success_exit")}
    for key, value in places.items():
        if not isinstance(value, list) or not all(isinstance(place, str) for place in value):
            raise TypeError(f"{key} must be a list of place names, got {value!r}")
    transitions = {key: doc.get(key) for key in ("in_transition", "out_transition")}
    for key, value in transitions.items():
        if not (value is None or isinstance(value, str)):
            raise TypeError(f"{key} must be a transition id or null, got {value!r}")
    return doc.get("name", "subnet"), Subnet(net=net_from_document(doc), **places), InterfaceSpec(**transitions)


def _refuse_unknown(section: dict, known: set[str], where: str) -> None:
    """Refuse a key of ``section`` that its reader does not read."""
    unknown = sorted(set(section) - known)
    if unknown:
        raise NetDocumentError(f"unknown {where} keys: {unknown}")


def config_from_document(doc: dict) -> SmartConfig:
    """The config a document describes; an invalid one raises SmartConfigError."""
    hyst = doc.get("hysteresis", {})
    _refuse_unknown(doc, {f.name for f in fields(SmartConfig)}, "config")
    _refuse_unknown(hyst, {f.name for f in fields(Hysteresis)}, "config.hysteresis")
    config = SmartConfig(
        **{k: v for k, v in doc.items() if k != "hysteresis"},
        hysteresis=Hysteresis(**hyst) if hyst else Hysteresis(),
    )
    config.validate()
    return config


def smart_to_document(smart: SmartNet) -> dict:
    doc = net_to_document(smart.net)
    doc["smart"] = {
        "config": asdict(smart.config),
        "agents": [{"id": view.agent_id, "config": asdict(view.config)} for view in smart.agents],
    }
    return doc


def smart_from_document(doc: dict) -> SmartNet:
    """The SMART net a document describes. Its smart{} section states the
    base config and each agent's id and config, nothing derived: an
    agent's names follow from its id (``agent_view``), the gating mode
    from the base config and the coordination places from the net's
    places. A missing, wrong-typed or unknown field, in the net or in its
    smart{} section, an agent whose places the net lacks, or one whose mode
    places do not hold one token between them, raises NetDocumentError."""
    net = net_from_document(doc)
    meta = doc.get("smart")
    if meta is None:
        raise NetDocumentError("net document has no smart{} annotations")
    with _reading("smart section"):
        agents = []
        for raw in meta["agents"]:
            config, agent_id = config_from_document(raw["config"]), raw.get("id")
            _refuse_unknown(raw, {"id", "config"}, "smart agent")
            if not (agent_id is None or isinstance(agent_id, str)):
                raise NetDocumentError(f"agent id must be a string or null, got {agent_id!r}")
            if any(agent.agent_id == agent_id for agent in agents):
                raise NetDocumentError(f"agent id {agent_id!r} repeats")
            view = agent_view(config, agent_id)
            missing = [p for p in [*view.mode_places.values(), view.want_place] if p not in net.places]
            if missing:
                raise NetDocumentError(f"agent {agent_id!r}: the net lacks its places {missing}")
            if (tokens := sum(net.initial_marking[p] for p in view.mode_places.values())) != 1:
                raise NetDocumentError(f"agent {agent_id!r}: its mode places hold {tokens} tokens, not one")
            agents.append(view)
        config = config_from_document(meta["config"])
        _refuse_unknown(meta, {"config", "agents"}, "smart")
        if not agents:
            raise NetDocumentError("smart section lists no agents")
        return SmartNet(net, config, agents, [p for p in COORDINATION_PLACES if p in net.places],
                        config.gating_mode)


def load_smart(path: str) -> SmartNet:
    with open(path, encoding="utf-8") as fh:
        return smart_from_document(json.load(fh))


def save_net(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_document(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_smart(smart: SmartNet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(smart_to_document(smart), fh, indent=2, sort_keys=True)
        fh.write("\n")
