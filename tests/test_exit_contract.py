"""The CLI's exit contract holds for malformed input: every run exits 0
(pass), 1 (violations), 2 (inconclusive) or 3 (input error), and none ends
in a traceback.

The property mutates one field of a known-good document, replacing its
value by one of another JSON type, and runs the result through the
subcommands that read that document, in process. The documents are every
`scenarios/*.scenario.json`, one scenario with an `exploration` section,
the single- and two-agent net documents, and the stored traces of two
scenarios, each verified against its own scenario. A second property
keeps each field's type and replaces its value by an edge value of that
type, in the two net documents, through validate, simulate and explore,
and in the two stored traces, through verify and report.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smart_tgpn.builder import AgentSpec, SmartConfig, build_multi_agent, build_single_agent
from smart_tgpn.cli import main
from smart_tgpn.netio import smart_to_document

SCENARIOS = Path(__file__).parent.parent / "scenarios"
ESCALATION = SCENARIOS / "robot-escalation.scenario.json"
EXPLORATION = {"horizon": 3, "alphabet": ["anom", "evidence"], "flip_budget": 1, "cap": 100_000}
# net document name -> (its net, the signal its scenario scripts)
NETS = {
    "single": (lambda: build_single_agent(SmartConfig()), "anom"),
    "two-agent": (lambda: build_multi_agent([AgentSpec("a1", SmartConfig()), AgentSpec("a2", SmartConfig())]),
                  "anom_a1"),
}
TRACES = ("robot-escalation", "robot-consensus-conflict")  # scenarios whose stored traces are documents

# one value of each JSON type, with the edge cases of the numbers
REPLACEMENTS = [None, True, False, 0, -1, 7, 2.5, "", "x", "inf", [], [0], ["x"], {}, {"x": 0}]


@functools.cache
def _documents() -> dict[str, object]:
    """name -> a known-good document; the name says which commands read it."""
    docs: dict[str, object] = {f"scenario:{p.name}": json.loads(p.read_text())
                               for p in sorted(SCENARIOS.glob("*.scenario.json"))}
    docs["exploration"] = {**json.loads(ESCALATION.read_text()), "exploration": EXPLORATION}
    for name, (build, _) in NETS.items():
        docs[f"net:{name}"] = smart_to_document(build())
    with tempfile.TemporaryDirectory() as out:
        for name in TRACES:
            assert _run(["simulate", str(SCENARIOS / f"{name}.scenario.json"), "--out", out])[0] == 0
            lines = (Path(out) / f"{name}.trace.jsonl").read_text().splitlines()
            docs[f"trace:{name}"] = [json.loads(line) for line in lines]  # header first
    return docs


def _fields(node, path=()):
    """The path of every field under ``node``: each dict value and list item."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _commands(name: str, doc, tmp: Path) -> list[list[str]]:
    """Write ``doc`` under ``tmp``; the command lines that read it."""
    out = ["--out", str(tmp / "runs")]
    kind, _, which = name.partition(":")
    if kind == "trace":
        path = tmp / "x.trace.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in doc))
        return [["verify", str(SCENARIOS / f"{which}.scenario.json"), "--trace", str(path)], ["report", str(path)]]
    if kind == "net":
        (tmp / "x.net.json").write_text(json.dumps(doc))
        (tmp / "x.scenario.json").write_text(json.dumps(
            {"name": "net", "net": {"file": "x.net.json"}, "horizon": 8, "script": [[1, NETS[which][1], 1]],
             "exploration": {"horizon": 3, "alphabet": ["anom"]}}))
        return [["validate", str(tmp / "x.net.json")], ["simulate", str(tmp / "x.scenario.json"), *out],
                ["explore", str(tmp / "x.scenario.json")]]
    path = tmp / "x.scenario.json"
    path.write_text(json.dumps(doc))
    if name == "exploration":
        return [["explore", str(path)]]
    return [["simulate", str(path), *out], ["verify", str(path)]]


@st.composite
def mutations(draw):
    """(document name, document with one field's value replaced by one of
    another type)."""
    docs = _documents()
    name = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    path = draw(st.sampled_from(list(_fields(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = draw(st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(old)]))
    return name, doc


# about 33 examples for each of the 17 documents
@settings(derandomize=True, max_examples=567, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutations())
def test_a_single_field_type_mutation_exits_by_the_contract(mutation):
    name, doc = mutation
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _commands(name, doc, Path(tmp)):
            assert _run(argv)[0] in (0, 1, 2, 3), argv


def _type_keeping(key, value) -> list:
    """The replacements of one field's value that keep its JSON type: an
    agent id naming no agent of the net, a flipped bool, 0 and -1, "" and
    " ", an empty and a repeated list, an empty object."""
    if key == "id":
        return ["zz", "", " "]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [type(value)(0), type(value)(-1)]
    if isinstance(value, str):
        return ["", " "]
    if isinstance(value, list):
        return [[], value + value]
    return [{}] if isinstance(value, dict) else []


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _type_keeping_mutations() -> list[tuple[str, tuple, object]]:
    """(net document name, field path, new value) of every type-keeping
    mutation of the net documents, but only every 8th of those in
    ``transitions`` and ``arcs``, whose entries repeat one shape."""
    found = []
    for name in NETS:
        doc = _documents()[f"net:{name}"]
        found += [(name, path, value) for path in _fields(doc) for value in _type_keeping(path[-1], _at(doc, path))]
    return [m for i, m in enumerate(found) if m[1][0] not in ("transitions", "arcs") or i % 8 == 0]


def test_a_type_keeping_net_mutation_exits_by_the_contract(tmp_path):
    """Each mutation runs through validate, simulate (as the scenario's
    net.file) and explore. Each run ends with a documented exit code,
    never a traceback, and writes at most one line to stderr, an 'error: '
    line (validate reports a structural error on stdout)."""
    assert [f for name, path, value in _type_keeping_mutations()
            for f in _contract_breaches(f"net:{name}", path, value, tmp_path)] == []


def _contract_breaches(name: str, path: tuple, value, tmp: Path) -> list[tuple]:
    """Each run of the document with the field at ``path`` set to ``value``
    that ends with an undocumented exit code, a traceback, or more on
    stderr than one 'error: ' line (validate reports a structural error on
    stdout); none when all runs keep the contract."""
    doc = copy.deepcopy(_documents()[name])
    _at(doc, path[:-1])[path[-1]] = value
    failures = []
    for argv in _commands(name, doc, tmp):
        code, err = _run(argv)
        if code not in (0, 1, 2, 3) or err.count("\n") > 1 or err and not err.startswith("error: "):
            failures.append((name, path, value, argv[0], code, err))
    return failures


@pytest.mark.parametrize("trace", TRACES)
def test_a_type_keeping_trace_mutation_exits_by_the_contract(tmp_path, trace):
    """Every type-keeping mutation of a stored trace, its header and each
    record, through verify --trace (against its own scenario) and report."""
    doc = _documents()[f"trace:{trace}"]
    mutations = [(path, value) for path in _fields(doc) for value in _type_keeping(path[-1], _at(doc, path))]
    assert {path[0] for path, _ in mutations} == set(range(len(doc)))
    assert [f for path, value in mutations for f in _contract_breaches(f"trace:{trace}", path, value, tmp_path)] == []


# a smart{} section of the two-agent document that the loader cannot bind: a
# key older documents carried (an agent's suffix, the net's gating mode and
# coordination places), an id naming no agent of the net, no agent, or each agent twice
UNBOUND = {
    "suffix-empty": lambda smart: smart["agents"][0].update(suffix=""),
    "suffix-zz": lambda smart: smart["agents"][0].update(suffix="_zz"),
    "suffix-as-derived": lambda smart: smart["agents"][0].update(suffix="_a1"),
    "gating_mode": lambda smart: smart.update(gating_mode="structural+guarded"),
    "coordination_places": lambda smart: smart.update(coordination_places=[]),
    "agent-id-zz": lambda smart: smart["agents"][0].update(id="zz"),
    "no-agents": lambda smart: smart.update(agents=[]),
    "agents-repeated": lambda smart: smart.update(agents=smart["agents"] * 2),
}


@pytest.mark.parametrize("defect", sorted(UNBOUND))
def test_a_smart_section_the_loader_cannot_bind_is_input_error(tmp_path, defect):
    doc = copy.deepcopy(_documents()["net:two-agent"])
    UNBOUND[defect](doc["smart"])
    for argv in _commands("net:two-agent", doc, tmp_path):
        code, err = _run(argv)
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, (argv[0], code, err)


# name -> (a defect of the single-agent net document that validates the
# document's fields but not its run, words of the error)
NET_DEFECTS = {
    "guard-on-a-missing-place": (lambda doc: doc["places"].remove("P_conflict"), "'P_conflict'"),
    "zeno-self-loop": (lambda doc: (doc["transitions"].append({"id": "spin", "interval": [0, 0]}),
                                    doc["arcs"].extend([{"from": "P_S", "to": "spin"}, {"from": "spin", "to": "P_S"}])),
                       "Zeno net"),
}


@pytest.mark.parametrize("defect", sorted(NET_DEFECTS))
def test_running_a_defective_net_document_is_input_error(tmp_path, capsys, defect):
    spoil, words = NET_DEFECTS[defect]
    doc = smart_to_document(build_single_agent(SmartConfig()))
    spoil(doc)
    simulate = _commands("net:single", doc, tmp_path)[1]
    assert main(simulate) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and words in err


def test_exploring_a_zeno_net_is_input_error(tmp_path, capsys):
    """The explorer's earliest-only cascade stops an instantaneous cycle at
    the Zeno limit, which the CLI reports as an input error."""
    doc = smart_to_document(build_single_agent(SmartConfig()))
    NET_DEFECTS["zeno-self-loop"][0](doc)
    (tmp_path / "x.net.json").write_text(json.dumps(doc))
    (tmp_path / "x.scenario.json").write_text(json.dumps(
        {"name": "zeno", "net": {"file": "x.net.json"}, "horizon": 1, "exploration": {"horizon": 1}}))
    assert main(["explore", str(tmp_path / "x.scenario.json")]) == 3
    assert "Zeno net" in capsys.readouterr().err
