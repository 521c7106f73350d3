"""Command-line surface.

Subcommands: validate (net structure + SMART checks), simulate (run a
scenario, write trace and report), verify (monitors and formulas on a
stored or fresh trace), explore (bounded reachability + formula
verdicts), report (summary of a stored trace). Exit status: 0 all checks
pass, 1 violations, 2 inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import ExplorationConfig, check_formula, explore
from .builder import validate_smart
from .guards import GuardError
from .hierarchy import RefinementError, check_interface
from .kernel import ZenoViolation
from .net import validate_net
from .netio import NetDocumentError, net_from_document, smart_from_document, subnets_from_document
from .scenario import ScenarioError, parse_scenario, run, verify
from .trace import Trace, read_trace, write_trace

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


class _ArgumentError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 3
        raise _ArgumentError(self, message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process on the first ``main`` call;
    parsing keeps no state in it, so ``main`` may be called again."""
    parser = _Parser(prog="smart-tgpn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_validate = sub.add_parser("validate", help="check a net description file")
    p_validate.add_argument("net_file")

    p_sim = sub.add_parser("simulate", help="run a scenario, write trace and report")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--policy", choices=["earliest", "latest", "random"])
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", default="runs", help="output directory (default: runs)")

    p_verify = sub.add_parser("verify", help="run monitors/formulas only")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--trace", help="stored trace to verify instead of running fresh")

    p_explore = sub.add_parser("explore", help="bounded exploration + formula verdicts")
    p_explore.add_argument("scenario")
    p_explore.add_argument("--horizon", type=int)
    p_explore.add_argument("--cap", type=int)
    p_explore.add_argument("--export", help="write the reach graph to this file")

    p_report = sub.add_parser("report", help="summarize a stored trace")
    p_report.add_argument("trace")
    p_report.add_argument("--scenario", help="scenario file to rebind net annotations")

    return parser


def _status_code(status: str) -> int:
    return {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}[status]


def cmd_validate(args) -> int:
    with open(args.net_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    net = net_from_document(doc)
    report = validate_net(net)
    print(report.summary())
    if not report.ok:
        return EXIT_INPUT_ERROR
    status = EXIT_PASS
    if "smart" in doc:
        smart = smart_from_document(doc)
        structure = validate_smart(smart)
        print(structure.summary())
        if not structure.ok:
            status = EXIT_VIOLATION
    for name, sub, iface in subnets_from_document(doc):
        interface = check_interface(net, sub, iface)
        print(f"subnet {name}:")
        print(interface.summary())
        if not interface.ok:
            status = EXIT_VIOLATION
    return status


def cmd_simulate(args) -> int:
    scenario = parse_scenario(args.scenario)
    if args.policy:
        scenario.policy = args.policy
    if args.seed is not None:
        scenario.seed = args.seed
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    trace, report = run(scenario)

    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, scenario.name)
    write_trace(trace, base + ".trace.jsonl")
    with open(base + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(base + ".report.txt", "w", encoding="utf-8") as fh:
        fh.write(report.table() + "\n")
    print(report.table())
    print(f"trace: {base}.trace.jsonl")
    return _status_code(report.status)


def _read_trace(path: str) -> Trace:
    """read_trace, with a malformed file reported as an input error."""
    try:
        return read_trace(path)
    except KeyError as missing:
        raise ScenarioError(f"malformed trace: a record lacks the field {missing}") from None
    except ValueError as exc:  # no header, an unknown event kind, a field of the wrong type, events out of order
        raise ScenarioError(f"malformed trace: {exc}") from None


def cmd_verify(args) -> int:
    scenario = parse_scenario(args.scenario)
    if args.trace:
        report = verify(_read_trace(args.trace), scenario)
    else:
        _, report = run(scenario)
    print(report.table())
    return _status_code(report.status)


def cmd_explore(args) -> int:
    scenario = parse_scenario(args.scenario)
    section = dict(scenario.exploration or {})
    if args.horizon is not None:
        section["horizon"] = args.horizon
    if args.cap is not None:
        section["cap"] = args.cap
    if "horizon" not in section:
        raise ScenarioError("explore needs an exploration section or --horizon")
    renamed = {"branching": "weak_branching", "cap": "state_cap"}  # section key -> ExplorationConfig field
    try:
        cfg = ExplorationConfig(**{renamed.get(key, key): value for key, value in section.items()})
        graph = explore(scenario.smart, cfg)
        verdicts = [check_formula(graph, formula) for formula in scenario.formulas]
    except ValueError as exc:  # an undeclared or doubly driven alphabet signal, branching mode or formula condition
        raise ScenarioError(f"explore: {exc}") from exc
    print(f"states: {graph.state_count}  violations: {len(graph.violations)}"
          f"{'  (incomplete: state cap hit)' if graph.incomplete else ''}")
    for violation in graph.violations[:10]:
        print(f"  invariant violation at tick {violation.tick}: {violation.description}")

    for verdict in verdicts:
        print(f"  formula {verdict.formula.label():<30} {verdict.status}  {verdict.detail}")
    # a violation outranks an inconclusive verdict; a capped graph decides no pass
    statuses = {verdict.status for verdict in verdicts}
    if "violated" in statuses or graph.violations:
        code = EXIT_VIOLATION
    elif "inconclusive" in statuses or graph.incomplete:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            for line in graph.export_lines():
                fh.write(line + "\n")
        print(f"graph: {args.export}")
    return code


def cmd_report(args) -> int:
    trace = _read_trace(args.trace)
    if args.scenario:
        trace.smart = parse_scenario(args.scenario).smart
    stats = trace.stats()
    print(json.dumps(stats, indent=2, sort_keys=True))
    if trace.quiesced_at is not None:
        print(f"quiesced at t={trace.quiesced_at}")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exc.parser.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    handlers = {
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "explore": cmd_explore,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, NetDocumentError, RefinementError, ZenoViolation, GuardError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        # a Zeno net fires without end within one instant, so it has no run to check;
        # a subnet can name an interface transition that no net has;
        # a guard can have more atoms than the satisfiability probe takes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
