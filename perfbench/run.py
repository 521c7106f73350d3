"""smart-tgpn benchmark: one command, four seeded workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of explore-c01, explore-branching, simulate-long and
simulate-suite; ``all`` runs each in its own process, one after another.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.

A run sets the workload up (import, net build, input generation) several
times and keeps the median as ``setup_s``, then repeats passes of the
workload's fixed job list for S seconds (at least one pass), checking
every output against its known answer. Timings on the result line are in
``cal``, the time of ``calibrate()`` measured around each pass; the
summary lines give them in seconds too. With ``--trace 1`` the timed
passes run untraced as the reference, and one more pass runs under the
span tracer (``tracer.py``) to give the per-layer figures; spans and the
full per-layer table go to ``perfbench/out/``. ``NOTES.md`` explains the
workloads, the metrics and the known answers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 when every
output was correct, 1 when any was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, SimulateSuite  # noqa: E402

MODULES = ("analysis", "builder", "cli", "guards", "hierarchy", "kernel", "monitor", "net",
           "netio", "scenario", "signals", "trace")
SETUPS = 25

# Per-layer figures: metric prefix -> the wrapped functions it sums.
LAYER_FUNCTIONS = {
    "analysis.explore": ["analysis.explore"],
    "analysis.check_formula": ["analysis.check_formula"],
    "analysis.replay_witness": ["analysis.replay_witness"],
    "kernel.refresh_timers": ["kernel.refresh_timers"],
    "kernel.enabled": ["kernel.enabled"],
    "kernel.fire": ["kernel.fire"],
    "kernel.advance": ["kernel.advance_to_next_event"],
    "guards.eval_guard": ["guards.eval_guard"],
    "guards.eval_with_assignment": ["guards.eval_with_assignment"],
    "signals.value_at": ["signals.SignalState.value_at"],
    "monitor.bounded_autonomy": ["monitor.check_bounded_autonomy"],
    "monitor.output_gating": ["monitor.check_output_gating"],
    "monitor.mandatory_escalation": ["monitor.check_mandatory_escalation"],
    "monitor.governance_reachability": ["monitor.check_governance_reachability"],
    "monitor.distributed_soundness": ["monitor.check_distributed_soundness"],
    "monitor.formula_on_trace": ["monitor.check_formula_on_trace"],
    "monitor.trigger_set": ["monitor.check_trigger_set"],
    "trace.view": None,  # every public Trace method
    "trace.mode_timeline": ["trace.Trace.mode_timeline"],
    "trace.write": ["trace.write_trace"],
    "trace.read": ["trace.read_trace"],
    "scenario.parse": ["scenario.parse_scenario"],
    "scenario.run": ["scenario.run"],
    "scenario.verify": ["scenario.verify"],
    "builder.build": ["builder.build_single_agent", "builder.build_multi_agent", "builder.build_macro_only"],
    "cli.main": ["cli.main"],
}

# The self times every workload reaches; the others are zero on the
# workloads that never call them and are reported in the full table only.
RESULT_TIMES = ("kernel.refresh_timers.self_s", "kernel.fire.self_s", "guards.eval_guard.self_s",
                "tracing.wall_s", "tracing.untraced_wall_s", "tracing.overhead_s")


class Run:
    """Bookkeeping of one run: operation latencies, failures, counts."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = {}  # operation -> seconds, one per pass
        self.latencies_cal: dict[str, list[float]] = {}  # the same in calibration units
        self._pass_ops: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.probes: list[tuple[str, str | None]] = []  # (label, error or None)
        self.graphs: list = []  # GraphStats of every exploration
        self.totals: Counter = Counter()  # ticks simulated, trace events and bytes
        self.phases: dict[str, list[float]] = {}
        self.untimed_s = 0.0
        self.tracer: Tracer | None = None
        self._sink = io.StringIO()

    def op(self, label: str, fn):
        """Run and time one operation; an exception fails it."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        untimed = self.untimed_s
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.check(False, f"{label}: {type(exc).__name__}: {exc}")
            return None
        duration = time.perf_counter() - start - (self.untimed_s - untimed)
        self.latencies.setdefault(label, []).append(duration)
        self._pass_ops.append((label, duration))
        return result

    def close_pass(self, unit: float) -> None:
        """Express the operations of the pass just run in calibration units."""
        for label, duration in self._pass_ops:
            self.latencies_cal.setdefault(label, []).append(duration / unit)
        self._pass_ops.clear()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed_ops.add(self.attempted)
            self.failures.append(message)

    def timed(self, phase: str, fn):
        start = time.perf_counter()
        result = fn()
        self.phases.setdefault(phase, []).append(time.perf_counter() - start)
        return result

    def untimed(self, fn):
        """Run a check of the benchmark's own: excluded from timings and traces."""
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.off = True
        try:
            return fn()
        finally:
            if self.tracer is not None:
                self.tracer.off = False
            self.untimed_s += time.perf_counter() - start

    def quiet(self, fn, *args):
        """Call fn with its console output discarded."""
        try:
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
                return fn(*args)
        finally:
            self._sink.seek(0)
            self._sink.truncate()

    def probe(self, label: str, fn) -> None:
        """A known-defect probe: recorded, never timed, not an operation."""
        try:
            fn()
        except Exception as exc:
            self.probes.append((label, f"{type(exc).__name__}: {exc}"))
        else:
            self.probes.append((label, None))


def import_program():
    """Import smart_tgpn afresh from src/ and return (package, modules)."""
    for name in [m for m in sys.modules if m == "smart_tgpn" or m.startswith("smart_tgpn.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("smart_tgpn")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "smart_tgpn"):
        raise ImportError(f"smart_tgpn imported from {package.__file__}, not from {SRC}")
    return package, {name: importlib.import_module(f"smart_tgpn.{name}") for name in MODULES}


def make_workload(name: str, api, seed: int, workdir: str):
    if name == SimulateSuite.name:
        return SimulateSuite(api, seed, workdir, SCENARIOS)
    return WORKLOADS[name](api, seed, workdir)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, tuple, string and
    set work, the kind of interpreter work the program does.

    The host's speed drifts by up to a fifth over minutes, and by twice that
    for seconds at a time, as other machines' load comes and goes; the
    result-line timings are therefore divided by this loop's time, measured
    before and after every pass. Changing the loop changes every baseline.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(60_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
        if i % 7 == 0:
            frozenset(key)
    return time.perf_counter() - start


def timed_passes(workload, run: Run, seconds: float) -> tuple[list[float], list[float]]:
    """Repeat passes until the next one would end after ``seconds``; returns
    each pass's seconds and its calibration unit."""
    walls: list[float] = []
    units: list[float] = []
    calibrations = [calibrate()]
    began = time.perf_counter()
    while True:
        untimed = run.untimed_s
        start = time.perf_counter()
        workload.run_pass(run, not walls)
        walls.append(time.perf_counter() - start - (run.untimed_s - untimed))
        calibrations.append(calibrate())
        units.append((calibrations[-2] + calibrations[-1]) / 2)
        run.close_pass(units[-1])
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            return walls, units


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def end_to_end(run: Run, setups: list[float], walls: list[float], units: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """(result-line metrics, summary-only figures), name -> (value, unit,
    samples). An operation's latency is the median of its times over the
    passes, and the percentiles are taken over operations. The result line
    gives the timings in calibration units (``cal``); the summary also gives
    them in seconds."""
    per_op = [statistics.median(times) for times in run.latencies.values()]
    per_op_cal = [statistics.median(times) for times in run.latencies_cal.values()]
    wall = statistics.median(walls)
    passes = f"{len(walls)} passes"
    samples = f"{len(per_op)} operations x {len(walls)} passes"
    result = {
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} set-ups"),
        "wall_cal": (statistics.median(w / u for w, u in zip(walls, units)), "cal", passes),
        "op_p50_cal": (statistics.median(per_op_cal), "cal", samples),
        "op_tail_cal": (tail(per_op_cal), "cal", samples),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 run"),
    }
    summary = {
        "cal_ms": (statistics.median(units) * 1e3, "ms", f"{len(units)} calibrations"),
        "wall_s": (wall, "s", passes),
        "ops_per_s": (len(per_op) / wall, "1/s", samples),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms", samples),
        "op_tail_ms": (tail(per_op) * 1e3, "ms", samples),
    }
    return result, summary


def workload_figures(run: Run, walls: list[float]) -> dict:
    """The workload-specific end-to-end figures of the summary (the result
    line carries only the metrics every workload has)."""
    out = {}
    states = sum(g.states for g in run.graphs)
    if states:
        out["states_per_s"] = (states / sum(walls), "1/s", len(run.graphs))
    if run.phases.get("run"):
        out["ticks_per_s"] = (run.totals["ticks"] / sum(run.phases["run"]), "1/s", len(run.phases["run"]))
    if run.phases.get("verify"):
        out["verify_s"] = (statistics.median(run.phases["verify"]), "s", len(run.phases["verify"]))
    probes_failed = sum(1 for _, error in run.probes if error)
    out["failed_ratio"] = ((len(run.failed_ops) + probes_failed) / (run.attempted + len(run.probes)),
                           "ratio", run.attempted + len(run.probes))
    return out


def per_layer(tracer: Tracer, run: Run, traced_wall: float, untraced_wall: float,
              probes_failed: int) -> dict:
    """Every per-layer figure of one traced pass, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for prefix, names in LAYER_FUNCTIONS.items():
        if names is None:
            names = [n for n in tracer.stats if n.startswith("trace.Trace.")]
        out[prefix + ".calls"] = (sum(tracer.calls(n) for n in names), "count")
        out[prefix + ".self_s"] = (sum(tracer.self_s(n) for n in names), "s")
    fires = out["kernel.fire.calls"][0]
    advances = out["kernel.advance.calls"][0]
    advance_ids = {span[1] for span in tracer.spans if span[3] == "kernel.advance_to_next_event"}
    advance_fires = sum(1 for span in tracer.spans if span[3] == "kernel.fire" and span[2] in advance_ids)
    out["kernel.events"] = (fires, "count")
    out["kernel.events_per_advance"] = (advance_fires / advances if advances else 0.0, "ratio")
    out["guards.evals_per_event"] = (out["guards.eval_guard.calls"][0] / fires if fires else 0.0, "ratio")
    out["analysis.explore.states"] = (sum(g.states for g in run.graphs), "count")
    out["analysis.explore.state_keys"] = (sum(g.state_keys for g in run.graphs), "count")
    out["analysis.explore.layers"] = (sum(g.layers for g in run.graphs), "count")
    out["analysis.explore.states_last_layer"] = (sum(g.layer_states[-1] for g in run.graphs), "count")
    out["analysis.explore.flat_layers"] = (sum(g.flat_layers for g in run.graphs), "count")
    out["probes.failed"] = (probes_failed, "count")
    out["trace.bytes"] = (run.totals["trace.bytes"], "bytes")
    out["trace.events"] = (run.totals["trace.events"], "count")
    out["tracing.wall_s"] = (traced_wall, "s")
    out["tracing.untraced_wall_s"] = (untraced_wall, "s")
    out["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def result_layer_names(table: dict) -> list[str]:
    """The per-layer figures of the result line: every count and ratio,
    and the self times all four workloads reach."""
    return [name for name, (_, unit) in table.items() if unit != "s" or name in RESULT_TIMES]


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "smart_tgpn", "__init__.py")) or not os.path.isdir(SCENARIOS):
        print(f"error: {SRC}/smart_tgpn or {SCENARIOS} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            package, modules = import_program()
            workload = make_workload(args.workload, SimpleNamespace(**modules), args.seed, workdir)
            setups.append(time.perf_counter() - start)

        run = Run()
        walls, units = timed_passes(workload, run, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.untimed(lambda: workload.untimed_checks(run))
        for label, error in run.probes:
            print(f"# probe {label}: {'FAILED ' + error if error else 'ok'}")
        layers = traced_pass(workload, run, package, modules, walls) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"# WRONG: {failure}")
    correct = not run.failures
    if layers is None:
        metrics, summary = end_to_end(run, setups, walls, units, peak_rss_mb)
        for name, (value, unit, samples) in {**metrics, **summary, **workload_figures(run, walls)}.items():
            print(f"# {args.workload} {name} = {value:.6g} {unit} (samples: {samples})")
        result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    else:
        result = {name: {"value": layers[name][0], "unit": layers[name][1]}
                  for name in result_layer_names(layers)}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failed_ops), "metrics": result}))
    return 0 if correct else 1


def traced_pass(workload, run: Run, package, modules, walls: list[float]) -> dict:
    """One more pass under the span tracer; returns the per-layer table and
    writes it, with the spans, to perfbench/out/."""
    tracer = Tracer()
    traced = Run()
    traced.tracer = tracer
    tracer.install(package, modules)
    try:
        start = time.perf_counter()
        workload.run_pass(traced, False)
        wall = time.perf_counter() - start - traced.untimed_s
    finally:
        tracer.uninstall()
    run.failed_ops |= {i + run.attempted for i in traced.failed_ops}
    run.attempted += traced.attempted
    run.failures += traced.failures
    table = per_layer(tracer, traced, wall, statistics.median(walls),
                      sum(1 for _, error in run.probes if error))
    curves: dict = {"layer_states": {g.label: g.layer_states for g in traced.graphs}}
    for kind, curve in run.untimed(lambda: workload.scaling_curves(run)).items():
        curves.setdefault(kind, {}).update(curve)
    for name, (value, unit) in table.items():
        print(f"# {workload.name} {name} = {value:.6g} {unit}")
    for kind, curve in curves.items():
        for label, values in curve.items():
            print(f"# {workload.name} curve {kind} {label}: {values}")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{workload.name}.spans.csv"))
    with open(os.path.join(OUT, f"{workload.name}.layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": workload.seed, "layers": table, "curves": curves}, fh, indent=1, sort_keys=True)
    return table


def run_all(args) -> int:
    """Each workload in its own process; prints every summary line and a
    combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
