"""The four benchmark workloads: seeded inputs, operations and known answers.

Every workload is a closed loop with one caller. Its inputs are made once
per run from the seed (set-up); a *pass* then runs a fixed list of
operations over them, and the loop in ``run.py`` repeats passes
for the requested time. A pass does the same work on every repetition, so
later passes double as the determinism check of the first.

The seed never changes what a workload measures, only its concrete
inputs: the explore workloads permute the alphabet and the job order
(the reachable state space is the same for any order, so the known state
counts hold for every seed), and the simulate workloads draw their signal
scripts from it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

ALPHABET8 = ["anom", "evidence", "safe", "hardware_fault", "assist", "ext_auth", "disagree", "agree"]

# Known answers of the current explorer: states per tick of the ROADMAP c01
# exploration (8-signal alphabet, earliest-only) to horizon 20, which sum
# to 143,268 and 97,846 states.
C01_LAYERS = {
    "single": [256, 544, 832, 1120, 1408, 1444, 2124, 2996, 4060, 5028, 5924, 6116, 6184,
               7304, 8992, 11040, 12920, 14744, 15864, 16264, 18104],
    "double": [256, 544, 832, 1120, 1408, 1444, 1928, 2608, 3288, 3956, 4564, 4660, 4708,
               5420, 6426, 7432, 8420, 9332, 9476, 9542, 10482],
}
C01_HORIZON = 20
BRANCHING_STATES = 14_952  # single agent, 7 signals, all-branching, horizon 7


class WorkloadError(RuntimeError):
    """A set-up step that cannot produce valid inputs."""


@dataclass
class GraphStats:
    """What one exploration produced, read from the returned graph."""

    label: str
    states: int
    state_keys: int
    layers: int
    layer_states: list[int]
    flat_layers: int

    @classmethod
    def of(cls, label: str, graph, run) -> "GraphStats":
        """Record the graph in ``run`` and check the explorer's invariants:
        no violation (mode-token sums included) and no state cap hit."""
        layer_states = [sum(len(v) for v in layer.values()) for layer in graph.layers]
        # a layer is flat when it equals its predecessor as a key -> vectors map,
        # the condition ROADMAP item 2's fixpoint needs
        flat = sum(1 for prev, cur in zip(graph.layers, graph.layers[1:]) if prev == cur)
        stats = cls(label, graph.state_count, len(graph._explorer.key_table), len(graph.layers),
                    layer_states, flat)
        run.graphs.append(stats)
        run.check(not graph.violations, f"{label}: {len(graph.violations)} invariant violations")
        run.check(not graph.incomplete, f"{label}: graph marked incomplete")
        return stats


class Workload:
    """Base: the constructor makes the inputs (the set-up that ``setup_s``
    times), ``run_pass`` runs one pass over them."""

    name = ""

    def __init__(self, api, seed: int, workdir: str):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def run_pass(self, run, first: bool) -> None:
        raise NotImplementedError

    def untimed_checks(self, run) -> None:
        """Checks that must run once per run but stay out of the timing."""

    def scaling_curves(self, run) -> dict:
        """Extra measurements of the traced run, kind -> label -> values."""
        return {}


# --- explore-wide --------------------------------------------------------------


class ExploreWide(Workload):
    """The ROADMAP c01 exploration cut to horizon 7: single- and two-agent
    nets, 8-signal alphabet (256 vectors per tick), earliest-only.

    At horizon 20 one pass is a single 20-second computation, and its time
    follows the machine's speed swings; at horizon 7 a run repeats the pass
    often enough for per-operation medians. The traced run still explores
    the full c01 once, untimed, to check the baseline and record its curve.
    """

    name = "explore-wide"
    HORIZON = 7

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        b = api.builder
        self.alphabet = list(ALPHABET8)
        self.rng.shuffle(self.alphabet)
        self.jobs = [
            ("single", b.build_single_agent(b.SmartConfig())),
            ("double", b.build_multi_agent([b.AgentSpec("a1"), b.AgentSpec("a2")])),
        ]
        self.rng.shuffle(self.jobs)

    def run_pass(self, run, first):
        for label, net in self.jobs:
            run.op(f"explore {label}", lambda: self._explore(run, label, net, self.HORIZON))

    def _explore(self, run, label, net, horizon):
        cfg = self.api.analysis.ExplorationConfig(horizon=horizon, alphabet=self.alphabet)
        stats = GraphStats.of(f"{label}-h{horizon}", self.api.analysis.explore(net, cfg), run)
        expected = C01_LAYERS[label][: horizon + 1]
        run.check(stats.layer_states == expected,
                  f"{label} to horizon {horizon}: states per tick {stats.layer_states}, expected {expected}")
        return stats

    def scaling_curves(self, run) -> dict:
        """The full c01 exploration, for its per-tick state counts."""
        curves = {}
        for label, net in self.jobs:
            stats = self._explore(run, label, net, C01_HORIZON)
            curves[f"c01-{label}"] = stats.layer_states
        return {"layer_states": curves}


# --- explore-branching ---------------------------------------------------------


class ExploreBranching(Workload):
    """All-branching exploration of the single-agent net (7 signals,
    horizon 7) with the four formula schemas, the c02 exact-bound check,
    the c10 deleted-t_SM mutant with witness replay, and a two-agent
    all-branching probe of a known explorer defect."""

    name = "explore-branching"

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        a, b, g = api.analysis, api.builder, api.guards
        self.single = b.build_single_agent(b.SmartConfig())
        agent, cfg = self.single.agents[0], self.single.config
        alphabet7 = ALPHABET8[:7]
        self.rng.shuffle(alphabet7)
        self.alphabet4 = ALPHABET8[:4]
        self.rng.shuffle(self.alphabet4)
        self.branching = a.ExplorationConfig(horizon=7, alphabet=alphabet7, weak_branching=a.BRANCH_ALL)
        self.anchor = g.And((agent.invalid, g.Not(agent.unrecoverable), g.Marked("P_S")))
        # (formula, verdict the current checker gives on the 7-signal graph).
        # Bounded response at delta_s and reach within the governance bound
        # are inconclusive, not holds: anchor keys first appear up to the last
        # tick, so horizon 7 leaves them too few ticks (at horizon 12 reach
        # holds and bounded response is still inconclusive). One tick less
        # than delta_s is already violated at tick 0.
        self.formulas = [
            (a.Formula("safety", g.Not(agent.unrecoverable), forbidden=("t_SR",), name="governance-only-under-UR"), "holds"),
            (a.Formula("safety", agent.invalid, forbidden=("output",), name="output-gating"), "holds"),
            (a.Formula("bounded-response", self.anchor, place="P_M", within=cfg.delta_s, name="autonomy-at-delta_s"), "inconclusive"),
            (a.Formula("bounded-response", self.anchor, place="P_M", within=cfg.delta_s - 1, name="autonomy-at-delta_s-1"), "violated"),
            (a.Formula("reach", agent.unrecoverable, place="P_R", within=cfg.governance_bound, name="governance-reach"), "inconclusive"),
            (a.Formula("never-while", g.Not(g.Sig("ext_auth")), place="P_S", from_places=("P_R",), name="regulated-absorbing"), "holds"),
        ]
        self.rng.shuffle(self.formulas)
        mutant_net = api.net.drop_transition(self.single.net, "t_SM")
        self.mutant = b.SmartNet(mutant_net, self.single.config, self.single.agents,
                                 self.single.coordination_places, self.single.gating_mode)
        self.double = b.build_multi_agent([b.AgentSpec("a1"), b.AgentSpec("a2")])

    def run_pass(self, run, first):
        a = self.api.analysis
        graph = run.op("explore all-branching", lambda: a.explore(self.single, self.branching))
        if graph is not None:
            GraphStats.of("single-7sig-all", graph, run)
            run.check(graph.state_count == BRANCHING_STATES,
                      f"branching: {graph.state_count} states, expected {BRANCHING_STATES}")
            verdicts = run.op("formula schemas", lambda: [a.check_formula(graph, f) for f, _ in self.formulas])
            for (formula, expected), verdict in zip(self.formulas, verdicts or []):
                run.check(verdict.status == expected, f"{formula.name}: {verdict.status}, expected {expected}")
            del graph
        run.op("c02 bound and c10 replay", lambda: self._small_checks(run))

    def _small_checks(self, run):
        """c02: the exact bound on the 4-signal all-branching graph. c10: the
        deleted-t_SM mutant's counterexample replays event for event."""
        a = self.api.analysis
        delta_s = self.single.config.delta_s
        small = a.explore(self.single, a.ExplorationConfig(
            horizon=8, alphabet=self.alphabet4, weak_branching=a.BRANCH_ALL))
        GraphStats.of("single-4sig-all", small, run)
        for within, expected in ((delta_s, "holds"), (delta_s - 1, "violated")):
            verdict = a.check_formula(small, a.Formula("bounded-response", self.anchor, place="P_M", within=within))
            run.check(verdict.status == expected, f"c02 bound within {within}: {verdict.status}, expected {expected}")

        graph = a.explore(self.mutant, a.ExplorationConfig(horizon=8, alphabet=self.alphabet4))
        GraphStats.of("mutant-4sig", graph, run)
        verdict = a.check_formula(graph, a.Formula("bounded-response", self.anchor, place="P_M", within=delta_s))
        run.check(verdict.status == "violated", f"c10 mutant: {verdict.status}, expected violated")
        if verdict.witness:
            replayed = a.replay_witness(graph, verdict.witness)
            run.check([(s["tick"], s["firings"]) for s in verdict.witness] == replayed,
                      "c10 mutant: witness does not replay event for event")

    def untimed_checks(self, run):
        # Known defect: in _cascade_all one branch's derived timeout values
        # leak into the shared signal map its sibling branches read, so any
        # two-agent all-branching exploration raises NotEnabled at tick 0.
        # The probe counts as failed until that is fixed; it is never timed.
        a = self.api.analysis

        def probe():
            graph = a.explore(self.double, a.ExplorationConfig(
                horizon=6, alphabet=self.alphabet4, weak_branching=a.BRANCH_ALL))
            if graph.violations or graph.incomplete:
                raise AssertionError(f"{len(graph.violations)} violations, incomplete={graph.incomplete}")

        run.probe("two-agent all-branching (4 signals, horizon 6)", probe)


# --- simulate-long -------------------------------------------------------------


def _toggles(rng: random.Random, horizon: int, count: int, start: int = 1) -> list[int]:
    """Sorted distinct change times in [start, horizon]."""
    span = range(start, horizon + 1)
    return sorted(rng.sample(span, min(count, len(span))))


def _alternate(name: str, times: list[int], initial: bool) -> list[list]:
    value, out = initial, []
    for t in times:
        value = not value
        out.append([t, name, int(value)])
    return out


def footnote_script(rng: random.Random, horizon: int) -> list[list]:
    """ROADMAP footnote 1 with seeded jitter: every 7 ticks an anomaly of
    3-4 ticks and, one tick later, an evidence loss of 3-4 ticks; an
    output attempt every 5 ticks from tick 2."""
    script = []
    for base in range(1, horizon - 8, 7):
        t = base + rng.randint(0, 1)
        anom_len, loss_len = 3 + rng.randint(0, 1), 3 + rng.randint(0, 1)
        script += [[t, "anom", 1], [t + anom_len, "anom", 0],
                   [t + 1, "evidence", 0], [t + 1 + loss_len, "evidence", 1]]
    script += [[t, "want_output", 1] for t in range(2, horizon + 1, 5)]
    return script


EPISODES = ("disagree", "agree", "local", "unsafe")


def two_agent_script(rng: random.Random, horizon: int) -> list[list]:
    """Thirty-tick episodes, each kind once per block of four in seeded order:

    - disagree: both agents stay invalid long enough to escalate to
      assistance, the consensus subnet sees the conflict and both go to
      governance while still at risk;
    - agree: both escalate to assistance and the agreement returns them;
    - local: short anomalies, recovered locally;
    - unsafe: one agent loses safety (straight to governance), the other
      has a short anomaly.

    Start offsets and lengths are jittered; authorization follows every
    episode. The fixed mix keeps the amount of work the same for every seed.
    """
    script: list[list] = []
    agreement: list[tuple[int, bool]] = []
    plan: list[str] = []
    t = 2
    while t + 30 < horizon:
        if not plan:
            plan = list(EPISODES)
            rng.shuffle(plan)
        kind = plan.pop()
        unsafe_agent = rng.choice(("a1", "a2"))
        for agent in ("a1", "a2"):
            start = t + rng.randint(0, 2)
            if kind == "unsafe" and agent == unsafe_agent:
                script += [[start, f"safe_{agent}", 0], [start + 3, f"safe_{agent}", 1]]
            else:
                end = {"disagree": t + 20, "agree": start + rng.choice((9, 11))}.get(kind, start + rng.choice((3, 4)))
                script += [[start, f"anom_{agent}", 1], [end, f"anom_{agent}", 0]]
            script.append([start + 1, f"want_output_{agent}", 1])
            script += [[t + 22, f"ext_auth_{agent}", 1], [t + 24, f"ext_auth_{agent}", 0]]
        agreement += [(t + 8, kind == "disagree"), (t + 21, False)]
        t += 30
    state = (False, False)
    for time, disagree in agreement:
        wanted = (disagree, not disagree)
        for name, old, new in (("disagree", state[0], wanted[0]), ("agree", state[1], wanted[1])):
            if old != new:
                script.append([time, name, int(new)])
        state = wanted
    return script


class SimulateLong(Workload):
    """Synthetic long-horizon scenarios through run, write_trace,
    read_trace and verify on the stored trace."""

    name = "simulate-long"
    HORIZON = 1000
    SWEEP = (500, 1000, 2000, 4000)

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        self.scenarios = [self.single_doc(self.HORIZON), self.double_doc(self.HORIZON)]
        self.parsed = [api.scenario.parse_scenario(doc) for doc in self.scenarios]
        self.previous: dict[str, list[str]] = {}  # trace lines of the first pass

    def single_doc(self, horizon: int) -> dict:
        rng = random.Random(f"{self.name}:{self.seed}:single")
        return {
            "name": "long-single", "net": {"builder": {"agents": 1, "config": {}}},
            "horizon": horizon, "policy": "earliest", "seed": self.seed,
            "signals": {"assist": 1}, "script": footnote_script(rng, horizon),
            "propositions": ["P1", "P2", "P3", "P4"], "triggers": "default",
            "formulas": [{"kind": "bounded-response", "condition": "invalid and not UR",
                          "place": "P_M", "within": 2}],
        }

    def double_doc(self, horizon: int) -> dict:
        rng = random.Random(f"{self.name}:{self.seed}:double")
        return {
            "name": "long-double", "net": {"builder": {"agents": ["a1", "a2"], "config": {}}},
            "horizon": horizon, "policy": "earliest", "seed": self.seed,
            "signals": {"assist_a1": 1, "assist_a2": 1}, "script": two_agent_script(rng, horizon),
            "propositions": ["P1", "P2", "P3", "P4", "P5"], "triggers": "default",
            "formulas": [{"kind": "bounded-response", "condition": "invalid_a1 and not UR_a1",
                          "place": "P_M_a1", "within": 2}],
        }

    def run_pass(self, run, first):
        for scenario in self.parsed:
            run.op(scenario.name, lambda: self._pipeline(run, scenario))

    def _pipeline(self, run, scenario):
        api = self.api
        trace, inline = run.timed("run", lambda: api.scenario.run(scenario))
        run.totals["ticks"] += scenario.horizon
        path = os.path.join(self.workdir, scenario.name + ".trace.jsonl")
        api.trace.write_trace(trace, path)
        run.totals["trace.events"] += len(trace.events)
        run.totals["trace.bytes"] += os.path.getsize(path)

        def audit():
            stored = api.trace.read_trace(path)
            stored.smart = scenario.smart
            return stored, api.scenario.verify(stored, scenario)

        stored, audited = run.timed("verify", audit)
        run.untimed(lambda: self._check(run, scenario, trace, stored, inline, audited))

    def _check(self, run, scenario, trace, stored, inline, audited):
        lines = list(self.api.trace.trace_lines(trace))
        run.check(list(self.api.trace.trace_lines(stored)) == lines,
                  f"{scenario.name}: trace read back differs from the trace written")
        run.check(_record(audited) == _record(inline),
                  f"{scenario.name}: verify on the stored trace differs from the inline verify")
        run.check(inline.status == "pass", f"{scenario.name}: status {inline.status}, expected pass")
        check_mode_sum(run, scenario.name, trace)
        previous = self.previous.setdefault(scenario.name, lines)
        run.check(previous == lines, f"{scenario.name}: same seed gave a different trace")

    def scaling_curves(self, run) -> dict:
        """read_trace + verify time of the single-agent scenario stored at
        each horizon of SWEEP (scaling curve of the audit path)."""
        import time

        out = {}
        for horizon in self.SWEEP:
            scenario = self.api.scenario.parse_scenario(self.single_doc(horizon))
            trace, inline = self.api.scenario.run(scenario)
            path = os.path.join(self.workdir, f"sweep-{horizon}.trace.jsonl")
            self.api.trace.write_trace(trace, path)
            start = time.perf_counter()
            stored = self.api.trace.read_trace(path)
            stored.smart = scenario.smart
            audited = self.api.scenario.verify(stored, scenario)
            out[f"h{horizon}"] = time.perf_counter() - start
            run.check(_record(audited) == _record(inline),
                      f"sweep horizon {horizon}: stored verify differs from inline")
        return {"verify_s": out}


# --- simulate-suite ------------------------------------------------------------

POLICIES = ("earliest", "latest", "random")


def _values(times: list[int], initial: bool, horizon: int) -> list[bool]:
    """Per-tick value of a signal that flips at each of ``times``."""
    values, value, flips = [], initial, set(times)
    for t in range(horizon + 1):
        if t in flips:
            value = not value
        values.append(value)
    return values


def short_script(rng: random.Random, horizon: int, suffixes: list[str], hysteresis: bool) -> list[list]:
    """Random piecewise-constant signal histories over a short horizon.

    Authorization (``ext_auth``) is granted for one tick at a time and only
    at ticks where the agent is valid. Authorization at an invalid instant
    can cycle the mode token M -> R -> S -> M within the instant its
    recovery budget expires, which the simulator cannot record (see
    ``REENTRY_PROBE``); that case runs as a probe, not as an operation.
    """
    script: list[list] = []
    for s in suffixes:
        anom = _toggles(rng, horizon, rng.randint(1, 4))
        evidence = _toggles(rng, horizon, rng.randint(0, 2))
        script += _alternate(f"anom{s}", anom, False)
        script += _alternate(f"evidence{s}", evidence, True)
        script += _alternate(f"safe{s}", _toggles(rng, horizon, rng.choice((0, 0, 1, 2))), True)
        script += _alternate(f"assist{s}", _toggles(rng, horizon, rng.randint(0, 2)), True)
        script += [[t, f"want_output{s}", 1] for t in _toggles(rng, horizon, rng.randint(1, 4))]
        high_u = [False] * (horizon + 1)
        if hysteresis:
            level = 0.2
            changes = dict.fromkeys(_toggles(rng, horizon, rng.randint(2, 6)))
            for t in changes:
                changes[t] = rng.choice((0.2, 0.45, 0.6, 0.9))
                script.append([t, f"U{s}", changes[t]])
            for t in range(horizon + 1):
                level = changes.get(t, level)
                high_u[t] = level >= 0.5
        valid = [not a and e and not u for a, e, u in
                 zip(_values(anom, False, horizon), _values(evidence, True, horizon), high_u)]
        grants = [t for t in range(1, horizon) if valid[t]]
        last = -2
        for t in sorted(rng.sample(grants, min(len(grants), rng.randint(0, 2)))):
            if t > last + 1:  # a pulse ends at t + 1; the next may not start there
                script += [[t, f"ext_auth{s}", 1], [t + 1, f"ext_auth{s}", 0]]
                last = t
    if len(suffixes) > 1:
        times = _toggles(rng, horizon, rng.randint(0, 3))
        script += _alternate("disagree", times, False)
        script += _alternate("agree", times, False)
    return script


# Known simulator defect: with ext_auth held while the agent stays invalid
# and unassisted, the recovery budget expires at tick 7, t_MR, t_RS and t_SM
# fire at that same instant, and re-entering P_M resets timeout_M at the
# instant it was set, which SignalState.record rejects (SignalError).
REENTRY_PROBE = {
    "name": "reentry-probe", "net": {"builder": {"agents": 1, "config": {}}},
    "horizon": 20, "script": [[2, "anom", 1], [3, "ext_auth", 1]],
}


class SimulateSuite(Workload):
    """The scenario files plus seeded short scenarios, each through the
    calls ``smart-tgpn simulate`` makes."""

    name = "simulate-suite"
    GENERATED = 144  # six per (agents, hysteresis, gating, policy) cell

    def __init__(self, api, seed, workdir, scenario_dir):
        super().__init__(api, seed, workdir)
        files = sorted(f for f in os.listdir(scenario_dir) if f.endswith(".scenario.json"))
        with open(os.path.join(scenario_dir, "reference-suite.json"), encoding="utf-8") as fh:
            self.reference = set(json.load(fh)["scenarios"])
        if not files or not self.reference <= set(files):
            raise WorkloadError(f"{scenario_dir}: scenario files missing")
        self.jobs = [(os.path.join(scenario_dir, f), f[: -len(".scenario.json")], "pass") for f in files]
        self.out = os.path.join(workdir, "runs")
        gen_dir = os.path.join(workdir, "generated")
        shutil.rmtree(gen_dir, ignore_errors=True)
        os.makedirs(gen_dir)
        horizons = [15 + round(85 * i / (self.GENERATED - 1)) for i in range(self.GENERATED)]
        self.rng.shuffle(horizons)
        for i, horizon in enumerate(horizons):
            doc = self.generated_doc(i, horizon)
            path = os.path.join(gen_dir, doc["name"] + ".scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.jobs.append((path, doc["name"], None))
        self.rng.shuffle(self.jobs)
        self.first_run: dict[str, tuple[bytes, int]] = {}

    def generated_doc(self, index: int, horizon: int) -> dict:
        agents = 1 + index % 2
        hysteresis = bool(index // 2 % 2)
        gating = ("structural+guarded", "structural-only")[index // 4 % 2]
        policy = POLICIES[index // 8 % 3]
        suffixes = [""] if agents == 1 else ["_a1", "_a2"]
        props = ["P1", "P2", "P3", "P4"] + (["P5"] if agents > 1 else [])
        return {
            "name": f"gen-{index:02d}",
            "net": {"builder": {"agents": agents if agents == 1 else ["a1", "a2"],
                                "config": {"gating_mode": gating,
                                           "hysteresis": {"enabled": hysteresis}}}},
            "horizon": horizon, "policy": policy, "seed": self.rng.randrange(1 << 16),
            "signals": {f"U{s}": 0.2 for s in suffixes} if hysteresis else {},
            "script": short_script(self.rng, horizon, suffixes, hysteresis),
            "propositions": props, "triggers": "default",
            "formulas": [{"kind": "bounded-response", "condition": f"invalid{suffixes[0]} and not UR{suffixes[0]}",
                          "place": f"P_M{suffixes[0]}", "within": 2}],
        }

    def run_pass(self, run, first):
        for path, name, expected in self.jobs:
            code = run.op(name, lambda: run.quiet(self.api.cli.main, ["simulate", path, "--out", self.out]))
            if code is not None:
                run.untimed(lambda: self._same_bytes(run, name, code, first))

    def _same_bytes(self, run, name, code, first):
        with open(os.path.join(self.out, name + ".trace.jsonl"), "rb") as fh:
            blob = fh.read()
        run.totals["trace.events"] += blob.count(b"\n") - 1
        run.totals["trace.bytes"] += len(blob)
        if first:
            self.first_run[name] = (blob, code)
        else:
            run.check(blob == self.first_run[name][0], f"{name}: same seed gave a different trace")

    def untimed_checks(self, run):
        """The files of the last pass equal the first pass's; check them
        against a fresh parse and a verify of the stored trace."""
        api = self.api
        run.probe("simulator re-entry into P_M at the timeout instant",
                  lambda: api.scenario.run(api.scenario.parse_scenario(dict(REENTRY_PROBE))))
        for path, name, expected in self.jobs:
            if name not in self.first_run:
                continue
            blob, code = self.first_run[name]
            base = os.path.join(self.out, name)
            scenario = api.scenario.parse_scenario(path)
            stored = api.trace.read_trace(base + ".trace.jsonl")
            stored.smart = scenario.smart
            audited = api.scenario.verify(stored, scenario)
            with open(base + ".report.json", encoding="utf-8") as fh:
                written = json.load(fh)
            run.check(_record(audited) == written, f"{name}: verify on the stored trace differs from the report")
            run.check(blob.decode().splitlines() == list(api.trace.trace_lines(stored)),
                      f"{name}: trace read back differs from the trace written")
            run.check(code == {"pass": 0, "violation": 1, "inconclusive": 2}[written["status"]],
                      f"{name}: exit code {code} for status {written['status']}")
            if expected is not None:
                run.check(written["status"] == expected, f"{name}: status {written['status']}, expected {expected}")
            if name + ".scenario.json" in self.reference:
                triggers = written["triggers"] or {}
                run.check(bool(triggers) and not any(v for k, v in triggers.items() if k.endswith("_violations")),
                          f"{name}: reference-suite trigger verdict fails")
            check_mode_sum(run, name, stored)


# --- shared checks ---------------------------------------------------------------


def _record(report) -> object:
    """A report record in its JSON form, for exact comparison."""
    return json.loads(json.dumps(report.to_record(), sort_keys=True))


def check_mode_sum(run, name: str, trace) -> None:
    """Every marking the trace records holds exactly one mode token per agent."""
    for event in trace.events:
        if event.post_marking is None:
            continue
        for agent in trace.smart.agents:
            total = sum(event.post_marking.get(p, 0) for p in agent.mode_places.values())
            if total != 1:
                run.check(False, f"{name}: mode-token sum {total} at t={event.time}")
                return


WORKLOADS = {
    ExploreWide.name: ExploreWide,
    ExploreBranching.name: ExploreBranching,
    SimulateLong.name: SimulateLong,
    SimulateSuite.name: SimulateSuite,
}
