"""Timed guarded Petri net kernel and analysis toolkit for SMART
failure-managed autonomy nets: a builder for the four-mode governance
architecture, a deterministic discrete-event simulator, structural
analysis with bounded exploration, and trace monitors for the behavioral
guarantees."""

from .builder import (
    AgentSpec,
    Hysteresis,
    SmartConfig,
    SmartNet,
    Trigger,
    TriggerSet,
    build_multi_agent,
    build_single_agent,
    default_trigger_set,
    validate_smart,
)
from .guards import GuardExpr, PredicateLibrary, eval_guard, parse_guard
from .hierarchy import InterfaceSpec, Subnet, check_interface, refine
from .kernel import (
    FiringEvent,
    FiringPolicy,
    KernelState,
    ZenoViolation,
    advance_to_next_event,
    enabled,
    fire,
    struct_enabled,
)
from .net import Arc, Marking, Net, TransitionRecord, drop_transition, validate_net
from .analysis import (
    ExplorationConfig,
    Formula,
    ReachGraph,
    check_formula,
    check_p_invariant,
    explore,
    incidence_matrix,
    mode_indicator,
)
from .monitor import (
    Verdict,
    check_bounded_autonomy,
    check_distributed_soundness,
    check_governance_reachability,
    check_mandatory_escalation,
    check_output_gating,
    check_trigger_set,
)
from .scenario import RunReport, Scenario, parse_scenario, run, verify
from .signals import SignalState
from .trace import Trace, read_trace, write_trace

__all__ = [name for name in dir() if not name.startswith("_")]
