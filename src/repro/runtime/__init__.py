"""Resource governance for analysis runs (reproduction infrastructure).

This package turns the engine from a batch script into a service-grade
component: every run can be **governed** (wall-clock / step / memory
budgets, enforced cooperatively at worklist-pop granularity), every
failure is **observable** (typed :class:`~repro.errors.ReproError`\\ s with
stage context, :class:`RunReport` diagnostics) and **recoverable** (the
degradation ladder ``vsfs → sfs → andersen`` trades precision for an
answer instead of crashing).  None of it is paper semantics: budgets and
fallback cannot change a converged result — see DESIGN.md §"Resource
governance & degradation ladder".

- :mod:`repro.runtime.budget` — :class:`Budget` / :class:`BudgetMeter`;
- :mod:`repro.runtime.degrade` — the ladder and the Andersen floor;
- :mod:`repro.runtime.faults` — deterministic fault injection;
- :mod:`repro.runtime.diagnostics` — :class:`RunReport` attached to results;
- :mod:`repro.runtime.checkpoint` — crash-safe snapshot/resume of in-flight
  solver state (:class:`CheckpointConfig` / :class:`Checkpointer`);
- :mod:`repro.runtime.resilience` — the self-healing layer's shared
  :class:`RetryPolicy` (capped backoff, deterministic seeded jitter) and
  the service worker pool's failure budget (DESIGN.md §12).
"""

from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    checkpoint_path,
    find_checkpoint,
    load_checkpoint,
)
from repro.runtime.degrade import (
    LADDERS,
    andersen_as_flow_sensitive,
    run_ladder,
    solve_with_ladder,
)
from repro.runtime.diagnostics import Attempt, RunReport
from repro.runtime.faults import (
    FAULT_DOMAINS,
    FAULT_POINTS,
    FaultPlan,
    describe_fault_points,
    fault_domain,
)
from repro.runtime.resilience import (
    DEFAULT_WORKER_FAILURE_BUDGET,
    IO_RETRY,
    RetryPolicy,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "CheckpointConfig",
    "Checkpointer",
    "checkpoint_path",
    "find_checkpoint",
    "load_checkpoint",
    "FaultPlan",
    "FAULT_POINTS",
    "FAULT_DOMAINS",
    "fault_domain",
    "describe_fault_points",
    "RetryPolicy",
    "IO_RETRY",
    "DEFAULT_WORKER_FAILURE_BUDGET",
    "RunReport",
    "Attempt",
    "LADDERS",
    "run_ladder",
    "solve_with_ladder",
    "andersen_as_flow_sensitive",
]
