"""Run reports: what a governed analysis run did, attempted, and consumed.

A :class:`RunReport` is attached to every result the degradation ladder
returns (and to the exception when fallback is disabled).  It records the
stage reached, every attempt's outcome and exception, the budget and how
much of it was consumed — rendered by ``repro-wpa --report`` and embedded
per program in the bench runner's JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import BudgetExceeded, InjectedFault
from repro.runtime.budget import Budget, BudgetMeter

#: Attempt outcomes, from best to worst.
OUTCOMES = ("completed", "budget-exceeded", "fault-injected", "error")


def _classify(error: Optional[BaseException]) -> str:
    if error is None:
        return "completed"
    if isinstance(error, BudgetExceeded):
        return "budget-exceeded"
    if isinstance(error, InjectedFault):
        return "fault-injected"
    return "error"


@dataclass
class Attempt:
    """One rung of the ladder: which stage ran and how it ended."""

    level: str
    outcome: str
    error_type: str = ""
    error_message: str = ""
    stage: str = ""  # innermost stage context carried by the exception
    wall_seconds: float = 0.0  # cumulative governed wall clock at attempt end
    steps: int = 0  # cumulative governed solver steps at attempt end

    def describe(self) -> str:
        text = f"{self.level}: {self.outcome}"
        if self.error_type:
            text += f" ({self.error_type}: {self.error_message})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "outcome": self.outcome,
            "error_type": self.error_type or None,
            "error_message": self.error_message or None,
            "stage": self.stage or None,
            "wall_seconds": self.wall_seconds,
            "steps": self.steps,
        }


@dataclass
class RunReport:
    """Everything observable about one governed run."""

    requested: str
    budget: Optional[Budget] = None
    fallback: bool = True
    precision_level: str = ""
    degraded_from: Optional[str] = None
    attempts: List[Attempt] = field(default_factory=list)
    wall_seconds_used: float = 0.0
    steps_used: int = 0
    peak_bytes: Optional[int] = None
    # Checkpoint/resume accounting (stamped by the ladder when a
    # CheckpointConfig is active; all-zero otherwise).
    resumed: bool = False
    resumed_from_step: Optional[int] = None
    resume_count: int = 0
    checkpoint_saves: int = 0
    #: Saves abandoned after the transient-I/O retry budget was spent
    #: (degraded-not-dead: the solve continued without them).
    checkpoint_skips: int = 0
    checkpoint_time_s: float = 0.0
    checkpoint_path: Optional[str] = None
    #: Live :class:`~repro.engine.events.StageTrace` of the pipeline that
    #: produced this run (stamped by the ladder); ``to_dict`` snapshots
    #: it as the ``stages`` list — substrate entries carry
    #: ``main_phase: false``, i.e. excluded from the timed main phase.
    stage_trace: Optional[object] = None
    #: Warm re-solve accounting (an ``IncrStats.to_dict()`` snapshot)
    #: when the run was planned incrementally — including fallbacks,
    #: whose ``fallback_reason`` says why the run went cold.
    incremental: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------- recording

    def record_attempt(self, level: str, error: Optional[BaseException] = None,
                       meter: Optional[BudgetMeter] = None) -> Attempt:
        attempt = Attempt(level=level, outcome=_classify(error))
        if error is not None:
            attempt.error_type = type(error).__name__
            attempt.error_message = str(error)
            attempt.stage = getattr(error, "stage", "") or level
        if meter is not None:
            attempt.wall_seconds = meter.elapsed()
            attempt.steps = meter.steps
        self.attempts.append(attempt)
        return attempt

    def finish(self, meter: Optional[BudgetMeter] = None,
               precision_level: str = "") -> "RunReport":
        if precision_level:
            self.precision_level = precision_level
            if precision_level != self.requested:
                self.degraded_from = self.requested
        if meter is not None:
            self.wall_seconds_used = meter.elapsed()
            self.steps_used = meter.steps
            self.peak_bytes = meter.peak_bytes()
        return self

    # ------------------------------------------------------------ observation

    @property
    def degraded(self) -> bool:
        return self.degraded_from is not None

    @property
    def precision_lost(self) -> bool:
        """True when degradation cost precision: every ladder rung below
        the requested one is strictly less precise, so this is
        :attr:`degraded`; result stores and warnings key off it."""
        return self.degraded

    @property
    def self_heal(self) -> List[Dict[str, object]]:
        """The stage trace's absorbed-fault audit trail (empty = clean)."""
        trace = self.stage_trace
        heals = getattr(trace, "heals", None) if trace is not None else None
        return list(heals) if heals else []

    @property
    def retry_attempts(self) -> int:
        """Transient-I/O :class:`~repro.runtime.resilience.RetryPolicy`
        re-runs recorded on the heal trail (0 = no retries needed)."""
        return sum(1 for heal in self.self_heal
                   if heal.get("action") == "retry")

    @property
    def retry_give_ups(self) -> int:
        """Operations abandoned after the retry budget was spent (the
        ``skip-*`` heal actions); the run continued without them."""
        return sum(1 for heal in self.self_heal
                   if str(heal.get("action", "")).startswith("skip"))

    @property
    def stage_reached(self) -> str:
        """The last stage attempted (= the one that produced the answer,
        when the run succeeded)."""
        return self.attempts[-1].level if self.attempts else ""

    def exception_chain(self) -> List[str]:
        """Human-readable chain of every failed attempt, outermost first."""
        return [attempt.describe() for attempt in self.attempts
                if attempt.outcome != "completed"]

    def summary(self) -> str:
        """One line: what was asked, what was answered, and why."""
        if not self.degraded:
            return f"{self.requested} completed"
        first_failure = next(
            (a for a in self.attempts if a.outcome != "completed"), None)
        why = f" after {first_failure.outcome}" if first_failure else ""
        return f"{self.requested} degraded to {self.precision_level}{why}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (embedded in BENCH output per program)."""
        return {
            "requested": self.requested,
            "precision_level": self.precision_level,
            "degraded": self.degraded,
            "degraded_from": self.degraded_from,
            "precision_lost": self.precision_lost,
            "fallback": self.fallback,
            "stage_reached": self.stage_reached,
            "budget": None if self.budget is None else {
                "wall_seconds": self.budget.wall_seconds,
                "max_steps": self.budget.max_steps,
                "max_memory_bytes": self.budget.max_memory_bytes,
            },
            "wall_seconds_used": self.wall_seconds_used,
            "steps_used": self.steps_used,
            "peak_bytes": self.peak_bytes,
            "resumed": self.resumed,
            "resumed_from_step": self.resumed_from_step,
            "resume_count": self.resume_count,
            "checkpoint_saves": self.checkpoint_saves,
            "checkpoint_skips": self.checkpoint_skips,
            "checkpoint_time_s": self.checkpoint_time_s,
            "checkpoint_path": self.checkpoint_path,
            "incremental": self.incremental,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "self_heal": self.self_heal,
            "retry_attempts": self.retry_attempts,
            "retry_give_ups": self.retry_give_ups,
            "stages": (self.stage_trace.to_dict()
                       if self.stage_trace is not None else None),
        }

    def render(self) -> str:
        """Multi-line text for ``repro-wpa --report``."""
        lines = [f"--- run report: {self.summary()} ---"]
        budget = self.budget.describe() if self.budget is not None else "none"
        lines.append(f"budget: {budget}")
        consumed = f"wall {self.wall_seconds_used:.4f}s, steps {self.steps_used}"
        if self.peak_bytes is not None:
            consumed += f", traced peak {self.peak_bytes / 1024:.1f} KiB"
        lines.append(f"consumed: {consumed}")
        lines.append(f"stage reached: {self.stage_reached or 'none'} "
                     f"(precision: {self.precision_level or 'n/a'})")
        if self.resumed or self.checkpoint_saves or self.checkpoint_skips:
            checkpoints = (f"checkpoints: {self.checkpoint_saves} saved "
                           f"({self.checkpoint_time_s:.4f}s)")
            if self.checkpoint_skips:
                checkpoints += f", {self.checkpoint_skips} skipped"
            if self.resumed:
                checkpoints += f", resumed from step {self.resumed_from_step}"
            lines.append(checkpoints)
        incr = self.incremental
        if incr is not None:
            if incr.get("fallback_reason"):
                lines.append("incremental: cold solve "
                             f"(fallback={incr['fallback_reason']})")
            else:
                lines.append(
                    f"incremental: {incr.get('regions_reused', 0)}/"
                    f"{incr.get('regions_total', 0)} regions reused, "
                    f"{len(incr.get('dirty_functions') or [])} dirty "
                    f"function(s), {incr.get('steps_saved', 0)} solver "
                    f"steps saved")
        heals = self.self_heal
        if heals:
            lines.append(f"self-heal: {len(heals)} absorbed fault(s), "
                         f"{self.retry_attempts} retry attempt(s), "
                         f"{self.retry_give_ups} give-up(s)")
            for heal in heals:
                stage = heal.get("stage", "?")
                detail = ", ".join(f"{k}={v}" for k, v in heal.items()
                                   if k != "stage")
                lines.append(f"  - {stage}: {detail}")
        lines.append("attempts:")
        for index, attempt in enumerate(self.attempts, 1):
            lines.append(f"  {index}. {attempt.describe()}")
        return "\n".join(lines)
