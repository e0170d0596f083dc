"""The typed stages of the analysis flow.

Each :class:`Stage` names its inputs (edges of the stage graph), how it
is cached (``codec`` round-trips through an encoder, ``replay`` rebuilds
and verifies a digest, ``None`` is never cached), whether it belongs to
the paper's timed main phase, and how to run it from a
:class:`~repro.engine.context.StageContext`.

The graph mirrors the paper's staging::

    parse -> prepare -> andersen -> modref -> memssa -> svfg -> versioning
                   \\-> solve:andersen            (aux as the requested analysis)
                   \\-> solve:icfg-fs             (dense baseline)
                             svfg -> solve:sfs / solve:vsfs  (main phase)

Fingerprints are content hashes: a stage's fingerprint mixes its name,
its version, its configuration token and every upstream fingerprint; the
root is the prepared module's printed-IR hash, so editing the program or
flipping an ablation flag changes exactly the fingerprints downstream of
the change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.andersen import AndersenAnalysis
from repro.analysis.modref import compute_modref
from repro.core.versioning import version_objects
from repro.errors import AnalysisError
from repro.ir.parser import parse_module
from repro.memssa.builder import build_memssa
from repro.passes.prepare import prepare_module
from repro.store import decode_result, encode_result


def canonical_digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Stage:
    """One node of the stage graph; subclasses define the flow."""

    name: str = ""
    #: Upstream stage names; executed (and fingerprint-chained) in order.
    inputs: Tuple[str, ...] = ()
    #: Chain these fingerprints instead of ``inputs`` (None: same as inputs).
    fingerprint_inputs: Optional[Tuple[str, ...]] = None
    #: True only for solve stages — the paper's timed main phase.
    main_phase: bool = False
    #: Bump to invalidate cached artifacts when the stage's logic changes.
    version: int = 1
    #: None (never cached), "codec" (encode/decode) or "replay" (digest).
    cache_mode: Optional[str] = None

    def config_token(self, ctx: Any) -> str:
        """Configuration that affects this stage's output (fingerprinted)."""
        return ""

    def run(self, ctx: Any) -> Any:
        raise NotImplementedError

    def steps(self, artifact: Any) -> int:
        """Solver steps the artifact embodies (0 for pure constructions)."""
        return 0

    # ---- codec mode ----

    def encode(self, ctx: Any, artifact: Any) -> Any:
        raise NotImplementedError

    def decode(self, ctx: Any, payload: Any) -> Any:
        raise NotImplementedError

    # ---- replay mode ----

    def digest(self, ctx: Any, artifact: Any) -> str:
        raise NotImplementedError


class ParseStage(Stage):
    """Source text → raw (unprepared) IR module; pass-through for a
    caller-provided module."""

    name = "parse"

    def config_token(self, ctx: Any) -> str:
        if ctx.module is not None:
            from repro.store.codec import ir_fingerprint

            return "module:" + ir_fingerprint(ctx.module)
        text = f"{ctx.language}\x00{ctx.source}"
        return "source:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    def run(self, ctx: Any) -> Any:
        if ctx.module is not None:
            return ctx.module
        if ctx.source is None:
            raise AnalysisError("the engine needs a module or source text")
        if ctx.language == "c":
            from repro.frontend import compile_c

            return compile_c(ctx.source, prepare=False)
        if ctx.language == "ir":
            return parse_module(ctx.source)
        raise AnalysisError(
            f"unknown language {ctx.language!r} (want 'c' or 'ir')")


class PrepareStage(Stage):
    """Pre-analysis normalisation (repro.passes.prepare), idempotent.

    Content-addressed root of the fingerprint chain: its fingerprint is
    derived from the *prepared* module's printed IR, so identical IR
    reached from different source paths shares every downstream cache
    entry.
    """

    name = "prepare"
    inputs = ("parse",)
    fingerprint_inputs = ()

    def config_token(self, ctx: Any) -> str:
        from repro.store.codec import ir_fingerprint

        return ir_fingerprint(ctx.artifacts[self.name])

    def run(self, ctx: Any) -> Any:
        module = ctx.artifacts["parse"]
        if ctx.module is None:
            # mini-C is promoted to partial SSA; textual IR is analysed
            # as written (matching module_from's historical behaviour).
            prepare_module(module, promote=ctx.language == "c")
        return module


class AndersenStage(Stage):
    """Auxiliary flow-insensitive analysis; cached via the result codec."""

    name = "andersen"
    inputs = ("prepare",)
    cache_mode = "codec"

    def run(self, ctx: Any) -> Any:
        return AndersenAnalysis(ctx.artifacts["prepare"]).run()

    def steps(self, artifact: Any) -> int:
        return artifact.stats.processed_nodes

    def encode(self, ctx: Any, artifact: Any) -> Any:
        return encode_result(artifact)

    def decode(self, ctx: Any, payload: Any) -> Any:
        return decode_result(ctx.artifacts["prepare"], payload)


class ModRefStage(Stage):
    """Per-function mod/ref masks; rebuilt and digest-verified on hits."""

    name = "modref"
    inputs = ("prepare", "andersen")
    cache_mode = "replay"

    def run(self, ctx: Any) -> Any:
        return compute_modref(ctx.artifacts["prepare"],
                              ctx.artifacts["andersen"])

    def digest(self, ctx: Any, artifact: Any) -> str:
        return canonical_digest({
            "mod": {fn.name: format(mask, "x")
                    for fn, mask in artifact.mod.items()},
            "ref": {fn.name: format(mask, "x")
                    for fn, mask in artifact.ref.items()},
        })


class MemSSAStage(Stage):
    """Memory SSA (μ/χ/MEMPHI annotations); replay-cached."""

    name = "memssa"
    inputs = ("prepare", "andersen", "modref")
    cache_mode = "replay"

    def run(self, ctx: Any) -> Any:
        return build_memssa(ctx.artifacts["prepare"],
                            ctx.artifacts["andersen"],
                            ctx.artifacts["modref"])

    def digest(self, ctx: Any, artifact: Any) -> str:
        def mus(table: Dict[Any, Any]) -> List[List[int]]:
            return sorted([inst.id, mu.obj.id, mu.ver]
                          for inst, entries in table.items()
                          for mu in entries)

        def chis(table: Dict[Any, Any]) -> List[List[int]]:
            return sorted([inst.id, chi.obj.id, chi.new_ver, chi.old_ver]
                          for inst, entries in table.items()
                          for chi in entries)

        payload = {
            "load_mus": mus(artifact.load_mus),
            "store_chis": chis(artifact.store_chis),
            "call_mus": mus(artifact.call_mus),
            "call_chis": chis(artifact.call_chis),
            "entry_chis": sorted(
                [fn.name, chi.obj.id, chi.new_ver, chi.old_ver]
                for fn, entries in artifact.entry_chis.items()
                for chi in entries),
            "exit_mus": sorted(
                [fn.name, mu.obj.id, mu.ver]
                for fn, entries in artifact.exit_mus.items()
                for mu in entries),
            "memphis": sorted(
                [fn.name, phi.block.name, phi.obj.id, phi.new_ver,
                 sorted([pred.name, ver]
                        for pred, ver in phi.incomings.items())]
                for fn, phis in artifact.memphis.items()
                for phi in phis),
        }
        return canonical_digest(payload)


class SVFGStage(Stage):
    """The sparse value-flow graph; replay-cached.

    The built graph is the *immutable* shared substrate — solvers receive
    :meth:`SVFG.copy` instances because on-the-fly call-graph resolution
    grows the edge structure.
    """

    name = "svfg"
    inputs = ("prepare", "andersen", "memssa")
    cache_mode = "replay"

    def run(self, ctx: Any) -> Any:
        from repro.svfg.builder import build_svfg

        return build_svfg(ctx.artifacts["prepare"],
                          ctx.artifacts["andersen"],
                          ctx.artifacts["memssa"])

    def digest(self, ctx: Any, artifact: Any) -> str:
        payload = {
            "nodes": [type(node).__name__ for node in artifact.nodes],
            "direct": sorted(
                [src, dst]
                for src, succs in enumerate(artifact.direct_succs)
                for dst in succs),
            "indirect": sorted(list(edge) for edge in artifact._edge_set),
            "delta": sorted(artifact.delta_nodes),
        }
        return canonical_digest(payload)


class VersioningStage(Stage):
    """Object versioning (prelabel + meld) on the shared SVFG.

    Digest excludes the wall-clock ``time`` entry of the snapshot — the
    artifact's identity is its labelling, not how long it took.
    """

    name = "versioning"
    inputs = ("svfg",)
    cache_mode = "replay"

    def run(self, ctx: Any) -> Any:
        return version_objects(ctx.artifacts["svfg"])

    def digest(self, ctx: Any, artifact: Any) -> str:
        snapshot = dict(artifact.snapshot())
        snapshot.pop("time", None)
        return canonical_digest(snapshot)


class SolveStage(Stage):
    """One solve rung (the timed main phase); never disk-cached — final
    results live in the :class:`~repro.store.ResultStore`."""

    main_phase = True

    def __init__(self, level: str):
        self.level = level
        self.name = f"solve:{level}"
        self.inputs = (("svfg",) if level in ("sfs", "vsfs")
                       else ("prepare",))

    def config_token(self, ctx: Any) -> str:
        if self.level in ("sfs", "vsfs"):
            return f"delta={ctx.delta},ptrepo={ctx.ptrepo}"
        return ""

    def run(self, ctx: Any) -> Any:
        solver = self.make_solver(ctx)
        plan = ctx.warm_plan
        warm = (plan is not None and getattr(plan, "usable", False)
                and getattr(plan, "analysis", None) == self.level
                and ctx.resume_state is None)
        if ctx.resume_state is not None:
            solver.restore_state(ctx.resume_state, ctx.resume_step)
        if warm:
            solver.warm_start(plan)
        result = solver.run()
        if warm:
            plan.stats.finish(result.stats.nodes_processed)
            result.incremental = plan.stats
        elif plan is not None and self.level in ("sfs", "vsfs"):
            # A plan that fell back to cold still reports why.
            result.incremental = plan.stats
        if ctx.capture_regions and self.level in ("sfs", "vsfs"):
            from repro.incremental.deps import node_flow_graph

            node_in, node_out = solver.export_node_memory()
            result.incremental_capture = {
                "node_in": node_in,
                "node_out": node_out,
                "flow": node_flow_graph(solver.svfg),
            }
        return result

    def make_solver(self, ctx: Any) -> Any:
        module = ctx.artifacts["prepare"]
        if self.level == "andersen":
            return AndersenAnalysis(module, ctx=ctx)
        if self.level == "icfg-fs":
            from repro.solvers.icfg_fs import ICFGFlowSensitive

            return ICFGFlowSensitive(module, ctx=ctx)
        svfg = ctx.artifacts["svfg"].copy()
        if self.level == "sfs":
            from repro.solvers.sfs import SFSAnalysis

            return SFSAnalysis(svfg, delta=ctx.delta, ptrepo=ctx.ptrepo,
                               ctx=ctx)
        if self.level == "vsfs":
            from repro.core.vsfs import VSFSAnalysis

            # A primed versioning stage (the CLI primes it under --store)
            # already melded the shared SVFG: restore its labelling onto
            # the copy instead of melding again.  A resumed solve restores
            # its checkpoint's versioning, which includes on-the-fly
            # constraints, so it never takes the stage's.
            versioning = ctx.artifacts.get("versioning")
            snapshot = (versioning.snapshot()
                        if versioning is not None and ctx.resume_state is None
                        else None)
            return VSFSAnalysis(svfg, delta=ctx.delta, ptrepo=ctx.ptrepo,
                                ctx=ctx, versioning_snapshot=snapshot)
        raise AnalysisError(f"unknown solve level {self.level!r}")

    def steps(self, artifact: Any) -> int:
        # Per-execution work only: a resumed solve's nodes_processed is
        # cumulative across attempts, and trace records are per attempt —
        # reporting the cumulative figure would double-count every
        # pre-crash pop when traces are summed (batch stage totals).
        stats = artifact.stats
        processed = getattr(stats, "nodes_processed", None) \
            or getattr(stats, "processed_nodes", 0)
        return processed - getattr(stats, "resumed_steps", 0)


class ParallelSolveStage(SolveStage):
    """Sharded multiprocessing solve (:mod:`repro.parallel`).

    ``solve:sfs-par`` / ``solve:vsfs-par`` run the corresponding staged
    kernel on ``ctx.jobs`` workers over an SCC-condensed partition of the
    SVFG.  The result is bit-identical to the serial rung's (the solvers
    are confluent; DESIGN.md §10), so the worker count is a *run*
    configuration, not an analysis change — which is why these stages
    share the serial rung's result identity and only the trace and the
    attached ``result.parallel`` stats differ.
    """

    def __init__(self, level: str):
        self.level = level
        self.base_level = level[: -len("-par")]
        self.name = f"solve:{level}"
        self.inputs = ("svfg",)

    def config_token(self, ctx: Any) -> str:
        return (f"delta={ctx.delta},ptrepo={ctx.ptrepo},"
                f"jobs={ctx.jobs},mode={ctx.parallel_mode}")

    def run(self, ctx: Any) -> Any:
        from repro.parallel.driver import solve_parallel

        plan = ctx.warm_plan
        if plan is not None and getattr(plan, "usable", False) \
                and getattr(plan, "analysis", None) == self.base_level:
            # A warm re-solve retracts/reseeds from a stored solution; a
            # sharded run would have to split that preload across worker
            # partitions.  Collapse to the serial kernel — result-
            # identical by confluence (DESIGN.md §10) — and keep the
            # warm savings instead of the parallel speedup.
            from repro.engine.events import heal_event

            ctx.bus.emit(heal_event(self.name, "parallel", "collapse",
                                    reason="warm-start", jobs=ctx.jobs))
            return SolveStage(self.base_level).run(ctx)
        if ctx.resume_state is not None:
            raise AnalysisError(
                "parallel solve stages cannot resume a serial checkpoint; "
                "rerun serially (--jobs 1) to resume")
        budget = ctx.meter.budget if ctx.meter is not None else None
        result = solve_parallel(
            ctx.artifacts["svfg"], self.base_level, ctx.jobs,
            delta=ctx.delta, ptrepo=ctx.ptrepo, budget=budget,
            faults=ctx.faults, versioning=ctx.artifacts.get("versioning"),
            mode=ctx.parallel_mode, mde=getattr(ctx, "mde", None),
            mde_batch=getattr(ctx, "mde_batch", True))
        if ctx.meter is not None:
            # The workers metered themselves (per-worker budgets); reflect
            # their pops into the governing meter so ladder reports and
            # stage step totals add up.
            ctx.meter.steps += result.stats.nodes_processed
        return result


#: Solve levels the engine can run (= degradation-ladder rungs).
SOLVE_LEVELS = ("andersen", "sfs", "vsfs", "icfg-fs")

#: Parallel variants of the staged solvers (result-identical to serial).
PARALLEL_SOLVE_LEVELS = ("sfs-par", "vsfs-par")


def default_stages() -> Dict[str, Stage]:
    """The standard stage registry, name → stage."""
    stages: Dict[str, Stage] = {}
    for stage in (ParseStage(), PrepareStage(), AndersenStage(),
                  ModRefStage(), MemSSAStage(), SVFGStage(),
                  VersioningStage()):
        stages[stage.name] = stage
    for level in SOLVE_LEVELS:
        solve = SolveStage(level)
        stages[solve.name] = solve
    for level in PARALLEL_SOLVE_LEVELS:
        solve = ParallelSolveStage(level)
        stages[solve.name] = solve
    return stages
