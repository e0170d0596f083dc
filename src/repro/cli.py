"""``repro-wpa`` — command-line whole-program analysis driver.

Mirrors SVF's ``wpa`` tool from the paper's artifact::

    repro-wpa -ander  program.c        # Andersen's analysis
    repro-wpa -fspta  program.c        # staged flow-sensitive (SFS)
    repro-wpa -vfspta program.c        # versioned SFS (the paper)
    repro-wpa -vfspta --ir program.ir  # textual IR input
    repro-wpa -vfspta --stats --dump-pts program.c
    repro-wpa -vfspta --budget-seconds 5 --report program.c

Prints timing statistics, the process's peak resident set size (the OS
high-water mark, ``ru_maxrss``) and, with ``--dump-pts``, the points-to set
of every top-level variable.  Memory is read from the OS rather than
traced: Python allocation tracing slows an answer several-fold, so only
``--budget-mb`` turns it on (the budget governs the traced peak), and the
bench runner measures traced peaks in a separate pass.  Budget flags
govern the run: on exhaustion the analysis degrades down the ladder
(``vsfs → sfs → andersen``) unless ``--no-fallback`` is given.

Crash safety: ``--checkpoint-dir`` snapshots the in-flight solver on a
cadence (``--checkpoint-every`` pops and/or ``--checkpoint-seconds``) and
when a budget trips; ``--resume`` picks the work back up bit-identically.
``--store`` caches completed results content-addressed by IR hash ×
analysis × ablation flags, and additionally caches intermediate stage
artifacts (``DIR/stages``) so repeat runs skip unchanged substrate.
``--trace`` prints the per-stage breakdown (wall/steps/cache), with the
substrate stages marked excluded from the timed main phase.
``repro-wpa batch ...`` runs a supervised multi-program batch (see
:mod:`repro.batch`); ``repro-wpa chaos ...`` runs the seeded
fault-injection soak harness (see :mod:`repro.chaos`);
``repro-wpa serve ...`` starts the always-on analysis daemon (see
:mod:`repro.service`); ``--list-fault-points`` prints the injectable
fault points by domain.

Resilience: corrupt store/cache entries are quarantined and the answer
recomputed (a warning, not a failure) unless ``--strict-io`` restores
the fail-fast contract.  A parallel rung that collapses onto its serial
twin reports ``degraded_from`` but keeps full precision, so the result
is still stored and the message is a notice, not a warning.

Exit codes: 0 success, 1 I/O error, 2 parse/IR error, 3 analysis error
(including an exhausted budget under ``--no-fallback``, and — under
``--strict-io`` — any rejected or corrupt checkpoint/store artifact),
4 parallel worker-crash budget spent under ``--no-fallback`` (with
fallback the run collapses onto the serial twin instead).  The full
table lives in README.md §Exit codes.
"""

from __future__ import annotations

import argparse
import resource
import sys
from typing import List, Optional

from repro.errors import (
    CheckpointError,
    IRError,
    ParseError,
    ReproError,
    WorkerCrash,
)

#: CLI exit codes (documented in README.md §Exit codes).  ``batch``
#: treats EXIT_INPUT as a permanent input problem (no retry); every
#: other nonzero code is retried up to its attempt budget.
EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_WORKER_CRASH = 4
from repro.pipeline import AnalysisPipeline, _load_resume_state
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.degrade import solve_with_ladder
from repro.runtime.resilience import IO_RETRY


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wpa",
        description="Whole-program pointer analysis (VSFS reproduction of CGO'21)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("-ander", action="store_const", dest="analysis", const="ander",
                      help="flow-insensitive Andersen's analysis")
    mode.add_argument("-fspta", action="store_const", dest="analysis", const="sfs",
                      help="staged flow-sensitive analysis (SFS)")
    mode.add_argument("-vfspta", action="store_const", dest="analysis", const="vsfs",
                      help="versioned staged flow-sensitive analysis (VSFS)")
    mode.add_argument("-icfg-fspta", action="store_const", dest="analysis", const="icfg-fs",
                      help="dense flow-sensitive analysis on the ICFG (slow)")
    parser.add_argument("file", help="mini-C source file (or textual IR with --ir)")
    parser.add_argument("--ir", action="store_true", help="input is textual IR")
    parser.add_argument("--stats", action="store_true", help="print SVFG statistics")
    parser.add_argument("--dump-pts", action="store_true",
                        help="print points-to sets of top-level variables")
    parser.add_argument("--profile", action="store_true",
                        help="print a solver work/dedup report (propagations, "
                             "unions, unique vs referenced sets, union cache)")
    parser.add_argument("--no-delta", action="store_true",
                        help="disable the delta propagation kernel (SFS/VSFS)")
    parser.add_argument("--no-ptrepo", action="store_true",
                        help="disable deduplicated points-to storage (SFS/VSFS)")
    parser.add_argument("--no-mde-batch", action="store_true",
                        help="disable propagation-batch memoisation in the "
                             "staged kernels (dedup-engine ablation; results "
                             "are bit-identical either way)")
    parser.add_argument("--no-arena", action="store_true",
                        help="disable the memory-mapped mask arena that "
                             "--store otherwise shares across runs and "
                             "fork workers")
    parser.add_argument("--budget-seconds", type=float, metavar="S",
                        help="wall-clock budget for the solve phase")
    parser.add_argument("--budget-mb", type=float, metavar="MB",
                        help="traced-memory budget for the solve phase; "
                             "turns on Python's allocation tracer, which "
                             "slows the governed run several-fold")
    parser.add_argument("--max-steps", type=int, metavar="N",
                        help="solver step (worklist pop) budget")
    parser.add_argument("--no-fallback", action="store_true",
                        help="fail with exit code 3 instead of degrading "
                             "down the ladder when the budget is exhausted")
    parser.add_argument("--strict-io", action="store_true",
                        help="fail (exit 3) on corrupt stage-cache/result-"
                             "store entries instead of quarantining and "
                             "recomputing (the pre-resilience contract)")
    parser.add_argument("--list-fault-points", action="store_true",
                        help="list the injectable fault points by domain "
                             "and exit (see also `repro-wpa chaos`)")
    parser.add_argument("--report", action="store_true",
                        help="print the run report (attempts, budget "
                             "consumed, degradation)")
    parser.add_argument("--trace", action="store_true",
                        help="print the per-stage trace (wall/steps/cache "
                             "per stage; substrate stages are excluded "
                             "from the main phase)")
    parser.add_argument("--report-json", metavar="FILE",
                        help="write the run report as JSON (atomically)")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="write crash-safe solver checkpoints to DIR")
    parser.add_argument("--checkpoint-every", type=int, default=1000,
                        metavar="N",
                        help="checkpoint cadence in solver steps "
                             "(default 1000; 0 disables the step cadence)")
    parser.add_argument("--checkpoint-seconds", type=float, metavar="S",
                        help="additional wall-clock checkpoint cadence")
    parser.add_argument("--resume", nargs="?", const=True, default=None,
                        metavar="PATH",
                        help="resume from a checkpoint: PATH names a file "
                             "or directory; bare --resume searches "
                             "--checkpoint-dir (fresh start if none found)")
    parser.add_argument("--store", metavar="DIR",
                        help="content-addressed result store: reuse a "
                             "cached result when present, save the result "
                             "on completion; also enables the stage cache "
                             "(DIR/stages) so repeat runs skip unchanged "
                             "substrate stages")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="solve -fspta/-vfspta on N sharded workers "
                             "(repro.parallel); results are bit-identical "
                             "to the serial solve")
    parser.add_argument("--parallel-mode", choices=("fork", "inline"),
                        help="parallel transport override (default: fork "
                             "when available on a multicore host, else "
                             "in-process workers)")
    parser.add_argument("--check-null", action="store_true",
                        help="report dereferences through possibly-null pointers")
    parser.add_argument("--dead-stores", action="store_true",
                        help="report stores no load can observe")
    parser.add_argument("--dot-svfg", metavar="FILE",
                        help="write the SVFG as Graphviz DOT")
    parser.add_argument("--dot-callgraph", metavar="FILE",
                        help="write the resolved call graph as Graphviz DOT")
    parser.set_defaults(analysis="vsfs")
    return parser


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    if args.budget_seconds is None and args.budget_mb is None \
            and args.max_steps is None:
        return None
    max_memory = None
    if args.budget_mb is not None:
        max_memory = int(args.budget_mb * 1024 * 1024)
    return Budget(wall_seconds=args.budget_seconds, max_steps=args.max_steps,
                  max_memory_bytes=max_memory)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: I/O errors exit 1, parse/IR errors 2, analysis errors 3."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        from repro.batch import batch_main

        return batch_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos import chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if "--list-fault-points" in argv:
        # Informational: valid without a program file, so intercept
        # before argparse enforces the positional.
        from repro.runtime.faults import describe_fault_points

        print(describe_fault_points())
        return 0
    args = build_arg_parser().parse_args(argv)
    if isinstance(args.resume, str) and args.resume.endswith((".c", ".ir")):
        # argparse greedily binds "--resume prog.c" as the PATH; a source
        # file is never a checkpoint, so reject with guidance instead of
        # resuming from garbage.
        print(f"repro-wpa: error: --resume consumed {args.resume!r} as its "
              f"PATH; use --resume=PATH or place --resume before another "
              f"flag", file=sys.stderr)
        return 1
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as err:
        print(f"repro-wpa: error: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        return _run(args, source)
    except ReproError as err:
        print(f"repro-wpa: error: {err}", file=sys.stderr)
        report = getattr(err, "run_report", None)
        if args.report and report is not None:
            print(report.render(), file=sys.stderr)
        if isinstance(err, (ParseError, IRError)):
            return EXIT_INPUT
        if isinstance(err, WorkerCrash):
            # Distinguishable from analysis errors so supervisors can
            # react (e.g. retry serially) without parsing stderr.
            return EXIT_WORKER_CRASH
        return EXIT_ANALYSIS


def _checkpoint_config(args: argparse.Namespace) -> Optional[CheckpointConfig]:
    if args.checkpoint_dir is None:
        return None
    every_steps = args.checkpoint_every if args.checkpoint_every > 0 else None
    return CheckpointConfig(args.checkpoint_dir, every_steps=every_steps,
                            every_seconds=args.checkpoint_seconds)


def _run(args: argparse.Namespace, source: str) -> int:
    store = cache = None
    arena_path = None
    if args.store is not None:
        import os

        from repro.engine import StageCache
        from repro.store import ResultStore

        store = ResultStore(args.store)
        cache = StageCache(os.path.join(args.store, "stages"))
        if not args.no_arena:
            # Persist the mask arena next to the results: warm runs (and
            # fork workers) attach it instead of re-interning from scratch.
            arena_path = store.arena_path
    pipeline = AnalysisPipeline.from_source(
        source, language="ir" if args.ir else "c", cache=cache,
        mde_batch=not args.no_mde_batch, arena_path=arena_path,
        strict_cache=args.strict_io)
    module = pipeline.module
    delta, ptrepo = not args.no_delta, not args.no_ptrepo

    # --jobs routes the staged analyses through the sharded parallel
    # stages.  The result store stays keyed by the serial analysis name:
    # the parallel solve is bit-identical, so serial and parallel runs
    # share cache entries.
    jobs = max(1, args.jobs)
    ladder_analysis = args.analysis
    if jobs > 1:
        if args.analysis not in ("sfs", "vsfs"):
            print("repro-wpa: warning: --jobs applies to -fspta/-vfspta "
                  "only; running serially", file=sys.stderr)
            jobs = 1
        elif args.resume is not None:
            print("repro-wpa: warning: --resume is serial-only; ignoring "
                  "--jobs", file=sys.stderr)
            jobs = 1
        else:
            ladder_analysis = args.analysis + "-par"

    if store is not None:
        # Build (or stage-cache-load) the substrate first: warm runs then
        # report a cache hit for every substrate stage even when the final
        # result also comes straight from the result store.
        pipeline.engine.prime_substrate(args.analysis)
        try:
            cached = store.get(module, args.analysis, delta, ptrepo)
        except CheckpointError as err:
            # Degraded-not-dead: the store already quarantined the bad
            # entry; recompute the answer instead of dying.
            if args.strict_io:
                raise
            from repro.engine.events import heal_event

            pipeline.engine.ctx.bus.emit(heal_event(
                f"solve:{args.analysis}", "io", "recompute",
                point="result_store_get", error=type(err).__name__,
                reason=err.reason, path=err.path))
            print(f"repro-wpa: warning: corrupt result-store entry "
                  f"quarantined ({err.path}); recomputing", file=sys.stderr)
            cached = None
        if cached is not None:
            print(f"repro-wpa: result store hit ({store.last_path})",
                  file=sys.stderr)
            level = "andersen" if args.analysis == "ander" else args.analysis
            pipeline.engine.record_external_hit(f"solve:{level}",
                                                "result-store")
            _print_result(args, cached, run_report=None)
            if args.trace:
                print(pipeline.trace.render())
            if args.report_json:
                _write_report_json(args.report_json, None, store_hit=True,
                                   trace=pipeline.trace)
            return _client_flags(args, module, pipeline, cached)

    # Function-granular incrementality: with a store, look for the last
    # solved solution of this configuration and plan a warm re-solve of
    # just the edit's dirty closure (DESIGN.md §14).  The freshly solved
    # program is captured back into the store for the next edit.
    warm_plan = None
    incr_store = None
    if store is not None and args.analysis in ("sfs", "vsfs") \
            and args.resume is None:
        import os

        from repro.incremental import IncrementalStore, plan_warm

        incr_store = IncrementalStore(
            os.path.join(args.store, "incremental"))
        try:
            payload = incr_store.load(args.analysis, delta, ptrepo)
        except CheckpointError as err:
            if args.strict_io:
                raise
            from repro.engine.events import heal_event

            pipeline.engine.ctx.bus.emit(heal_event(
                f"solve:{args.analysis}", "io", "recompute",
                point="incremental_load", error=type(err).__name__,
                reason=err.reason))
            print(f"repro-wpa: warning: stale incremental solution "
                  f"quarantined ({err.reason}); solving cold",
                  file=sys.stderr)
            payload = None
        if payload is not None:
            warm_plan = plan_warm(
                payload, pipeline.svfg(), pipeline.modref(),
                args.analysis, delta, ptrepo, pipeline.andersen())
            if not warm_plan.usable:
                print(f"repro-wpa: notice: incremental plan fell back "
                      f"({warm_plan.fallback_reason}); solving cold",
                      file=sys.stderr)

    checkpoint = _checkpoint_config(args)
    resume_meta = resume_state = None
    if args.resume is not None:
        resume_meta, resume_state = _load_resume_state(
            module, args.analysis, args.resume, checkpoint, delta, ptrepo)

    result = solve_with_ladder(
        pipeline,
        analysis=ladder_analysis,
        budget=_budget_from(args),
        fallback=not args.no_fallback,
        delta=delta,
        ptrepo=ptrepo,
        checkpoint=checkpoint,
        resume_state=resume_state,
        resume_meta=resume_meta,
        jobs=jobs,
        parallel_mode=args.parallel_mode,
        warm_plan=warm_plan,
        capture_regions=incr_store is not None,
    )
    run_report = result.report
    if run_report.precision_lost:
        print(f"repro-wpa: warning: {run_report.summary()}", file=sys.stderr)
    elif run_report.degraded:
        # A parallel rung collapsed onto its serial twin: bit-identical
        # result at full precision, so a notice rather than a warning.
        print(f"repro-wpa: notice: {run_report.summary()} "
              f"(bit-identical serial result)", file=sys.stderr)
    if run_report.resumed:
        print(f"repro-wpa: resumed from step {run_report.resumed_from_step}",
              file=sys.stderr)
    if store is not None and not run_report.precision_lost:
        try:
            path = IO_RETRY.run(
                lambda: store.put(module, args.analysis, delta, ptrepo,
                                  result))
        except OSError as err:
            from repro.engine.events import heal_event

            pipeline.engine.ctx.bus.emit(heal_event(
                f"solve:{args.analysis}", "io", "skip-write",
                point="result_store_put", error=type(err).__name__))
            print(f"repro-wpa: warning: result not stored "
                  f"({type(err).__name__}: {err}); continuing",
                  file=sys.stderr)
        else:
            print(f"repro-wpa: result stored at {path}", file=sys.stderr)
    incr = run_report.incremental
    if incr and not incr.get("fallback_reason"):
        print(f"repro-wpa: incremental: {incr['regions_reused']}/"
              f"{incr['regions_total']} regions reused, "
              f"{len(incr['dirty_functions'])} dirty function(s), "
              f"{incr['steps_saved']} solver steps saved", file=sys.stderr)
    capture = getattr(result, "incremental_capture", None)
    if incr_store is not None and capture is not None \
            and getattr(result.stats, "analysis", None) == args.analysis:
        from repro.incremental import build_payload

        try:
            payload = build_payload(
                pipeline.svfg(), pipeline.modref(), result,
                capture["node_in"], capture["node_out"], capture["flow"],
                args.analysis, delta, ptrepo, pipeline.andersen())
            IO_RETRY.run(lambda: incr_store.save(payload))
        except OSError as err:
            print(f"repro-wpa: warning: incremental solution not stored "
                  f"({type(err).__name__}: {err}); continuing",
                  file=sys.stderr)
    _print_result(args, result, run_report)
    print(f"peak memory (RSS): {_peak_rss_kib()} KiB")

    if args.report:
        print(run_report.render())
    if args.trace:
        print(pipeline.trace.render())
    if args.report_json:
        _write_report_json(args.report_json, run_report,
                           trace=pipeline.trace)
    return _client_flags(args, module, pipeline, result)


def _peak_rss_kib() -> int:
    """This process's peak resident set size so far, in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak // 1024 if sys.platform == "darwin" else peak


def _print_result(args: argparse.Namespace, result, run_report) -> None:
    stats = result.stats
    label = getattr(stats, "analysis", "ander")
    if args.analysis == "ander":
        print(f"[ander] solve time: {result.stats.solve_time:.4f}s, "
              f"processed nodes: {result.stats.processed_nodes}, "
              f"copy edges: {result.stats.copy_edges}")
    elif label == "icfg-fs":
        print(f"[icfg-fs] solve time: {stats.solve_time:.4f}s, "
              f"propagations: {stats.propagations}, stored sets: {stats.stored_ptsets}")
    elif label == "andersen":
        # Degraded: Andersen floor repackaged as a flow-sensitive result.
        degraded_from = run_report.degraded_from if run_report else None
        print(f"[andersen] fallback result (degraded from "
              f"{degraded_from}): "
              f"call edges: {stats.callgraph_edges}, "
              f"top-level bits: {stats.top_level_bits}")
    else:
        print(f"[{label}] main phase: {stats.solve_time:.4f}s"
              + (f", versioning: {stats.pre_time:.4f}s" if label == "vsfs" else ""))
        print(f"[{label}] propagations: {stats.propagations}, unions: {stats.unions}, "
              f"stored points-to sets: {stats.stored_ptsets}")
        print(f"[{label}] strong updates: {stats.strong_updates}, "
              f"call edges: {stats.callgraph_edges}")
        parallel = getattr(result, "parallel", None)
        if parallel is not None:
            per_worker = ", ".join(
                f"w{w['worker']}: {w['pops']} pops/{w['solve_s']:.3f}s"
                for w in parallel.workers)
            print(f"[{label}] parallel: {parallel.jobs} workers "
                  f"({parallel.mode}), {parallel.shards} shards over "
                  f"{parallel.components} SCCs, {parallel.rounds} rounds, "
                  f"{parallel.frontier_entries} frontier entries")
            print(f"[{label}] per-worker: {per_worker}")


def _write_report_json(path: str, run_report, store_hit: bool = False,
                       trace=None) -> None:
    from repro.store.atomic import atomic_write_json

    payload = {"store_hit": store_hit,
               "report": run_report.to_dict() if run_report else None,
               # Lifted out of the report for one-line CI assertions.
               "incremental": (run_report.incremental
                               if run_report is not None else None),
               "stages": trace.to_dict() if trace is not None else None,
               "self_heal": list(getattr(trace, "heals", []) or [])}
    atomic_write_json(path, payload)


def _client_flags(args: argparse.Namespace, module, pipeline, result) -> int:
    """The post-solve flags; shared by the solve and store-hit paths."""
    if args.profile:
        from repro.solvers.base import SolverStats

        stats = getattr(result, "stats", None)
        if not isinstance(stats, SolverStats):
            print("--profile needs a staged analysis (-fspta or -vfspta)",
                  file=sys.stderr)
            return 1
        print("--- solver profile ---")
        print(f"delta kernel: {'on' if stats.delta_kernel else 'off'}, "
              f"points-to repository: {'on' if stats.ptrepo_enabled else 'off'}")
        print(f"nodes processed: {stats.nodes_processed}, "
              f"propagations: {stats.propagations}, unions applied: {stats.unions}")
        print(f"stored points-to sets: {stats.stored_ptsets} "
              f"({stats.stored_ptset_bits} bits)")
        if stats.ptrepo_enabled:
            print(f"unique points-to sets: {stats.unique_ptsets} "
                  f"({stats.unique_ptset_bits} bits), "
                  f"dedup ratio: {stats.dedup_ratio():.2f}x")
            print(f"union cache: {stats.union_cache_hits} hits / "
                  f"{stats.union_cache_misses} misses "
                  f"({stats.union_cache_hit_rate():.1%} hit rate)")
            print(f"batch memo: {'on' if stats.mde_batch else 'off'}, "
                  f"{stats.batch_memo_hits} hits / "
                  f"{stats.batch_memo_misses} misses "
                  f"({stats.batch_memo_hit_rate():.1%} hit rate)")
            print(f"dedup memory: {stats.interner_entries} interned sets, "
                  f"{stats.union_cache_entries} union-cache entries, "
                  f"{stats.batch_cache_entries} batch-memo entries, "
                  f"~{stats.dedup_resident_bytes} resident bytes")
            if stats.arena_masks:
                print(f"arena: {stats.arena_masks} masks, "
                      f"{stats.arena_resident_bytes} resident bytes "
                      f"(memory-mapped, shared across runs/workers)")
        incr = getattr(result, "incremental", None)
        if incr is not None:
            entry = incr.to_dict()
            if entry.get("fallback_reason"):
                print(f"incremental: cold solve "
                      f"(fallback={entry['fallback_reason']})")
            else:
                print(f"incremental: {entry['regions_reused']}/"
                      f"{entry['regions_total']} regions reused, "
                      f"{entry['regions_recomputed']} recomputed; "
                      f"{entry['nodes_dirty']}/{entry['nodes_total']} "
                      f"nodes dirty")
                print(f"incremental: dirty functions: "
                      f"{', '.join(entry['dirty_functions']) or '(none)'}")
                print(f"incremental: warm steps: {entry['warm_steps']} "
                      f"(cold baseline {entry['cold_steps_baseline']}, "
                      f"saved {entry['steps_saved']})")

    if args.stats:
        svfg_stats = pipeline.svfg().stats()
        print(f"SVFG: {svfg_stats.num_nodes} nodes, "
              f"{svfg_stats.num_direct_edges} direct edges, "
              f"{svfg_stats.num_indirect_edges} indirect edges, "
              f"{svfg_stats.num_top_level_vars} top-level vars, "
              f"{svfg_stats.num_address_taken_vars} address-taken vars, "
              f"{svfg_stats.num_delta_nodes} delta nodes")

    if args.dump_pts:
        for var in module.variables:
            pts = result.points_to(var) if hasattr(result, "points_to") else set()
            if pts:
                names = ", ".join(sorted(obj.name for obj in pts))
                print(f"pt({var!r}) = {{{names}}}")

    if args.check_null:
        from repro.clients.nullderef import find_null_derefs
        from repro.solvers.base import FlowSensitiveResult

        if not isinstance(result, FlowSensitiveResult):
            print("--check-null needs a flow-sensitive analysis", file=sys.stderr)
            return 1
        report = find_null_derefs(module, result, pipeline.andersen())
        print(f"null-dereference warnings: {len(report)} "
              f"({len(report.flow_sensitive_only())} invisible to Andersen)")
        for warning in report:
            print(f"  {warning.describe()}")

    if args.dead_stores:
        from repro.clients.deadstore import find_dead_stores

        report = find_dead_stores(module, pipeline.svfg())
        print(f"dead stores: {len(report)} (observable: {report.observable})")
        for dead in report:
            print(f"  {dead.describe()}")

    if args.dot_svfg:
        from repro.core.versioning import ObjectVersioning
        from repro.store.atomic import atomic_write_text
        from repro.viz.dot import svfg_to_dot

        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg, keep_all_versions=True).run()
        atomic_write_text(args.dot_svfg, svfg_to_dot(svfg,
                                                     versioning=versioning))
        print(f"SVFG written to {args.dot_svfg}")

    if args.dot_callgraph:
        from repro.store.atomic import atomic_write_text
        from repro.viz.dot import callgraph_to_dot

        graph = result.callgraph if hasattr(result, "callgraph") else pipeline.andersen().callgraph
        atomic_write_text(args.dot_callgraph, callgraph_to_dot(graph))
        print(f"call graph written to {args.dot_callgraph}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
