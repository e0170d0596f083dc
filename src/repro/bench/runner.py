"""End-to-end experiment driver for the suite benchmarks.

Replicates the paper's measurement protocol: the auxiliary (Andersen)
analysis, memory SSA and SVFG construction are *excluded* from the SFS/VSFS
"main phase" times; VSFS's versioning time is reported separately (Table
III's "ver." column).  Solves run through the stage-graph engine, so each
solver gets its own copy of the shared SVFG build (on-the-fly call graph
resolution mutates the graph) and every run is traced — the JSON output
embeds the per-stage wall/steps breakdown with substrate stages marked
``main_phase: false``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.metrics import BenchmarkMeasurement, measure_analysis
from repro.bench.workloads import SUITE, suite_program, suite_source_loc
from repro.pipeline import AnalysisPipeline
from repro.runtime.budget import Budget
from repro.runtime.degrade import andersen_as_flow_sensitive, run_ladder
from repro.svfg.builder import SVFGStats


@dataclass
class SuiteResult:
    """All measurements for one benchmark program."""

    name: str
    description: str
    loc: int
    svfg_stats: SVFGStats
    andersen_time: float
    sfs: BenchmarkMeasurement
    vsfs: BenchmarkMeasurement

    def vsfs_main_time(self) -> float:
        if self.vsfs.stats is not None:
            return self.vsfs.stats.solve_time
        return self.vsfs.wall_time

    def time_speedup(self) -> float:
        """SFS main-phase time over VSFS total (versioning + main) time."""
        vsfs_total = self.vsfs.wall_time
        return self.sfs.wall_time / vsfs_total if vsfs_total > 0 else 0.0

    def memory_ratio(self) -> float:
        return (
            self.sfs.peak_bytes / self.vsfs.peak_bytes
            if self.vsfs.peak_bytes > 0
            else 0.0
        )

    def propagation_ratio(self) -> float:
        """SFS indirect propagations over VSFS's — the core saving."""
        vsfs_props = max(self.vsfs.propagations, 1)
        return self.sfs.propagations / vsfs_props

    def stored_sets_ratio(self) -> float:
        vsfs_sets = max(self.vsfs.stored_ptsets, 1)
        return self.sfs.stored_ptsets / vsfs_sets

    def precision_identical(self) -> bool:
        """Filled by run_suite_program: SFS and VSFS agree on every var."""
        return self._identical

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record: per-program times, counters, dedup stats."""

        def measurement(meas: BenchmarkMeasurement) -> Dict[str, object]:
            record: Dict[str, object] = {
                "wall_time_s": meas.wall_time,
                "peak_bytes": meas.peak_bytes,
            }
            stats = meas.stats
            if stats is not None:
                record.update(
                    pre_time_s=stats.pre_time,
                    solve_time_s=stats.solve_time,
                    nodes_processed=stats.nodes_processed,
                    propagations=stats.propagations,
                    unions=stats.unions,
                    strong_updates=stats.strong_updates,
                    weak_updates=stats.weak_updates,
                    stored_ptsets=stats.stored_ptsets,
                    stored_ptset_bits=stats.stored_ptset_bits,
                    unique_ptsets=stats.unique_ptsets,
                    unique_ptset_bits=stats.unique_ptset_bits,
                    dedup_ratio=stats.dedup_ratio(),
                    union_cache_hits=stats.union_cache_hits,
                    union_cache_misses=stats.union_cache_misses,
                    union_cache_hit_rate=stats.union_cache_hit_rate(),
                    delta_kernel=stats.delta_kernel,
                    ptrepo_enabled=stats.ptrepo_enabled,
                    mde_batch=stats.mde_batch,
                    batch_memo_hits=stats.batch_memo_hits,
                    batch_memo_misses=stats.batch_memo_misses,
                    batch_memo_hit_rate=stats.batch_memo_hit_rate(),
                    interner_entries=stats.interner_entries,
                    union_cache_entries=stats.union_cache_entries,
                    batch_cache_entries=stats.batch_cache_entries,
                    dedup_resident_bytes=stats.dedup_resident_bytes,
                    arena_masks=stats.arena_masks,
                    arena_resident_bytes=stats.arena_resident_bytes,
                )
            if meas.report is not None:
                record["run_report"] = meas.report.to_dict()
            return record

        svfg = self.svfg_stats
        return {
            "name": self.name,
            "description": self.description,
            "loc": self.loc,
            "svfg": {
                "nodes": svfg.num_nodes,
                "direct_edges": svfg.num_direct_edges,
                "indirect_edges": svfg.num_indirect_edges,
                "top_level_vars": svfg.num_top_level_vars,
                "address_taken_vars": svfg.num_address_taken_vars,
            },
            "andersen_time_s": self.andersen_time,
            "sfs": measurement(self.sfs),
            "vsfs": measurement(self.vsfs),
            "ratios": {
                "time_speedup": self.time_speedup(),
                "memory_ratio": self.memory_ratio(),
                "propagation_ratio": self.propagation_ratio(),
                "stored_sets_ratio": self.stored_sets_ratio(),
            },
            "precision_identical": self.precision_identical(),
            "parallel": self.parallel_runs or None,
            "stages": self.stages,
        }

    _identical: bool = field(default=True, repr=False)
    #: Sharded-solve comparisons (``--jobs``): analysis -> list of
    #: per-worker-count records with wall times, speedups, the driver's
    #: :class:`~repro.parallel.driver.ParallelStats` (per-worker timings
    #: included) and a bit-identity check against the serial result.
    parallel_runs: Dict[str, List[Dict[str, object]]] = field(
        default_factory=dict, repr=False)
    #: Per-stage wall/steps trace from the pipeline's engine (substrate
    #: stages carry ``main_phase: false`` — excluded from the timed main
    #: phase, matching Table III's protocol).  Records made by a measured
    #: run carry ``pass``: ``"time"`` (untraced) or ``"memory"``
    #: (allocation-traced); records made outside both passes (the shared
    #: substrate, the ``--jobs`` comparisons) carry none.
    stages: Optional[List[Dict[str, object]]] = field(default=None, repr=False)


def run_suite_program(name: str, check_equivalence: bool = True,
                      budget: Optional[Budget] = None,
                      jobs: Sequence[int] = ()) -> SuiteResult:
    """Build, analyse, and measure one suite benchmark.

    Every solver run is governed by the degradation ladder so each
    measurement carries a :class:`~repro.runtime.diagnostics.RunReport`;
    with *budget*, a run that exhausts it degrades to the (already
    computed) Andersen floor instead of failing the suite.

    With *jobs* (e.g. ``(2, 4)``), each staged analysis is additionally
    solved on that many sharded workers (:mod:`repro.parallel`) and the
    parallel wall time, per-worker timings and bit-identity against the
    serial result are recorded under ``parallel_runs``.
    """
    config = SUITE[name]
    module = suite_program(name)
    pipeline = AnalysisPipeline(module)
    andersen = pipeline.andersen()
    pipeline.memssa()  # shared, excluded from main-phase time
    svfg_stats = pipeline.svfg().stats()

    # The paper excludes auxiliary analysis, memory SSA and SVFG
    # construction from the measured phase; the engine builds that
    # substrate once and hands every solve its own copy of the SVFG
    # (OTF call graph resolution mutates it).
    sfs_solver_holder = {}
    vsfs_solver_holder = {}

    def governed(label: str):
        """Run one engine solve under the ladder; tag the result."""
        # Fresh dedup engine per measurement: rungs *within* one governed
        # run still share it (that is the cross-rung hash-consing under
        # test), but the sfs and vsfs columns must not warm each other or
        # Table III's comparison loses meaning.
        pipeline.engine.ctx.mde = None
        method = pipeline.sfs if label == "sfs" else pipeline.vsfs
        result, report = run_ladder(
            [
                (label, lambda meter: method(meter=meter)),
                ("andersen",
                 lambda meter: andersen_as_flow_sensitive(
                     andersen, degraded_from=label)),
            ],
            budget=budget,
            requested=label,
        )
        result.precision_level = report.precision_level
        result.degraded_from = report.degraded_from
        result.report = report
        return result

    def run_sfs_time():
        sfs_solver_holder["result"] = governed("sfs")
        return sfs_solver_holder["result"]

    def run_vsfs_time():
        vsfs_solver_holder["result"] = governed("vsfs")
        return vsfs_solver_holder["result"]

    # measure_analysis times one run untraced and traces another; label
    # the stage records each run leaves so the (several-fold slower)
    # traced solves are never read as timings.
    passes: Dict[int, str] = {}

    def in_pass(name: str, thunk):
        def run():
            first = len(pipeline.trace.records)
            try:
                return thunk()
            finally:
                for index in range(first, len(pipeline.trace.records)):
                    passes[index] = name
        return run

    sfs_measure = measure_analysis(
        "sfs", in_pass("time", run_sfs_time),
        memory_thunk=in_pass("memory", lambda: governed("sfs")),
    )
    vsfs_measure = measure_analysis(
        "vsfs", in_pass("time", run_vsfs_time),
        memory_thunk=in_pass("memory", lambda: governed("vsfs")),
    )

    result = SuiteResult(
        name=name,
        description=config.description,
        loc=suite_source_loc(name),
        svfg_stats=svfg_stats,
        andersen_time=andersen.stats.solve_time,
        sfs=sfs_measure,
        vsfs=vsfs_measure,
    )
    if check_equivalence:
        sfs_pt = sfs_solver_holder["result"]._pt
        vsfs_pt = vsfs_solver_holder["result"]._pt
        result._identical = sfs_pt == vsfs_pt

    for label in ("sfs", "vsfs") if jobs else ():
        serial = (sfs_solver_holder if label == "sfs"
                  else vsfs_solver_holder).get("result")
        method = pipeline.sfs_par if label == "sfs" else pipeline.vsfs_par
        # Serial main phase = solve_time (+ versioning for VSFS, which the
        # parallel driver folds into its wall via the shared snapshot).
        serial_wall = (serial.stats.solve_time if serial is not None else 0.0)
        if label == "vsfs" and serial is not None:
            serial_wall += serial.stats.pre_time
        runs: List[Dict[str, object]] = []
        for n in jobs:
            pipeline.engine.ctx.mde = None  # cold per worker-count run
            par = method(jobs=n)
            pstats = par.parallel
            runs.append({
                "jobs": n,
                "wall_s": round(pstats.wall_s, 6),
                "serial_wall_s": round(serial_wall, 6),
                "speedup": round(serial_wall / pstats.wall_s, 4)
                if pstats.wall_s > 0 else 0.0,
                "identical": (serial is not None
                              and par._pt == serial._pt),
                "solve_time_s": round(par.stats.solve_time, 6),
                "parallel": pstats.to_dict(),
            })
        result.parallel_runs[label] = runs

    result.stages = pipeline.trace.to_dict()
    for index, name in passes.items():
        result.stages[index]["pass"] = name
    return result


def write_results_json(results: List[SuiteResult], path: str) -> None:
    """Write ``BENCH_table3.json``-style output for downstream tooling.

    Written atomically (temp file + fsync + rename): a crash or kill
    mid-write can never leave a truncated half-JSON where downstream
    tooling expects results — the previous file, if any, survives intact.
    """
    from repro.store.atomic import atomic_write_json

    import os

    payload = {
        "suite": [res.to_dict() for res in results],
        "programs": [res.name for res in results],
        #: Parallel speedups are bounded by the host: on one CPU the only
        #: win is the staged sweep's work reduction (see DESIGN.md §10).
        "cpus": os.cpu_count(),
    }
    atomic_write_json(path, payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.bench.runner [--json [PATH]] [PROGRAM ...]``."""
    import argparse

    from repro.bench.tables import format_table3

    parser = argparse.ArgumentParser(
        prog="repro.bench.runner",
        description="Run the suite benchmarks and print the Table III summary.",
    )
    parser.add_argument(
        "programs", nargs="*", metavar="PROGRAM",
        help=f"suite programs to run (default: all of {', '.join(SUITE)})",
    )
    parser.add_argument(
        "--json", nargs="?", const="BENCH_table3.json", default=None,
        metavar="PATH",
        help="also write per-program times, counters and dedup stats as "
             "JSON (default path: BENCH_table3.json)",
    )
    parser.add_argument("--budget-seconds", type=float, metavar="S",
                        help="per-run wall-clock budget (degrades to the "
                             "Andersen floor on exhaustion)")
    parser.add_argument("--budget-mb", type=float, metavar="MB",
                        help="per-run traced-memory budget")
    parser.add_argument("--max-steps", type=int, metavar="N",
                        help="per-run solver step budget")
    parser.add_argument("--jobs", default=None, metavar="N[,N...]",
                        help="additionally solve each program on these "
                             "sharded worker counts (e.g. 2,4) and record "
                             "parallel-vs-serial walls, per-worker timings "
                             "and bit-identity in the JSON output")
    args = parser.parse_args(argv)

    if args.json in SUITE:
        # argparse greedily binds "--json du" as the PATH; a bare suite
        # program name is never a sensible output file, so catch the slip
        # instead of silently running all 15 programs.
        parser.error(
            f"--json consumed suite program {args.json!r} as its PATH; "
            f"use --json=PATH or place --json after the program names"
        )
    names = args.programs or list(SUITE)
    unknown = [name for name in names if name not in SUITE]
    if unknown:
        parser.error(f"unknown suite program(s): {', '.join(unknown)}")

    budget = None
    if args.budget_seconds is not None or args.budget_mb is not None \
            or args.max_steps is not None:
        max_memory = None
        if args.budget_mb is not None:
            max_memory = int(args.budget_mb * 1024 * 1024)
        budget = Budget(wall_seconds=args.budget_seconds,
                        max_steps=args.max_steps,
                        max_memory_bytes=max_memory)

    jobs: List[int] = []
    if args.jobs:
        try:
            jobs = sorted({max(1, int(part))
                           for part in args.jobs.split(",") if part.strip()})
        except ValueError:
            parser.error(f"--jobs wants worker counts like 2,4; "
                         f"got {args.jobs!r}")

    results = [run_suite_program(name, budget=budget, jobs=jobs)
               for name in names]
    print(format_table3(results))
    for res in results:
        for label, runs in res.parallel_runs.items():
            for run in runs:
                marker = "" if run["identical"] else "  RESULT MISMATCH"
                print(f"parallel {res.name} {label} --jobs {run['jobs']}: "
                      f"{run['wall_s']:.3f}s vs serial "
                      f"{run['serial_wall_s']:.3f}s "
                      f"({run['speedup']:.2f}x){marker}")
    degradations = [
        (res.name, meas.report)
        for res in results
        for meas in (res.sfs, res.vsfs)
        if meas.report is not None and meas.report.degraded
    ]
    for name, report in degradations:
        print(f"NOTE: {name}: {report.summary()}")
    if args.json is not None:
        write_results_json(results, args.json)
        print(f"wrote {args.json}")
    parallel_ok = all(run["identical"]
                      for res in results
                      for runs in res.parallel_runs.values()
                      for run in runs)
    if budget is not None:
        # Degraded runs legitimately differ in precision; the budgeted
        # suite succeeds as long as every program produced an answer.
        return 0 if parallel_ok else 1
    return 0 if (parallel_ok
                 and all(res.precision_identical() for res in results)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
