"""Traced answer: one real ``repro-wpa`` answer, split by layer.

Run by ``run.py --trace 1`` in a fresh process per program::

    PYTHONPATH=src python3 wpabench/layers.py --out layers.json -- \
        -vfspta --check-null --dump-pts [--store DIR] prog.c

It runs the CLI's own entry point (``repro.cli.main``) in-process on the
given arguments plus ``--report-json``, so the traced answer takes the
path a user's answer takes: the CLI's ``tracemalloc``, the stage cache,
the mask arena and the result and incremental stores included.  The
answer is printed to standard output as the CLI prints it.

The layer times come from what the CLI reports itself:

- every substrate stage's wall time from the engine's stage trace in
  the ``--report-json`` file, less the stage-cache reads and writes
  made inside it;
- the versioning and solve times from the solver's own statistics
  (``pre_time`` and ``solve_time``, which the CLI prints).

Thin timers wrapped around a few library functions add what the trace
does not split out: the SVFG copy the solver works on, the warm plan,
the capture of the solved program, the null client, and every store
read and write.  ``gc.callbacks`` time the collector's pauses.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time

#: Substrate stage of the engine's trace -> its layer metric.
STAGE_SPANS = {
    "parse": "frontend.parse_s",
    "prepare": "passes.prepare_s",
    "andersen": "analysis.andersen_s",
    "modref": "analysis.modref_s",
    "memssa": "memssa.build_s",
    "svfg": "svfg.build_s",
    "versioning": "core.versioning_s",
}


class Probes:
    """Timers wrapped around library functions, plus the collector."""

    def __init__(self):
        self.times = {}
        self.cache_io = {}  # stage name -> stage-cache I/O inside it
        self.kept = {}
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start = None
        self._active = False

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def wrap(self, owner, attr, metric=None, keep=None, stage_arg=None):
        """Time ``owner.attr`` under *metric*; keep its call under *keep*.

        Only the outermost timed call counts, so nested wrapped calls
        are never counted twice.  With *stage_arg*, the time is also
        charged to the engine stage passed as that positional argument.
        """
        static = isinstance(owner.__dict__.get(attr),
                            (classmethod, staticmethod))
        inner = getattr(owner, attr)
        probes = self

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            if metric is None or probes._active:
                value = inner(*args, **kwargs)
            else:
                value = probes._timed(inner, args, kwargs, metric, stage_arg)
            if keep is not None:
                probes.kept[keep] = (args, value)
            return value

        setattr(owner, attr, staticmethod(timed) if static else timed)

    def _timed(self, inner, args, kwargs, metric, stage_arg):
        self._active = True
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._active = False
            self.times[metric] = self.times.get(metric, 0.0) + elapsed
            if stage_arg is not None:
                name = args[stage_arg].name
                self.cache_io[name] = self.cache_io.get(name, 0.0) + elapsed

    def install(self):
        import repro.cli
        import repro.clients.nullderef
        import repro.core.vsfs
        import repro.incremental
        import repro.incremental.deps
        from repro.datastructs.arena import PTArena
        from repro.engine.cache import StageCache
        from repro.incremental.solution import IncrementalStore
        from repro.solvers.base import StagedSolverBase
        from repro.store import ResultStore
        from repro.svfg.builder import SVFG

        self.wrap(SVFG, "copy", "svfg.copy_s")
        self.wrap(repro.clients.nullderef, "find_null_derefs",
                  "clients.nullderef_s")
        self.wrap(repro.incremental, "plan_warm", "incremental.plan_s",
                  keep="plan_warm")
        for owner, attr in ((StagedSolverBase, "export_node_memory"),
                            (repro.incremental.deps, "node_flow_graph"),
                            (repro.incremental, "build_payload")):
            self.wrap(owner, attr, "incremental.capture_s")
        for owner, attr in ((ResultStore, "get"), (IncrementalStore, "load"),
                            (PTArena, "open"), (PTArena, "attach")):
            self.wrap(owner, attr, "store.load_s")
        for owner, attr in ((ResultStore, "put"), (IncrementalStore, "save")):
            self.wrap(owner, attr, "store.save_s")
        self.wrap(StageCache, "lookup", "store.load_s", stage_arg=1)
        self.wrap(StageCache, "store", "store.save_s", stage_arg=1)
        self.wrap(repro.cli, "solve_with_ladder", keep="solve_with_ladder")
        self.wrap(repro.core.vsfs, "version_objects", keep="version_objects")
        gc.callbacks.append(self.on_gc)


def changed_functions(plan_call):
    """Functions whose fingerprint differs from the stored solution's."""
    from repro.ir.fingerprint import module_function_fingerprints

    (payload, svfg, *__), __ = plan_call
    old = payload.get("function_fps", {})
    new = module_function_fingerprints(svfg.module)
    return sorted(name for name in set(old) | set(new)
                  if old.get(name) != new.get(name))


def split(report, probes):
    """The per-layer times and work counters of one finished answer."""
    (pipeline, *__), result = probes.kept["solve_with_ladder"]
    stats = result.stats
    analysis = stats.analysis
    times = dict(probes.times)
    for record in report["stages"]:
        stage = record["stage"]
        if stage.startswith("solve:"):
            continue
        if stage not in STAGE_SPANS:
            raise SystemExit(f"layers: unknown engine stage {stage!r}")
        metric = STAGE_SPANS[stage]
        times[metric] = (times.get(metric, 0.0) + record["wall_s"]
                         - probes.cache_io.get(stage, 0.0))
    times["core.versioning_s"] = (times.get("core.versioning_s", 0.0)
                                  + stats.pre_time)
    solve = ("incremental.warm_solve_s" if "plan_warm" in probes.kept
             else "core.vsfs_solve_s" if analysis == "vsfs"
             else "solvers.sfs_solve_s")
    times[solve] = stats.solve_time

    svfg_stats = pipeline.svfg().stats()
    prefix = "core.vsfs_" if analysis == "vsfs" else "solvers.sfs_"
    counters = {
        "svfg.nodes": svfg_stats.num_nodes,
        "svfg.indirect_edges": svfg_stats.num_indirect_edges,
        prefix + "nodes_processed": stats.nodes_processed,
        prefix + "propagations": stats.propagations,
        prefix + "unions": stats.unions,
        "datastructs.stored_ptsets": stats.stored_ptsets,
        "datastructs.batch_memo_hits": stats.batch_memo_hits,
        "datastructs.batch_memo_misses": stats.batch_memo_misses,
        "datastructs.union_cache_hits": stats.union_cache_hits,
        "datastructs.union_cache_misses": stats.union_cache_misses,
    }
    if analysis == "vsfs":
        __, versioning = probes.kept["version_objects"]
        counters["core.meld_steps"] = versioning.stats.meld_steps
        counters["core.versions"] = versioning.stats.versions
    incremental = report.get("incremental")
    if incremental:
        counters["incremental.regions_reused"] = incremental["regions_reused"]
        counters["incremental.regions_total"] = incremental["regions_total"]
        counters["incremental.steps_saved"] = incremental["steps_saved"]
        counters["incremental.dirty_functions"] = len(
            incremental["dirty_functions"])
    return times, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- then the repro-wpa arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    report_path = args.out + ".report.json"

    from repro.cli import main as cli_main

    probes = Probes()
    probes.install()
    code = cli_main(cli_args + ["--report-json", report_path])
    gc.callbacks.remove(probes.on_gc)
    if code != 0:
        return code
    with open(report_path) as handle:
        report = json.load(handle)
    os.remove(report_path)
    if report["store_hit"]:
        raise SystemExit("layers: the answer came from the result store")
    times, counters = split(report, probes)
    record = {"times": times, "counters": counters,
              "gc_pause_s": probes.gc_pause, "gc_gen2": probes.gc_gen2,
              "self_heal": len(report["self_heal"])}
    if "plan_warm" in probes.kept:
        record["changed_functions"] = changed_functions(
            probes.kept["plan_warm"])
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
