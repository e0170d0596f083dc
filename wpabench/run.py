#!/usr/bin/env python3
"""wpabench — what a ``repro-wpa`` user pays: source in, answer out.

Run from the root of a checkout of this repository::

    python3 wpabench/run.py --workload vsfs-cold --seed 1 --seconds 24 --trace 0

The benchmark is one single-threaded process running a closed loop with
concurrency 1: every answer is a fresh ``python -m repro.cli FLAG
--check-null --dump-pts prog.c`` child (serial, no ``--jobs``), timed
from spawn to exit, with its CPU time and peak RSS taken from
``os.wait4``.  Each answer's output is checked against a reference
computed in set-up with the library (``programs.py``).  With
``--trace 1`` a separate traced pass (``layers.py``) answers once more
per program through the same CLI entry point, in two fresh processes,
splits each answer by layer, and reports the per-layer metrics instead
of the end-to-end ones.

The last line of standard output is the JSON result; the lines before it
record the host, the per-program detail rows and the work counters.
See ``NOTES.md`` for the workloads, the metrics and the protocol.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: name -> (CLI flag, size classes, oracle analysis, edit chain?)
WORKLOADS = {
    "vsfs-cold": ("-vfspta", ("nano", "psql", "tmux"), "sfs", False),
    "sfs-cold": ("-fspta", ("nano", "psql", "tmux"), "vsfs", False),
    "vsfs-edit": ("-vfspta", ("psql",), "vsfs", True),
}

END_TO_END = {
    "answer_s_gmean": "s",
    "answer_cpu_s_gmean": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "answers_ok_frac": "frac",
}

#: Per-layer metrics; every timed layer span is a ``*_s`` name here.
PER_LAYER = {
    "frontend.parse_s": "s",
    "passes.prepare_s": "s",
    "analysis.andersen_s": "s",
    "analysis.modref_s": "s",
    "memssa.build_s": "s",
    "svfg.build_s": "s",
    "svfg.copy_s": "s",
    "svfg.nodes": "count",
    "svfg.indirect_edges": "count",
    "core.versioning_s": "s",
    "core.meld_steps": "count",
    "core.versions": "count",
    "core.vsfs_solve_s": "s",
    "core.vsfs_nodes_processed": "count",
    "core.vsfs_propagations": "count",
    "solvers.sfs_solve_s": "s",
    "solvers.sfs_nodes_processed": "count",
    "solvers.sfs_propagations": "count",
    "solvers.sfs_unions": "count",
    "datastructs.batch_memo_hit_frac": "frac",
    "datastructs.union_cache_hit_frac": "frac",
    "datastructs.stored_ptsets": "count",
    "clients.nullderef_s": "s",
    "incremental.plan_s": "s",
    "incremental.capture_s": "s",
    "incremental.warm_solve_s": "s",
    "incremental.regions_reused_frac": "frac",
    "incremental.steps_saved": "count",
    "store.load_s": "s",
    "store.save_s": "s",
    "store.bytes": "bytes",
    "store.quarantined_per_answer": "count",
    "gc.pause_s": "s",
    "gc.pause_frac": "frac",
    "gc.gen2_collections": "count",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "counters.exact_frac": "frac",
}

#: The layer spans ``layers.py`` times (cli.* and gc.* are not spans).
LAYER_SPANS = [name for name, unit in PER_LAYER.items()
               if unit == "s" and not name.startswith(("cli.", "gc."))]

SETUP_REPS = 3
MAX_EDITS = 4
ANSWER_TIMEOUT_S = 90
IMPORT_REPS = 3


class Failure(Exception):
    """The benchmark could not run (not a failed answer)."""


# ----------------------------------------------------------------- children

_child_pid = None


def _on_alarm(signum, frame):
    if _child_pid is not None:
        os.kill(_child_pid, signal.SIGKILL)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, out_path, timeout=ANSWER_TIMEOUT_S):
    """Run *argv* to completion: ``(wall_s, cpu_s, maxrss_kb, exit code)``.

    The child's standard output goes to *out_path*; a child still running
    after *timeout* seconds is killed (and reads as a failed answer).
    """
    global _child_pid
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        _child_pid = proc.pid
        signal.alarm(timeout)
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): never leave the child behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            _child_pid = None
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode)


class Answers:
    """Every measured answer, per program."""

    def __init__(self, work):
        self.work = work
        self.rows = {}
        self.failed = 0
        self.attempted = 0

    def answer(self, flag, program, path, reference, lines, store=None,
               record=True):
        from programs import output_digest

        argv = [sys.executable, "-m", "repro.cli", flag, "--check-null",
                "--dump-pts"]
        if store is not None:
            argv += ["--store", store]
        out_path = os.path.join(self.work, "answer.out")
        wall, cpu, rss_kb, code = spawn(argv + [path], out_path)
        with open(out_path) as handle:
            ok = code == 0 and output_digest(handle.read()) == reference
        if not ok:
            with open(out_path + ".err") as handle:
                tail = handle.read()[-2000:]
            print(f"failed answer: {program} {path} exit={code}\n{tail}",
                  file=sys.stderr)
        if record:
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.rows.setdefault(program, []).append(
                {"wall": wall, "cpu": cpu, "rss_mb": rss_kb / 1024.0,
                 "lines": lines})
        return ok, wall

    def per_program(self):
        return {name: {"n": len(rows),
                       "wall": statistics.median(r["wall"] for r in rows),
                       "cpu": statistics.median(r["cpu"] for r in rows),
                       "rss_mb": statistics.median(r["rss_mb"] for r in rows),
                       "p_hi": admissible_percentile([r["wall"] for r in rows])}
                for name, rows in self.rows.items()}


def admissible_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for pct in (90, 99, 99.9):
        if len(values) * (1 - pct / 100.0) >= 10:
            ordered = sorted(values)
            best = {"pct": pct,
                    "value": ordered[min(len(ordered) - 1,
                                         int(len(ordered) * pct / 100.0))]}
    return best


def gmean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ------------------------------------------------------------------- set-up

def write(path, text):
    with open(path, "w") as handle:
        handle.write(text)
    return path


def prepare_inputs(workload, seed, smoke, work):
    """Generate the sources and their reference digests.

    An edit chain always starts from the class's centre program: with a
    single program no geometric mean averages out a draw's size, so the
    seed varies only the chain.
    """
    from programs import POOLS, edit_chain, generator_seed, \
        program_source, reference_digest

    __, classes, oracle, edits = WORKLOADS[workload]
    if smoke:
        classes = classes[:1]
    programs = []
    for name in classes:
        gen_seed = POOLS[name][0] if edits else generator_seed(seed, name)
        source = program_source(name, gen_seed)
        programs.append({
            "name": name, "gen_seed": gen_seed,
            "path": write(os.path.join(work, f"{name}.c"), source),
            "lines": source.count("\n"),
            "reference": reference_digest(source, oracle),
        })
    if not edits:
        return programs, []
    # An edit workload has one program, *source*.  Its chain holds the
    # measured edits, with their references, then one spare edit: the
    # traced pass answers the edit after the last measured one.
    measured = 1 if smoke else MAX_EDITS
    chain = edit_chain(source, seed, measured + 1)
    for step, edit in enumerate(chain):
        edit["path"] = write(os.path.join(work, f"edit{step}.c"),
                             edit["source"])
        if step < measured:
            edit["reference"] = reference_digest(edit["source"], oracle)
    return programs, chain


def setup(workload, seed, smoke, work, answers):
    """Returns ``(programs, chain, setup_s, store)``.

    Input preparation runs ``SETUP_REPS`` times with the collector paused
    (and one collection at the end of each repetition); its median plus
    the warm-up answer is ``setup_s``.
    """
    flag = WORKLOADS[workload][0]
    reps = []
    for rep in range(1 if smoke else SETUP_REPS):
        start = time.perf_counter()
        gc.disable()
        try:
            programs, chain = prepare_inputs(workload, seed, smoke, work)
        finally:
            gc.enable()
            gc.collect()
        reps.append(time.perf_counter() - start)
        references = [p["reference"] for p in programs + chain
                      if "reference" in p]
        if rep == 0:
            first = references
        elif references != first:
            raise Failure("set-up is not deterministic: references differ "
                          "between repetitions")
    # The warm-up answer; for an edit chain it is the cold answer that
    # fills a fresh store.
    store = os.path.join(work, "store") if chain else None
    base = programs[0]
    ok, wall = answers.answer(flag, base["name"], base["path"],
                              base["reference"], base["lines"], store=store,
                              record=False)
    setup_s = statistics.median(reps) + wall
    print("setup: " + json.dumps({"prepare_s": reps, "warm_up_s": wall,
                                  "warm_up_program": base["name"]}))
    if not ok:
        answers.failed += 1
        answers.attempted += 1
    return programs, chain, setup_s, store


# --------------------------------------------------------------- measuring

def count_quarantined(store):
    return sum(1 for __, __, files in os.walk(store)
               for name in files if ".quarantined" in name)


def measure(workload, seconds, smoke, programs, chain, store, answers):
    """The closed loop.

    Returns ``(quarantined files per measured edit, edits measured)``.
    """
    flag = WORKLOADS[workload][0]
    start = time.perf_counter()

    def another(done):
        # Start one more edit (or round) only if it is predicted to end
        # within --seconds, so a slow host shortens the loop instead of
        # lengthening the run.
        elapsed = time.perf_counter() - start
        return not smoke and elapsed * (done + 1) / done <= seconds

    if chain:
        quarantined = count_quarantined(store)
        new = 0
        base = programs[0]
        for done, edit in enumerate(chain[:-1], start=1):
            answers.answer(flag, base["name"], edit["path"],
                           edit["reference"], base["lines"], store=store)
            now = count_quarantined(store)
            new, quarantined = new + now - quarantined, now
            if not another(done):
                break
        return new / done, done
    rounds = 0
    while True:
        shift = rounds % len(programs)
        for prog in programs[shift:] + programs[:shift]:
            answers.answer(flag, prog["name"], prog["path"],
                           prog["reference"], prog["lines"])
        rounds += 1
        if not another(rounds):
            return 0.0, 0


def end_to_end(answers, setup_s):
    rows = answers.per_program()
    every = [r for rs in answers.rows.values() for r in rs]
    return {
        "answer_s_gmean": gmean(r["wall"] for r in rows.values()),
        "answer_cpu_s_gmean": gmean(r["cpu"] for r in rows.values()),
        "lines_per_s": sum(r["lines"] for r in every)
        / sum(r["wall"] for r in every),
        "peak_rss_mb": gmean(r["rss_mb"] for r in rows.values()),
        "setup_s": setup_s,
        "answers_ok_frac": (answers.attempted - answers.failed)
        / answers.attempted,
    }


# ------------------------------------------------------------------ tracing

def import_seconds(work):
    walls = []
    for __ in range(IMPORT_REPS):
        wall, __, __, code = spawn([sys.executable, "-c", "import repro.cli"],
                                   os.path.join(work, "import.out"))
        if code != 0:
            raise Failure("`import repro.cli` failed in a child")
        walls.append(wall)
    return statistics.median(walls)


def traced_pair(flag, path, work, store=None):
    """Two traced answers of *path* in fresh processes (A, B)."""
    from programs import output_digest

    records = []
    for side in "AB":
        out_json = os.path.join(work, f"layers-{side}.json")
        out_path = os.path.join(work, "layers.out")
        argv = [sys.executable, os.path.join(HERE, "layers.py"),
                "--out", out_json, "--", flag, "--check-null", "--dump-pts"]
        if store is not None:
            copy = os.path.join(work, f"store-{side}")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(store, copy)
            argv += ["--store", copy]
        wall, __, __, code = spawn(argv + [path], out_path)
        if code != 0:
            with open(out_path + ".err") as handle:
                raise Failure("traced answer failed:\n" + handle.read()[-2000:])
        with open(out_json) as handle:
            record = json.load(handle)
        with open(out_path) as handle:
            record["digest"] = output_digest(handle.read())
        record["wall_s"] = wall
        if store is not None:
            record["store_bytes"] = sum(
                os.path.getsize(os.path.join(d, f))
                for d, __, files in os.walk(copy) for f in files)
        records.append(record)
    return records


def per_layer(workload, programs, chain, store, measured, work):
    """The traced pass; returns ``(metrics, all traced answers correct)``.

    *measured* is ``(quarantined files per edit, edits measured)``.
    """
    from programs import reference_digest

    flag, __, oracle, __ = WORKLOADS[workload]
    quarantined, done = measured
    import_s = import_seconds(work)
    traced = []  # (program, reference, [A, B])
    extra = {}
    if chain:
        # The store holds the solution of the last measured edit; the
        # next edit of the chain changes exactly one function against it.
        edit = chain[done]
        pair = traced_pair(flag, edit["path"], work, store)
        for record in pair:
            if record.get("changed_functions") != [edit["function"]]:
                raise Failure(
                    f"the traced edit of {edit['function']} changes "
                    f"{record.get('changed_functions')} against the stored "
                    f"solution, not exactly that one function")
        traced.append((programs[0]["name"],
                       reference_digest(edit["source"], oracle), pair))
        extra["edit"] = {"step": done, "function": edit["function"],
                         "kind": edit["kind"]}
    else:
        for prog in programs:
            traced.append((prog["name"], prog["reference"],
                           traced_pair(flag, prog["path"], work)))

    metrics = {name: 0.0 for name in PER_LAYER}
    counters = {}
    same = total = 0
    ok = True
    overhead = 0.0
    layer_total = 0.0
    for name, reference, (a, b) in traced:
        ok = ok and a["digest"] == reference and b["digest"] == reference
        times = {span: (a["times"].get(span, 0.0) + b["times"].get(span, 0.0))
                 / 2 for span in LAYER_SPANS}
        layers = sum(times.values())
        for span, value in times.items():
            metrics[span] += value
        layer_total += layers
        # The traced child is itself a whole CLI answer: what its layers
        # and the interpreter's start leave of its wall time is the CLI's.
        wall = (a["wall_s"] + b["wall_s"]) / 2
        overhead += wall - import_s - layers
        print("layers: " + json.dumps({"program": name, "wall_s": wall,
                                       "times": times}, sort_keys=True))
        metrics["gc.pause_s"] += (a["gc_pause_s"] + b["gc_pause_s"]) / 2
        metrics["gc.gen2_collections"] += a["gc_gen2"]
        for key, value in a["counters"].items():
            counters[key] = counters.get(key, 0) + value
            same += value == b["counters"].get(key)
            total += 1
        counters_row = {"program": name, "exact": a["counters"] == b["counters"],
                        "A": a["counters"], "B": b["counters"],
                        "self_heal": [a["self_heal"], b["self_heal"]],
                        **extra}
        print("counters: " + json.dumps(counters_row, sort_keys=True))
        if "store_bytes" in a:
            metrics["store.bytes"] += a["store_bytes"]

    def frac(hit, miss):
        hits, misses = counters.get(hit, 0), counters.get(miss, 0)
        return hits / (hits + misses) if hits + misses else 0.0

    for key in PER_LAYER:
        if PER_LAYER[key] == "count" and key in counters:
            metrics[key] = counters[key]
    metrics["datastructs.batch_memo_hit_frac"] = frac(
        "datastructs.batch_memo_hits", "datastructs.batch_memo_misses")
    metrics["datastructs.union_cache_hit_frac"] = frac(
        "datastructs.union_cache_hits", "datastructs.union_cache_misses")
    if counters.get("incremental.regions_total"):
        metrics["incremental.regions_reused_frac"] = (
            counters["incremental.regions_reused"]
            / counters["incremental.regions_total"])
    metrics["store.quarantined_per_answer"] = quarantined
    metrics["gc.pause_frac"] = metrics["gc.pause_s"] / layer_total
    metrics["cli.import_s"] = import_s
    metrics["cli.overhead_s"] = overhead
    metrics["counters.exact_frac"] = same / total
    return metrics, ok


# --------------------------------------------------------------------- host

def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def speed_probe():
    """Median seconds of a fixed pure-Python loop: the host's speed now."""
    walls = []
    for __ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def host_record():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "loadavg_before": os.getloadavg(),
            "probe_s_before": speed_probe()}


# --------------------------------------------------------------------- main

def run(args, work):
    host = host_record()
    answers = Answers(work)
    programs, chain, setup_s, store = setup(args.workload, args.seed,
                                            args.smoke, work, answers)
    measured = measure(args.workload, args.seconds, args.smoke, programs,
                       chain, store, answers)
    correct = answers.failed == 0
    if args.trace:
        metrics, traced_ok = per_layer(args.workload, programs, chain, store,
                                       measured, work)
        correct = correct and traced_ok
        units = PER_LAYER
    else:
        metrics = end_to_end(answers, setup_s)
        units = END_TO_END
    host["loadavg_after"] = os.getloadavg()
    host["probe_s_after"] = speed_probe()
    print("host: " + json.dumps(host, sort_keys=True))
    for name, row in sorted(answers.per_program().items()):
        gen_seed = next(p["gen_seed"] for p in programs if p["name"] == name)
        print("program: " + json.dumps(dict(row, program=name,
                                            gen_seed=gen_seed),
                                       sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 selects the suite programs")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the closed loop answers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size: one program, one round")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"wpabench: no repro sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".wpabench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        run(args, work)
    except Failure as err:
        print(f"wpabench: {err}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
