"""Rebuild the size-class seed pools of ``programs.POOLS``.

Run from the root of a checkout (it takes several minutes)::

    PYTHONPATH=src python3 wpabench/make_pool.py

A size class is one suite configuration.  Its centre is the suite
program itself (the configuration's own generator seed).  Candidate
generator seed *k* of class *name* is
``random.Random(f"{name}:{k}").randrange(1, 2**31)``; it joins the class
when its program is within every band of the centre:

- source lines within ``LINES_BAND`` (``lines_per_s`` divides by them);
- SVFG node count within ``NODES_BAND`` (sets the substrate,
  versioning and VSFS cost of an answer);
- SFS nodes processed within ``SFS_BAND`` (sets the SFS cost).

Without the bands, two generator seeds of one configuration differ by
up to 3.5x in solve time, and a median over seeds jumps between program
sizes.  The suite tmux program sits at the edge of its configuration's
spread, so its class needs more candidates (``CANDIDATES``).

The pool is printed as a Python literal to paste into ``programs.py``.
It is frozen there, so the inputs a seed selects never depend on the
program under test; rebuild it only on purpose, as a benchmark change.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import random

LINES_BAND = 0.04
NODES_BAND = 0.05
SFS_BAND = 0.06
#: Candidate seeds searched per class.
CANDIDATES = {"nano": 400, "psql": 400, "tmux": 1600}


def measure(name: str, seed: int, solve: bool) -> dict:
    from repro.bench.workloads import SUITE, generate_source
    from repro.pipeline import AnalysisPipeline

    source = generate_source(dataclasses.replace(SUITE[name], seed=seed))
    pipeline = AnalysisPipeline.from_source(source)
    row = {"seed": seed, "lines": source.count("\n"),
           "nodes": pipeline.svfg().stats().num_nodes}
    if solve:
        row["sfs_np"] = pipeline.sfs().stats.nodes_processed
    gc.collect()
    return row


def within(value: float, centre: float, band: float) -> bool:
    return abs(value / centre - 1.0) <= band


def pool(name: str, candidates: int) -> list:
    from repro.bench.workloads import SUITE

    centre = measure(name, SUITE[name].seed, True)
    members = [centre["seed"]]
    for k in range(1, candidates):
        seed = random.Random(f"{name}:{k}").randrange(1, 2 ** 31)
        row = measure(name, seed, False)
        if not (within(row["lines"], centre["lines"], LINES_BAND)
                and within(row["nodes"], centre["nodes"], NODES_BAND)):
            continue
        row = measure(name, seed, True)
        if within(row["sfs_np"], centre["sfs_np"], SFS_BAND):
            members.append(seed)
    return members


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    print("POOLS = {")
    for name, candidates in CANDIDATES.items():
        print(f"    {name!r}: {tuple(pool(name, candidates))!r},")
    print("}")


if __name__ == "__main__":
    main()
