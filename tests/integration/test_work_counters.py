"""The staged solvers' work counters: pinned exactly, and deterministic.

``nodes_processed``, ``propagations`` and ``unions`` depend only on the
program and the solver's schedule, never on the host (EXPERIMENTS.md
E5), so they are pinned to the figure.  A change to any of them is a
change to how much work a solve does and must be explained in
CHANGES.md alongside the new figures.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bench.workloads import SUITE, generate_program
from repro.pipeline import AnalysisPipeline

#: (program, analysis) -> (nodes_processed, propagations, unions).
PINNED = {
    ("du", "sfs"): (21128, 39050, 40476),
    ("du", "vsfs"): (2232, 2150, 2759),
    ("bake", "sfs"): (24386, 39214, 39980),
    ("bake", "vsfs"): (5279, 26504, 25652),
}


def counters(stats):
    return (stats.nodes_processed, stats.propagations, stats.unions)


@pytest.mark.parametrize("program,analysis", sorted(PINNED))
def test_counters_pinned(program, analysis):
    # A fresh compile: cached suite modules carry field objects and call
    # edges earlier solves added.
    pipeline = AnalysisPipeline(generate_program(SUITE[program]))
    result = getattr(pipeline, analysis)()
    assert counters(result.stats) == PINNED[program, analysis]


_CHILD = """
import json
from repro.bench.workloads import SUITE, generate_program
from repro.pipeline import AnalysisPipeline
pipeline = AnalysisPipeline(generate_program(SUITE["bake"]))
stats = {label: getattr(pipeline, label)().stats for label in ("sfs", "vsfs")}
print(json.dumps({label: [s.nodes_processed, s.propagations, s.unions]
                  for label, s in stats.items()}))
"""


def _child_counters(hash_seed):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_counters_equal_across_processes():
    """Two processes with different string hashing (and different object
    addresses) do the same work: no set or dict ordered by hash feeds the
    worklist order."""
    assert _child_counters(0) == _child_counters(1)
