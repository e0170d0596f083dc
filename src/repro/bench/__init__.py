"""Benchmark harness: workloads, metrics, and paper-table reproduction.

- :mod:`repro.bench.workloads` — a seeded mini-C program generator plus the
  15-program ``SUITE`` standing in for the paper's open-source benchmarks
  (Table II), scaled to pure-Python solver speed.
- :mod:`repro.bench.metrics` — measurement helpers (wall time, traced
  memory peaks, solver counters).
- :mod:`repro.bench.tables` — text rendering of Tables II/III and geometric
  means.
- :mod:`repro.bench.runner` — end-to-end experiment driver used by the
  pytest benches and :mod:`examples.suite_report`.
"""

from repro.bench.workloads import SUITE, WorkloadConfig, generate_program, suite_program
from repro.bench.metrics import BenchmarkMeasurement, measure_analysis
from repro.bench.runner import SuiteResult, run_suite_program
from repro.bench.tables import format_table2, format_table3, geometric_mean

__all__ = [
    "SUITE",
    "WorkloadConfig",
    "generate_program",
    "suite_program",
    "BenchmarkMeasurement",
    "measure_analysis",
    "SuiteResult",
    "run_suite_program",
    "format_table2",
    "format_table3",
    "geometric_mean",
]
