"""Tests of the wpabench benchmark itself.

Run from the root of a checkout::

    python3 -m pytest wpabench/test_wpabench.py

The smoke tests run every workload at its smallest size (one program,
one round) with and without ``--trace``; together they take a minute or
two.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import programs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def test_seed_zero_selects_the_suite_programs():
    from repro.bench.workloads import SUITE

    for name in programs.POOLS:
        assert programs.generator_seed(0, name) == SUITE[name].seed
        assert programs.POOLS[name][0] == SUITE[name].seed


def test_inputs_are_a_function_of_the_seed():
    draws = [[programs.generator_seed(seed, name) for name in programs.POOLS]
             for seed in (7, 7, 8)]
    assert draws[0] == draws[1]
    assert all(seed in programs.POOLS[name]
               for draw in draws for name, seed in zip(programs.POOLS, draw))
    source = programs.program_source("psql", programs.POOLS["psql"][0])
    assert programs.edit_chain(source, 7, 4) == programs.edit_chain(source, 7, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_edit_changes_exactly_one_function(seed):
    from repro.frontend import compile_c
    from repro.ir.fingerprint import module_function_fingerprints

    source = programs.program_source("psql", programs.POOLS["psql"][0])
    chain = programs.edit_chain(source, seed, 6)
    assert {edit["kind"] for edit in chain} == set(programs.EDIT_KINDS)
    before = module_function_fingerprints(compile_c(source))
    for edit in chain:
        after = module_function_fingerprints(compile_c(edit["source"]))
        changed = [fn for fn in after if after[fn] != before.get(fn)]
        assert changed == [edit["function"]], edit["kind"]
        assert set(after) == set(before)
        before = after


def test_set_up_computes_the_reference_of_every_measured_edit(tmp_path):
    __, chain = run.prepare_inputs("vsfs-edit", 1, True, str(tmp_path))
    # One measured edit, then the spare edit the traced pass answers.
    assert ["reference" in edit for edit in chain] == [True, False]
    assert chain[0]["reference"] == programs.reference_digest(
        chain[0]["source"], "vsfs")


def _points_to_sets(source):
    """The multiset of non-empty points-to sets, and the null-deref count.

    Variable names are left out: the frontend numbers SSA names
    module-wide, so an edit renames variables in later functions.
    """
    from repro.pipeline import AnalysisPipeline
    from repro.runtime.degrade import solve_with_ladder

    pipeline = AnalysisPipeline.from_source(source)
    result = solve_with_ladder(pipeline, analysis="vsfs")
    lines = programs.answer_lines(pipeline.module, result,
                                  pipeline.andersen())
    sets = sorted(line.split(" = ", 1)[1] for line in lines
                  if line.startswith("pt("))
    return sets, [line for line in lines
                  if line.startswith("null-dereference")]


def test_scalar_edits_move_no_pointer():
    source = programs.program_source("nano", programs.POOLS["nano"][0])
    chain = programs.edit_chain(source, 3, 4)
    previous = _points_to_sets(source)
    for edit in chain:
        current = _points_to_sets(edit["source"])
        if edit["kind"] == "scalar":
            assert current == previous
        previous = current


def test_a_corrupted_reference_fails_its_answer(tmp_path):
    from repro.bench.workloads import SUITE, generate_source

    source = generate_source(SUITE["du"])
    path = run.write(str(tmp_path / "du.c"), source)
    reference = programs.reference_digest(source, "sfs")
    answers = run.Answers(str(tmp_path))
    lines = source.count("\n")
    assert answers.answer("-vfspta", "du", path, reference, lines)[0]
    assert run.end_to_end(answers, 1.0)["answers_ok_frac"] == 1.0
    corrupted = "0" * len(reference)
    assert not answers.answer("-vfspta", "du", path, corrupted, lines)[0]
    metrics = run.end_to_end(answers, 1.0)
    assert metrics["answers_ok_frac"] == 0.5
    assert answers.failed == 1


def test_benchmark_json_matches_run_py():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        units = {**run.END_TO_END, **run.PER_LAYER}
        assert metric["unit"] == units[metric["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("wpabench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert result["metrics"]["answers_ok_frac"]["value"] == 1.0
