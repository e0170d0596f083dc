"""Seeded inputs for the wpabench benchmark, and the answer oracle.

Inputs are mini-C programs drawn from the suite generator
(``repro.bench.workloads``).  A *size class* is one suite configuration
(nano, psql, tmux) restricted to the generator seeds in ``POOLS``: seeds
whose program lands within a narrow band of the suite program's own
size (see ``make_pool.py`` for the band and how the list is rebuilt).
The list is frozen in this file so that the inputs a seed selects never
depend on the program under test.  Workload seed 0 selects the suite's
own generator seed.

Edit chains (``edit_chain``) apply seeded single-function edits in
place, on the ``return`` line of the edited function, so no other line
moves: heap objects are named by source line, and an inserted line
would rename every allocation below it.

The oracle (``answer_lines``/``reference_digest``/``output_digest``)
reduces an answer to the lines ``repro-wpa --dump-pts --check-null``
prints for it, and hashes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, List, Sequence, Tuple

#: Generator seeds per size class; element 0 is the suite's own seed.
#: Rebuild with ``python3 wpabench/make_pool.py`` (see its docstring).
POOLS: Dict[str, Tuple[int, ...]] = {
    "nano": (105, 514116393, 988290365, 855135183, 1827091047, 793787721,
             2052117622, 951794849),
    "psql": (107, 2068870895, 924383934, 1675760220, 792136722),
    "tmux": (110, 1321981876),
}


def generator_seed(workload_seed: int, name: str) -> int:
    """The generator seed of class *name*'s program under *workload_seed*."""
    pool = POOLS[name]
    if workload_seed == 0:
        return pool[0]
    return pool[random.Random(f"wpabench:{workload_seed}:{name}")
                .randrange(len(pool))]


def program_source(name: str, gen_seed: int) -> str:
    from repro.bench.workloads import SUITE, generate_source

    return generate_source(dataclasses.replace(SUITE[name], seed=gen_seed))


# ------------------------------------------------------------------ edits

#: Edit kinds: ``scalar`` moves no pointer (integer arithmetic the
#: prepare passes keep); ``pointer`` adds a pointer store that ripples
#: out through the callers and the globals.
EDIT_KINDS = ("scalar", "pointer")


def _functions(source: str) -> List[str]:
    names = []
    for line in source.splitlines():
        if line.startswith("struct node *fn") and line.endswith("{"):
            names.append(line[len("struct node *"):line.index("(")])
    return names


def _num_globals(source: str) -> int:
    return sum(1 for line in source.splitlines()
               if line.startswith("struct node *g") and line.endswith(";"))


def apply_edit(source: str, fn: str, text: str) -> str:
    """Insert *text* at the start of *fn*'s last line (its ``return``)."""
    start = source.index(f"struct node *{fn}(")
    end = source.index("\n}\n", start)
    at = source.rindex("\n", 0, end) + len("\n    ")
    return source[:at] + text + " " + source[at:]


def edit_chain(source: str, workload_seed: int,
               length: int) -> List[Dict[str, str]]:
    """*length* successive single-function edits of *source*.

    Each entry holds the edited function, the edit kind and the full
    source after the edit (edits accumulate along the chain).
    """
    rng = random.Random(f"wpabench-edit:{workload_seed}")
    functions = _functions(source)
    globals_ = _num_globals(source)
    first_kind = rng.randrange(len(EDIT_KINDS))
    chain = []
    for step in range(length):
        fn = rng.choice(functions)
        kind = EDIT_KINDS[(first_kind + step) % len(EDIT_KINDS)]
        if kind == "scalar":
            var = f"e{step}"
            text = (f"int {var}; {var} = {rng.randrange(1, 100)}; "
                    f"{var} = {var} + {rng.randrange(1, 100)};")
        else:
            field = f"f{rng.randrange(4)}"
            text = rng.choice([
                f"a->{field} = b;",
                f"b->{field} = a;",
                f"g{rng.randrange(globals_)}->{field} = a;",
                f"g{rng.randrange(globals_)} = b;",
            ])
        source = apply_edit(source, fn, text)
        chain.append({"function": fn, "kind": kind, "source": source})
    return chain


# ------------------------------------------------------------------ oracle

def answer_lines(module, result, andersen) -> List[str]:
    """The lines ``repro-wpa --dump-pts --check-null`` prints for *result*."""
    from repro.clients.nullderef import find_null_derefs

    lines = []
    for var in module.variables:
        pts = result.points_to(var)
        if pts:
            names = ", ".join(sorted(obj.name for obj in pts))
            lines.append(f"pt({var!r}) = {{{names}}}")
    report = find_null_derefs(module, result, andersen)
    lines.append(f"null-dereference warnings: {len(report)} "
                 f"({len(report.flow_sensitive_only())} invisible to "
                 f"Andersen)")
    lines.extend(f"  {warning.describe()}" for warning in report)
    return lines


def lines_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def output_digest(stdout: str) -> str:
    """Digest of the answer part of a ``repro-wpa`` standard output."""
    keep = [line for line in stdout.splitlines()
            if line.startswith(("pt(", "null-dereference warnings:", "  "))]
    return lines_digest(keep)


def reference_digest(source: str, analysis: str) -> str:
    """Digest of the library's answer for *source* under *analysis*.

    Runs the same ladder ``repro.pipeline.analyze`` runs, on a pipeline
    kept at hand for the Andersen result the null client needs.
    """
    from repro.pipeline import AnalysisPipeline
    from repro.runtime.degrade import solve_with_ladder

    pipeline = AnalysisPipeline.from_source(source)
    result = solve_with_ladder(pipeline, analysis=analysis)
    return lines_digest(answer_lines(pipeline.module, result,
                                     pipeline.andersen()))
