"""Unit tests for the repro-wpa command-line driver."""

import tracemalloc

import pytest

import repro.cli
import repro.core.vsfs
from repro.cli import build_arg_parser, main

SOURCE = """
int *g; int x;
int main() { g = &x; int *a; a = g; return 0; }
"""

IR_SOURCE = """
func @main() {
entry:
  %p = alloca x
  %q = load %p
  ret
}
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "prog.ir"
    path.write_text(IR_SOURCE)
    return str(path)


class TestArgParsing:
    def test_default_analysis_is_vsfs(self):
        args = build_arg_parser().parse_args(["prog.c"])
        assert args.analysis == "vsfs"

    @pytest.mark.parametrize("flag,name", [
        ("-ander", "ander"), ("-fspta", "sfs"), ("-vfspta", "vsfs"),
        ("-icfg-fspta", "icfg-fs"),
    ])
    def test_analysis_flags(self, flag, name):
        args = build_arg_parser().parse_args([flag, "prog.c"])
        assert args.analysis == name

    def test_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["-ander", "-fspta", "prog.c"])


class TestExecution:
    def test_vsfs_run(self, c_file, capsys):
        assert main(["-vfspta", c_file]) == 0
        out = capsys.readouterr().out
        assert "[vsfs]" in out and "versioning" in out

    def test_sfs_run(self, c_file, capsys):
        assert main(["-fspta", c_file]) == 0
        assert "[sfs]" in capsys.readouterr().out

    def test_ander_run(self, c_file, capsys):
        assert main(["-ander", c_file]) == 0
        assert "[ander]" in capsys.readouterr().out

    def test_icfg_run(self, c_file, capsys):
        assert main(["-icfg-fspta", c_file]) == 0
        assert "[icfg-fs]" in capsys.readouterr().out

    def test_stats_flag(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--stats"]) == 0
        assert "SVFG:" in capsys.readouterr().out

    def test_dump_pts(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--dump-pts"]) == 0
        assert "pt(" in capsys.readouterr().out

    def test_ir_input(self, ir_file, capsys):
        assert main(["-vfspta", "--ir", ir_file, "--dump-pts"]) == 0
        assert "pt(%p) = {x}" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["-vfspta", "/nonexistent/file.c"]) == 1
        assert "repro-wpa:" in capsys.readouterr().err


class TestProfileAndAblationFlags:
    @pytest.mark.parametrize("flag", ["-fspta", "-vfspta"])
    def test_profile_report(self, flag, c_file, capsys):
        assert main([flag, c_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "--- solver profile ---" in out
        assert "delta kernel: on, points-to repository: on" in out
        assert "unions applied:" in out
        assert "unique points-to sets:" in out and "union cache:" in out

    def test_profile_reports_disabled_features(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--profile",
                     "--no-delta", "--no-ptrepo"]) == 0
        out = capsys.readouterr().out
        assert "delta kernel: off, points-to repository: off" in out
        assert "unique points-to sets:" not in out  # repo off: nothing to report

    def test_profile_requires_staged_analysis(self, c_file, capsys):
        assert main(["-ander", c_file, "--profile"]) == 1
        assert "--profile needs a staged analysis" in capsys.readouterr().err

    def test_ablation_flags_preserve_results(self, c_file, capsys):
        """--no-delta/--no-ptrepo change the engine, never the answer."""
        assert main(["-vfspta", c_file, "--dump-pts"]) == 0
        baseline = capsys.readouterr().out
        assert main(["-vfspta", c_file, "--dump-pts",
                     "--no-delta", "--no-ptrepo"]) == 0
        ablated = capsys.readouterr().out
        pts = lambda text: [l for l in text.splitlines() if l.startswith("pt(")]
        assert pts(baseline) == pts(ablated) != []


class TestClientFlags:
    NULL_SRC = "int *g; int main() { return *g; }"

    def test_check_null(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(self.NULL_SRC)
        assert main(["-vfspta", str(path), "--check-null"]) == 0
        out = capsys.readouterr().out
        assert "null-dereference warnings: 1" in out

    def test_check_null_requires_flow_sensitive(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(self.NULL_SRC)
        assert main(["-ander", str(path), "--check-null"]) == 1

    def test_dead_stores(self, tmp_path, capsys):
        path = tmp_path / "dead.c"
        path.write_text("int *g; int x; int main() { g = &x; return 0; }")
        assert main(["-vfspta", str(path), "--dead-stores"]) == 0
        assert "dead stores: 1" in capsys.readouterr().out

    def test_dot_outputs(self, tmp_path, capsys, c_file):
        svfg_path = tmp_path / "svfg.dot"
        cg_path = tmp_path / "cg.dot"
        assert main(["-vfspta", c_file,
                     "--dot-svfg", str(svfg_path),
                     "--dot-callgraph", str(cg_path)]) == 0
        assert svfg_path.read_text().startswith('digraph "svfg"')
        assert cg_path.read_text().startswith('digraph "callgraph"')


class TestErrorHandlingAndExitCodes:
    """Exit-code contract: 1 I/O, 2 parse/IR, 3 analysis/budget."""

    def test_io_error_exits_1(self, capsys):
        assert main(["-vfspta", "/nonexistent/file.c"]) == 1
        assert "repro-wpa: error:" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main( { this is not C")
        assert main(["-vfspta", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro-wpa: error:" in err

    def test_ir_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text("func @main() {\nentry:\n  %p = bogus_op\n}")
        assert main(["-vfspta", "--ir", str(path)]) == 2
        assert "repro-wpa: error:" in capsys.readouterr().err

    def test_budget_error_exits_3_without_fallback(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--max-steps", "0",
                     "--no-fallback"]) == 3
        assert "repro-wpa: error:" in capsys.readouterr().err


class TestBudgetAndReportFlags:
    def test_generous_budget_runs_normally(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-seconds", "60",
                     "--max-steps", "100000"]) == 0
        captured = capsys.readouterr()
        assert "[vsfs]" in captured.out
        assert "warning" not in captured.err

    def test_zero_budget_degrades_to_andersen(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-seconds", "0"]) == 0
        captured = capsys.readouterr()
        assert "degraded to andersen" in captured.err
        assert "[andersen] fallback result (degraded from vsfs)" in captured.out

    def test_report_flag_prints_run_report(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--report"]) == 0
        out = capsys.readouterr().out
        assert "--- run report: vsfs completed ---" in out
        assert "1. vsfs: completed" in out

    def test_report_shows_degradation_attempts(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-seconds", "0",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "budget: wall 0s" in out
        assert "vsfs: budget-exceeded" in out
        assert "andersen: completed" in out

    def test_budget_mb_flag_parses(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-mb", "512"]) == 0
        assert "[vsfs]" in capsys.readouterr().out

    def test_budgeted_run_same_answer_when_budget_suffices(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--dump-pts"]) == 0
        baseline = capsys.readouterr().out
        assert main(["-vfspta", c_file, "--dump-pts",
                     "--budget-seconds", "60"]) == 0
        budgeted = capsys.readouterr().out
        pts = lambda text: [l for l in text.splitlines() if l.startswith("pt(")]
        assert pts(baseline) == pts(budgeted) != []


class TestMemoryMeasurement:
    """Only a memory budget traces allocations; a plain answer reads the
    OS peak RSS instead."""

    def test_plain_answer_solves_untraced(self, c_file, capsys, monkeypatch):
        if tracemalloc.is_tracing():
            pytest.skip("ambient tracemalloc active")
        tracing = []
        solve = repro.cli.solve_with_ladder

        def recording(*args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            result = solve(*args, **kwargs)
            tracing.append(tracemalloc.is_tracing())
            return result

        starts = []
        start = tracemalloc.start
        monkeypatch.setattr(repro.cli, "solve_with_ladder", recording)
        monkeypatch.setattr(tracemalloc, "start",
                            lambda *a: (starts.append(a), start(*a)))
        assert main(["-vfspta", c_file, "--dump-pts"]) == 0
        assert tracing == [False, False]
        assert starts == []
        out = capsys.readouterr().out
        assert "peak memory (RSS): " in out and "pt(" in out

    def test_memory_budget_traces_and_degrades(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-mb", "0.01",
                     "--report"]) == 0
        captured = capsys.readouterr()
        assert "degraded to andersen" in captured.err
        assert "[andersen] fallback result (degraded from vsfs)" in captured.out
        assert "traced peak" in captured.out
        assert not tracemalloc.is_tracing()  # the meter stopped its tracing

    def test_memory_budget_without_fallback_exits_3(self, c_file, capsys):
        assert main(["-vfspta", c_file, "--budget-mb", "0.01",
                     "--no-fallback"]) == 3
        assert "memory budget exhausted" in capsys.readouterr().err


class TestStoreReusesVersioning:
    """Under --store the primed versioning stage is restored into the
    solver's SVFG copy instead of melded a second time."""

    # Indirect calls add on-the-fly version constraints; heap objects and
    # globals give the meld stores to label.
    PROGRAM = """
        struct node { int v; struct node *f0; };
        struct node *g;
        struct node *cb1(struct node *a, struct node *b) { g = a; return b; }
        struct node *cb2(struct node *a, struct node *b) { g = b; return a; }
        fnptr h;
        int main(int c) {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            if (c) { h = cb1; } else { h = cb2; }
            struct node *r = h(n, g);
            r->f0 = n;
            return 0;
        }
    """

    def _answer(self, argv, capsys, monkeypatch):
        calls = []
        meld = repro.core.vsfs.version_objects

        def recording(svfg, *args, **kwargs):
            versioning = meld(svfg, *args, **kwargs)
            snapshot = dict(versioning.snapshot())
            snapshot.pop("time")
            given = kwargs.get("snapshot")
            calls.append((given["time"] if given is not None else None,
                          snapshot))
            return versioning

        monkeypatch.setattr(repro.core.vsfs, "version_objects", recording)
        assert main(argv) == 0
        out = capsys.readouterr().out
        pts = [line for line in out.splitlines() if line.startswith("pt(")]
        assert len(calls) == 1
        return pts, calls[0], out

    def test_reused_versioning_matches_a_fresh_meld(self, tmp_path, capsys,
                                                    monkeypatch):
        path = tmp_path / "prog.c"
        path.write_text(self.PROGRAM)
        fresh_pts, (meld_time, fresh), __ = self._answer(
            ["-vfspta", "--dump-pts", str(path)], capsys, monkeypatch)
        assert meld_time is None
        store = str(tmp_path / "store")
        reused_pts, (meld_time, reused), out = self._answer(
            ["-vfspta", "--dump-pts", "--store", store, str(path)],
            capsys, monkeypatch)
        assert meld_time is not None
        assert reused_pts == fresh_pts != []
        assert reused == fresh
        assert reused["meld_steps"] > 0
        # The versioning line still counts the stage's meld, not just
        # the restore.
        line = next(l for l in out.splitlines() if "versioning: " in l)
        printed = float(line.rsplit("versioning: ", 1)[1].rstrip("s"))
        assert printed >= round(meld_time, 4)


class TestResilienceFlags:
    def test_list_fault_points_needs_no_file(self, capsys):
        assert main(["--list-fault-points"]) == 0
        out = capsys.readouterr().out
        assert "--- fault points ---" in out
        for domain in ("[solver]", "[io]", "[parallel]"):
            assert domain in out
        assert "worker_heartbeat" in out and "stage_cache_read" in out

    def test_list_fault_points_flag_parses_with_file(self):
        args = build_arg_parser().parse_args(["--list-fault-points", "p.c"])
        assert args.list_fault_points

    def test_strict_io_flag_parses(self):
        args = build_arg_parser().parse_args(["--strict-io", "p.c"])
        assert args.strict_io
        assert not build_arg_parser().parse_args(["p.c"]).strict_io

    def test_chaos_list_subcommand(self, capsys):
        assert main(["chaos", "--list", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos schedule" in out
        assert "sfs/j1" in out and "vsfs/j2" in out

    def test_chaos_rejects_unknown_analysis(self, capsys):
        assert main(["chaos", "--analyses", "tensor", "--list"]) == 1
        assert "unknown analysis" in capsys.readouterr().err
