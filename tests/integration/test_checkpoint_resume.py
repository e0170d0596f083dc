"""Kill-at-step-N × resume: resumed runs must be bit-identical.

The solvers are monotone fixpoint computations, so a checkpoint taken at
any intermediate step captures a valid lattice point; continuing from it
in a *fresh* process (modelled here by a fresh compile of the same
source) must converge to exactly the same points-to solution as the
uninterrupted run — not merely an equivalent one.
"""

import os

import pytest

from repro.errors import BudgetExceeded, CheckpointError
from repro.frontend import compile_c
from repro.pipeline import analyze
from repro.runtime import Budget, CheckpointConfig, load_checkpoint
from repro.store.atomic import read_sealed_json, write_sealed_json

# Indirect calls (OTF edges), loads/stores through globals, and heap
# allocation keep every solver feature on the resume path.
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
        return 0;
    }
"""

MATRIX = [
    (analysis, kill_at)
    for analysis in ("sfs", "vsfs", "ander", "icfg-fs")
    for kill_at in (3, 11)
]


def _interrupt(tmp_path, analysis, kill_at):
    """Budget-kill a run at *kill_at* steps; returns the checkpoint path."""
    config = CheckpointConfig(str(tmp_path), every_steps=2)
    with pytest.raises(BudgetExceeded) as exc:
        analyze(compile_c(PROGRAM), analysis=analysis,
                budget=Budget(max_steps=kill_at), fallback=False,
                checkpoint=config)
    path = exc.value.checkpoint_path
    assert path is not None and os.path.exists(path)
    report = exc.value.run_report
    assert report.checkpoint_saves >= 1
    assert report.checkpoint_path == path
    return config, path


class TestKillResumeMatrix:
    @pytest.mark.parametrize("analysis,kill_at", MATRIX,
                             ids=lambda p: str(p))
    def test_resume_is_bit_identical(self, tmp_path, analysis, kill_at):
        clean = analyze(compile_c(PROGRAM), analysis=analysis)
        config, __ = _interrupt(tmp_path, analysis, kill_at)
        resumed = analyze(compile_c(PROGRAM), analysis=analysis,
                          checkpoint=config, resume_from=True)
        assert resumed.report.resumed
        assert resumed.report.resumed_from_step is not None
        assert resumed.snapshot() == clean.snapshot()
        # The completed run discarded its own checkpoint.
        assert not any(name.startswith("ckpt-")
                       for name in os.listdir(tmp_path))

    def test_resume_via_explicit_path(self, tmp_path):
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        __, path = _interrupt(tmp_path, "vsfs", 5)
        resumed = analyze(compile_c(PROGRAM), analysis="vsfs",
                          resume_from=path)
        assert resumed.report.resumed
        assert resumed.snapshot() == clean.snapshot()

    def test_resume_from_empty_directory_starts_fresh(self, tmp_path):
        config = CheckpointConfig(str(tmp_path))
        result = analyze(compile_c(PROGRAM), analysis="vsfs",
                         checkpoint=config, resume_from=True)
        assert not result.report.resumed
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        assert result.snapshot() == clean.snapshot()

    def test_repeated_interrupts_chain(self, tmp_path):
        """Kill, resume-and-kill again, then finish: still bit-identical."""
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        config, __ = _interrupt(tmp_path, "vsfs", 3)
        with pytest.raises(BudgetExceeded):
            analyze(compile_c(PROGRAM), analysis="vsfs", checkpoint=config,
                    resume_from=True, budget=Budget(max_steps=4),
                    fallback=False)
        resumed = analyze(compile_c(PROGRAM), analysis="vsfs",
                          checkpoint=config, resume_from=True)
        assert resumed.report.resumed
        assert resumed.snapshot() == clean.snapshot()


class TestRejection:
    def test_explicit_missing_path_raises(self):
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    resume_from="/nonexistent/ckpt.json")
        assert exc.value.reason == "missing"

    def test_edited_program_rejected(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        edited = PROGRAM.replace("g = a", "g = b")
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(edited), analysis="vsfs", resume_from=path)
        assert exc.value.reason == "ir-mismatch"

    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    def test_schema2_repo_ids_never_read_as_masks(self, tmp_path, analysis):
        """A schema-2 checkpoint stored interned set ids plus the table
        they index (hex masks, id 0 = the empty set).  Its ids read as raw
        masks would resume a wrong state, so it is rejected as a schema
        mismatch and quarantined."""
        __, path = _interrupt(tmp_path, analysis, 5)
        meta, payload = read_sealed_json(path, "checkpoint", 3)
        repo = ["0"]

        def to_id(text):
            mask = format(int(text, 16), "x")
            if mask not in repo:
                repo.append(mask)
            return format(repo.index(mask), "x")

        mem = payload["mem"]
        if analysis == "vsfs":
            mem["ptv"] = {oid: [to_id(text) for text in table]
                          for oid, table in mem["ptv"].items()}
        else:
            for side in ("in", "out"):
                mem[side] = {nid: {oid: to_id(text)
                                   for oid, text in table.items()}
                             for nid, table in mem[side].items()}
        mem["repo"] = repo
        write_sealed_json(path, "checkpoint", 2,
                          dict(meta, delta=True, ptrepo=True), payload)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis=analysis, resume_from=path)
        assert exc.value.reason == "schema"
        assert not os.path.exists(path)
        assert exc.value.path is not None and os.path.exists(exc.value.path)

    def test_wrong_ladder_rejected(self, tmp_path):
        __, path = _interrupt(tmp_path, "icfg-fs", 5)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="sfs", resume_from=path)
        assert exc.value.reason == "config-mismatch"

    def test_corrupt_checkpoint_raises_typed_error(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        with open(path, "r+b") as handle:
            handle.seek(200)
            handle.write(b"\x00\x00\x00")
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs", resume_from=path)
        assert exc.value.reason == "corrupt"
        # Quarantined: a directory-mode retry now starts fresh.
        assert not os.path.exists(path)

    def test_truncated_checkpoint_raises_typed_error(self, tmp_path):
        config, path = _interrupt(tmp_path, "vsfs", 5)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    checkpoint=config, resume_from=True)
        assert exc.value.reason == "corrupt"

    def test_corruption_never_degrades(self, tmp_path):
        """A bad checkpoint must surface even with fallback enabled."""
        __, path = _interrupt(tmp_path, "vsfs", 5)
        with open(path, "w") as handle:
            handle.write("garbage")
        with pytest.raises(CheckpointError):
            analyze(compile_c(PROGRAM), analysis="vsfs", resume_from=path,
                    fallback=True)


class TestCheckpointManifest:
    def test_manifest_records_run_identity(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        meta, payload = load_checkpoint(path)
        assert meta["analysis"] == "vsfs"
        assert meta["reason"] == "budget"
        assert isinstance(meta["step"], int) and meta["step"] >= 0
        assert isinstance(payload, dict) and "worklist" in payload

    def test_budget_save_beats_cadence(self, tmp_path):
        """Even with a huge cadence, the budget trip itself checkpoints."""
        config = CheckpointConfig(str(tmp_path), every_steps=10 ** 9)
        with pytest.raises(BudgetExceeded) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    budget=Budget(max_steps=5), fallback=False,
                    checkpoint=config)
        assert exc.value.checkpoint_path is not None
        meta, __ = load_checkpoint(exc.value.checkpoint_path)
        assert meta["reason"] == "budget"
