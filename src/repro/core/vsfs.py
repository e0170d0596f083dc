"""Versioned staged flow-sensitive points-to analysis (VSFS, §IV-D).

The solver of Figure 10.  Relative to SFS, the IN/OUT maps are gone:
address-taken points-to sets live in one global table keyed by
``(object, version)``, where versions come from the meld-labelling
pre-analysis (:mod:`repro.core.versioning`).

- ``[LOAD]ⱽ`` reads ``pt_{C_ℓ(o)}(o)`` for each object the pointer targets;
- ``[STORE]ⱽ`` + ``[SU/WU]ⱽ`` write ``pt_{Y_ℓ(o)}(o)``, observing
  ``pt_{C_ℓ(o)}(o)`` unless a strong update kills it;
- ``[A-PROP]ⱽ`` propagates along the *deduplicated version constraints*:
  an SVFG edge whose endpoints share a version needs no propagation at all
  — this is where the time saving comes from — and nodes sharing a version
  share storage — the memory saving.

MEMPHI/ActualIN/ActualOUT/FormalIN/FormalOUT nodes need no processing at
solve time: their behaviour is entirely compiled into version constraints.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.versioning import ObjectVersioning, version_objects
from repro.datastructs.bitset import iter_bits
from repro.ir.function import Function
from repro.ir.instructions import CallInst, LoadInst, StoreInst
from repro.solvers.base import FlowSensitiveResult, StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class VSFSAnalysis(StagedSolverBase):
    """Versioned staged flow-sensitive points-to analysis."""

    analysis_name = "vsfs"

    def __init__(self, svfg: SVFG, versioning: Optional[ObjectVersioning] = None,
                 meter=None, faults=None, checkpointer=None, ctx=None,
                 versioning_snapshot: Optional[dict] = None):
        super().__init__(svfg, meter=meter, faults=faults,
                         checkpointer=checkpointer, ctx=ctx)
        self._given_versioning = versioning
        self.versioning: Optional[ObjectVersioning] = versioning
        # A meld of the graph *svfg* was copied from, restored in place of
        # a second meld.  _prepare restores it where a meld would run:
        # after the pre_meld fault point and inside pre_time.
        self._versioning_snapshot = versioning_snapshot
        # Global points-to table: oid -> version id -> mask.
        self.ptv: Dict[int, List[int]] = {}
        # (oid, version) -> nodes that must re-run when the set grows.
        self.readers: Dict[Tuple[int, int], List[int]] = {}

    # ----------------------------------------------------------------- setup

    def _prepare(self) -> None:
        start = time.perf_counter()
        snapshot = self._versioning_snapshot
        if self.versioning is None:
            self.versioning = version_objects(self.svfg, snapshot=snapshot)
        self._build_readers()
        self.stats.pre_time = time.perf_counter() - start
        if snapshot is not None:
            # pre_time reports the versioning pre-analysis, so it keeps
            # the restored meld's own time.
            self.stats.pre_time += snapshot["time"]

    def _build_readers(self) -> None:
        """Index which load/store nodes consume each ``(object, version)``.

        Deterministic given the versioning tables (it walks nodes in id
        order and sorts each bucket), so a resumed run rebuilds the exact
        same index from the restored versioning state.
        """
        versioning = self.versioning
        assert versioning is not None
        memssa = self.memssa
        # Built as sets: a load/store touching the same (oid, ver) through
        # two μ/χ annotations must not be pushed twice per growth.
        readers: Dict[Tuple[int, int], set] = {}
        for node in self.svfg.nodes:
            if not isinstance(node, InstNode):
                continue
            inst = node.inst
            if isinstance(inst, LoadInst):
                for mu in memssa.load_mus.get(inst, ()):
                    ver = versioning.consumed_version(node.id, mu.obj.id)
                    readers.setdefault((mu.obj.id, ver), set()).add(node.id)
            elif isinstance(inst, StoreInst):
                for chi in memssa.store_chis.get(inst, ()):
                    ver = versioning.consumed_version(node.id, chi.obj.id)
                    readers.setdefault((chi.obj.id, ver), set()).add(node.id)
        self.readers = {key: sorted(nodes) for key, nodes in readers.items()}

    # ------------------------------------------------------- version tables

    def _table(self, oid: int) -> List[int]:
        table = self.ptv.get(oid)
        if table is None:
            assert self.versioning is not None
            table = [0] * max(self.versioning.num_versions(oid), 1)
            self.ptv[oid] = table
        return table

    def ptv_mask(self, oid: int, ver: int) -> int:
        table = self.ptv.get(oid)
        if table is None or ver >= len(table):
            return 0
        return table[ver]

    def _ptv_join(self, oid: int, ver: int, mask: int) -> None:
        """Grow pt_κ(o) and run [A-PROP]ⱽ transitively.

        Every grown version wakes its readers and forwards its whole new
        set along its version constraints.
        """
        if not mask:
            return
        if self.faults is not None:
            self.faults.fire("propagate", self.analysis_name)
        assert self.versioning is not None
        constraints = self.versioning.constraints
        readers = self.readers
        push = self.worklist.push
        stats = self.stats
        table = self._table(oid)
        stack = [(ver, mask)]
        while stack:
            ver, mask = stack.pop()
            while ver >= len(table):  # defensive: OTF-interned versions
                table.append(0)
            old = table[ver]
            new = old | mask
            stats.unions += 1  # one union applied per visit
            if new == old:
                continue
            table[ver] = new
            for reader in readers.get((oid, ver), ()):
                push(reader)
            for dst_ver in constraints.get((oid, ver), ()):
                stats.propagations += 1
                stack.append((dst_ver, new))

    # -------------------------------------------------------------- mem rules

    def _process_load(self, node: InstNode, inst: LoadInst) -> None:
        """[LOAD]ⱽ: pt(p) ⊇ pt_{C_ℓ(o)}(o) for each o ∈ pt(q)."""
        assert self.versioning is not None
        consumed = self.versioning.consumed[node.id]
        mask = 0
        for oid in iter_bits(self.value_mask(inst.ptr)):
            ver = consumed.get(oid)
            if ver is not None:
                mask |= self.ptv_mask(oid, ver)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        """[STORE]ⱽ + [SU/WU]ⱽ: write the yielded versions."""
        assert self.versioning is not None
        versioning = self.versioning
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        yielded = versioning.yielded[node.id]
        gen = self.value_mask(inst.value)
        consumed = versioning.consumed[node.id]
        for chi in self.memssa.store_chis.get(inst, ()):
            oid = chi.obj.id
            y_ver = yielded.get(oid)
            if y_ver is None:
                continue
            c_ver = consumed.get(oid, ObjectVersioning.EPSILON)
            incoming = self.ptv_mask(oid, c_ver)
            if oid == su_oid:
                out = gen  # strong update kills the consumed set
                self.stats.strong_updates += 1
            elif ptr_mask >> oid & 1:
                out = incoming | gen
                self.stats.weak_updates += 1
            elif self.defers_passthrough(ptr_mask, oid):
                continue  # deferred until pt(ptr) resolves (full revisit)
            else:
                out = incoming  # pass-through (χ over-approximation)
            self._ptv_join(oid, y_ver, out)

    def _process_mem_node(self, node: SVFGNode) -> None:
        """MEMPHI and actual/formal IN/OUT nodes are fully compiled into
        version constraints — nothing to do at solve time."""

    # -------------------------------------------------- on-the-fly call graph

    def _on_new_call_edge(self, call: CallInst, callee: Function, touched: List[int]) -> None:
        """Register version constraints for OTF-discovered μ/χ edges and
        replay already-computed points-to sets across them."""
        assert self.versioning is not None
        versioning = self.versioning
        for oid, ain in self.svfg.actual_in.get(call, {}).items():
            fin = self.svfg.formal_in.get(callee, {}).get(oid)
            if fin is None:
                continue
            src = versioning.yielded_version(ain, oid)
            dst = versioning.consumed_version(fin, oid)
            if versioning.add_constraint(oid, src, dst):
                self.stats.propagations += 1
                self._ptv_join(oid, dst, self.ptv_mask(oid, src))
        for oid, aout in self.svfg.actual_out.get(call, {}).items():
            fout = self.svfg.formal_out.get(callee, {}).get(oid)
            if fout is None:
                continue
            src = versioning.yielded_version(fout, oid)
            dst = versioning.consumed_version(aout, oid)
            if versioning.add_constraint(oid, src, dst):
                self.stats.propagations += 1
                self._ptv_join(oid, dst, self.ptv_mask(oid, src))

    # ------------------------------------------------------- warm re-solve

    def _version_of(self, nid: int, oid: int,
                    want_yield: bool) -> Optional[int]:
        """The version node *nid* genuinely consumes/yields for *oid*.

        ``None`` when the node carries no version for the object — the
        warm preloader must not mistake the ε default for a real
        version, or it would pollute the shared ε slot.
        """
        versioning = self.versioning
        if versioning._single[nid]:
            node = self.svfg.nodes[nid]
            obj = getattr(node, "obj", None)
            if obj is None or obj.id != oid:
                return None
            return node.yielded_ver if want_yield else node.consumed_ver
        if want_yield:
            if not versioning._is_store[nid]:
                return None  # yields what it consumes — node_in covers it
            return versioning.yielded[nid].get(oid)
        return versioning.consumed[nid].get(oid)

    def _preload_memory(self, plan) -> None:
        """Write clean-region values straight into the version table.

        Node-centric preload: the plan speaks in ``(node, object)``
        pairs, and the *new* versioning maps them to version indices —
        version numbering is global per object, so the numbers may have
        shifted even for untouched functions.  Direct joins, no
        propagation: constraints *among* preloaded versions were already
        satisfied at the captured fixpoint.  Constraints *leaving* the
        preloaded set carry clean values into dirty regions via
        :meth:`_ptv_join`, whose reader pushes and transitive walk do
        the delivery.
        """
        preloaded: "set[Tuple[int, int]]" = set()

        def write(oid: int, ver: int, mask: int) -> None:
            table = self._table(oid)
            while ver >= len(table):
                table.append(0)
            table[ver] |= mask
            preloaded.add((oid, ver))

        for preload, want_yield in ((plan.node_in, False),
                                    (plan.node_out, True)):
            for nid, table in preload.items():
                for oid, mask in table.items():
                    if not mask:
                        continue
                    ver = self._version_of(nid, oid, want_yield)
                    if ver is not None:
                        write(oid, ver, mask)
        constraints = self.versioning.constraints
        for oid, ver in sorted(preloaded):
            for dst in constraints.get((oid, ver), ()):
                if (oid, dst) not in preloaded:
                    self._ptv_join(oid, dst, self.ptv_mask(oid, ver))

    def export_node_memory(self):
        versioning = self.versioning
        node_in: Dict[int, Dict[int, int]] = {}
        node_out: Dict[int, Dict[int, int]] = {}
        if versioning is None:
            return node_in, node_out
        for nid in range(len(self.svfg.nodes)):
            if versioning._single[nid]:
                node = self.svfg.nodes[nid]
                obj = getattr(node, "obj", None)
                if obj is None:
                    continue
                mask = self.ptv_mask(obj.id, node.consumed_ver)
                if mask:
                    node_in[nid] = {obj.id: mask}
                if node.yielded_ver != node.consumed_ver:
                    mask = self.ptv_mask(obj.id, node.yielded_ver)
                    if mask:
                        node_out[nid] = {obj.id: mask}
                continue
            consumed = versioning.consumed[nid]
            if consumed:
                table = {
                    oid: mask for oid, mask in
                    ((oid, self.ptv_mask(oid, ver))
                     for oid, ver in consumed.items())
                    if mask
                }
                if table:
                    node_in[nid] = table
            if versioning._is_store[nid]:
                yielded = versioning.yielded[nid]
                table = {
                    oid: mask for oid, mask in
                    ((oid, self.ptv_mask(oid, ver))
                     for oid, ver in yielded.items())
                    if mask
                }
                if table:
                    node_out[nid] = table
        return node_in, node_out

    # ----------------------------------------------------------- persistence

    def _snapshot_memory(self) -> Dict[str, object]:
        """The global ``(object, version)`` table and the full versioning
        state (C/Y tables + constraints —
        including every constraint registered on the fly, which a re-run
        of the pre-analysis could not reproduce without re-discovering the
        call graph first).

        This is where the paper's global keying pays off at the
        persistence layer too: the address-taken state is one table with
        one entry per *live* ``(object, version)`` pair, not one map per
        SVFG node.
        """
        assert self.versioning is not None
        return {
            "ptv": {str(oid): [format(mask, "x") for mask in table]
                    for oid, table in self.ptv.items()},
            "versioning": self.versioning.snapshot(),
        }

    def _restore_pre(self, payload: Dict[str, object]) -> None:
        """Restore versioning before memory: the version tables define the
        shape of the global table and of the readers index."""
        self.versioning = ObjectVersioning(self.svfg).restore(
            payload["mem"]["versioning"])
        self._build_readers()

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        self.ptv = {int(oid): [int(mask, 16) for mask in table]
                    for oid, table in mem["ptv"].items()}

    # --------------------------------------------------------------- summary

    def _memory_footprint(self) -> None:
        self._finish_footprint(
            mask for table in self.ptv.values() for mask in table
        )


def run_vsfs(svfg: SVFG, versioning: Optional[ObjectVersioning] = None,
             meter=None, faults=None,
             checkpointer=None) -> FlowSensitiveResult:
    """Run VSFS over a built SVFG (versioning is computed if not supplied)."""
    return VSFSAnalysis(svfg, versioning, meter=meter, faults=faults,
                        checkpointer=checkpointer).run()
