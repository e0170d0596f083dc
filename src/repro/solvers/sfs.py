"""Staged flow-sensitive analysis (SFS) — the paper's baseline.

Every SVFG node that touches address-taken memory keeps an ``IN`` map
(object id → points-to set); ``STORE`` nodes additionally keep an ``OUT``
map.  Points-to sets propagate along indirect edges from the OUT (or IN,
for non-store nodes) of the source into the IN of the destination —
Equations (6)/(7) of the paper.  This is *multiple-object* sparsity only:
two nodes using identical points-to sets of the same object each store and
receive their own copy, which is exactly the redundancy VSFS removes.

The worklist drains the SVFG in SCC-topological order
(:mod:`repro.svfg.order`): a node runs after its inputs have settled, so
it is revisited far less often than in FIFO discovery order.
"""

from __future__ import annotations

from typing import Dict

from repro.datastructs.bitset import iter_bits
from repro.datastructs.worklist import PriorityWorkList
from repro.ir.instructions import LoadInst, StoreInst
from repro.solvers.base import FlowSensitiveResult, StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode
from repro.svfg.order import topological_rank


class SFSAnalysis(StagedSolverBase):
    """Staged flow-sensitive points-to analysis on the SVFG."""

    analysis_name = "sfs"

    def __init__(self, svfg: SVFG, meter=None, faults=None,
                 checkpointer=None, ctx=None):
        super().__init__(svfg, meter=meter, faults=faults,
                         checkpointer=checkpointer, ctx=ctx)
        # IN/OUT maps, lazily created per node id: {obj id -> mask}.
        self.in_sets: Dict[int, Dict[int, int]] = {}
        self.out_sets: Dict[int, Dict[int, int]] = {}

    def _new_worklist(self) -> PriorityWorkList[int]:
        return PriorityWorkList(topological_rank(self.svfg).__getitem__)

    # ------------------------------------------------------------ propagation

    def _in(self, node_id: int) -> Dict[int, int]:
        in_set = self.in_sets.get(node_id)
        if in_set is None:
            in_set = {}
            self.in_sets[node_id] = in_set
        return in_set

    def _propagate(self, node_id: int, oid: int, mask: int) -> None:
        """A-PROP: join *mask* of object *oid* into successors' IN sets."""
        if not mask:
            return
        succs = self.svfg.ind_succs[node_id].get(oid)
        if not succs:
            return
        if self.faults is not None:
            self.faults.fire("propagate", self.analysis_name)
        in_sets = self.in_sets
        push = self.worklist.push
        for succ in succs:
            in_set = in_sets.get(succ)
            if in_set is None:
                in_set = in_sets[succ] = {}
            old = in_set.get(oid, 0)
            new = old | mask
            if new != old:
                in_set[oid] = new
                push(succ)
        stats = self.stats
        stats.propagations += len(succs)
        stats.unions += len(succs)  # one union applied per target

    # -------------------------------------------------------------- mem rules

    def _process_load(self, node: InstNode, inst: LoadInst) -> None:
        """[LOAD]: pt(p) ⊇ IN(o) for each o the pointer may target."""
        in_set = self.in_sets.get(node.id)
        if in_set is None:
            return
        mask = 0
        for oid in iter_bits(self.value_mask(inst.ptr)):
            mask |= in_set.get(oid, 0)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        """[STORE] + [SU/WU]: OUT(o) = Gen ∪ (IN(o) − Kill), then A-PROP."""
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        out_set = self.out_sets.setdefault(node.id, {})
        gen = self.value_mask(inst.value)
        in_set = self.in_sets.get(node.id, {})
        # The objects this store is responsible for are its χ annotations
        # (over-approximated by the auxiliary analysis) — they must flow
        # through even when the store does not (yet) write them.
        for chi in self.memssa.store_chis.get(inst, ()):
            oid = chi.obj.id
            incoming = in_set.get(oid, 0)
            if oid == su_oid:
                out = gen  # strong update: kill the incoming set
                self.stats.strong_updates += 1
            elif ptr_mask >> oid & 1:
                out = incoming | gen  # weak update
                self.stats.weak_updates += 1
            elif self.defers_passthrough(ptr_mask, oid):
                continue  # deferred until pt(ptr) resolves (full revisit)
            else:
                out = incoming  # pass-through
            # OUT only grows: what was already propagated stays.
            new = out_set.get(oid, 0) | out
            self.stats.unions += 1
            out_set[oid] = new
            self._propagate(node.id, oid, new)

    def _process_mem_node(self, node: SVFGNode) -> None:
        """MEMPHI / ActualIN / ActualOUT / FormalIN / FormalOUT: OUT = IN."""
        in_set = self.in_sets.get(node.id)
        if not in_set:
            return
        for oid, mask in in_set.items():
            self._propagate(node.id, oid, mask)

    # ------------------------------------------------------- warm re-solve

    def _preload_memory(self, plan) -> None:
        """Install clean-region IN/OUT maps and clean→dirty boundaries.

        Boundary values land in the *dirty* receiver's IN map —
        exactly what propagation over the clean→dirty indirect edge
        would have delivered — and the planner queued those receivers,
        so their transfer rules run over the joined view.
        """
        for sets, preload in ((self.in_sets, plan.node_in),
                              (self.out_sets, plan.node_out)):
            for nid, table in preload.items():
                sets[nid] = dict(table)
        for nid, table in plan.boundary.items():
            in_set = self._in(nid)
            for oid, mask in table.items():
                in_set[oid] = in_set.get(oid, 0) | mask

    def export_node_memory(self):
        return tuple(
            {nid: dict(table) for nid, table in sets.items()}
            for sets in (self.in_sets, self.out_sets)
        )

    # ----------------------------------------------------------- persistence

    def _snapshot_memory(self) -> Dict[str, object]:
        """IN/OUT maps, masks hex-encoded."""
        def encode(sets: Dict[int, Dict[int, int]]) -> Dict[str, Dict[str, str]]:
            return {
                str(node_id): {str(oid): format(mask, "x")
                               for oid, mask in table.items()}
                for node_id, table in sets.items()
            }

        return {"in": encode(self.in_sets), "out": encode(self.out_sets)}

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        def decode(sets: Dict[str, Dict[str, str]]) -> Dict[int, Dict[int, int]]:
            return {
                int(node_id): {int(oid): int(mask, 16)
                               for oid, mask in table.items()}
                for node_id, table in sets.items()
            }

        self.in_sets = decode(mem["in"])
        self.out_sets = decode(mem["out"])

    # --------------------------------------------------------------- summary

    def _memory_footprint(self) -> None:
        self._finish_footprint(
            mask
            for sets in (self.in_sets, self.out_sets)
            for table in sets.values()
            for mask in table.values()
        )


def run_sfs(svfg: SVFG, meter=None, faults=None,
            checkpointer=None) -> FlowSensitiveResult:
    """Run staged flow-sensitive analysis over a built SVFG."""
    return SFSAnalysis(svfg, meter=meter, faults=faults,
                       checkpointer=checkpointer).run()
