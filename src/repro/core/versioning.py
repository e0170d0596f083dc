"""Object versioning of an SVFG via meld labelling (§IV-C).

Phase 1 — *prelabelling* (Figure 6):

- ``[STORE]ᴾ``: every STORE node yields a **fresh** version of each object
  it may define (its χ set), because a store may change that object's
  points-to set;
- ``[OTF-CG]ᴾ``: every *δ node* (FormalIN of a potential indirect-call
  target, ActualOUT of an indirect call site) consumes a fresh version of
  its object, because its incoming edges are only discovered during
  on-the-fly call graph resolution.

Phase 2 — *meld labelling* (Figure 8): versions propagate along
``o``-labelled indirect edges; ``[EXTERNAL]ⱽ`` melds the yielded version of
the source into the consumed version of the target (except into δ nodes,
whose prelabels are frozen), and ``[INTERNAL]ⱽ`` makes every non-STORE node
yield what it consumes.  Labels are bit masks over per-object prelabel
indices and the meld operator is bitwise-or, exactly the representation the
paper suggests (LLVM ``SparseBitVector``).

Phase 3 — *interning*: each distinct final mask of an object becomes a
dense version id, so "same version" is an int comparison and the global
``(object, version) → points-to set`` table is compact.  The identity ε
(mask 0) is version 0 of every object: it marks nodes unreachable from any
store, whose points-to set for that object is permanently empty.

Two propagation strategies are provided (cross-checked in the tests):

- ``"scc"`` (default): per object, collapse the cycles of the *relay*
  subgraph (nodes that forward what they consume — non-STORE, non-δ), then
  propagate prelabels in one topological pass; each object's label masks
  are interned and **released** before the next object is processed, so
  peak memory is bounded by the largest single object, mirroring SVF's
  conversion of SparseBitVector melds to plain version numbers.
- ``"fixpoint"``: the literal worklist reading of Figure 8.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.datastructs.interning import Interner
from repro.errors import AnalysisError
from repro.ir.instructions import LoadInst, StoreInst
from repro.svfg.builder import SVFG
from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    SVFGNode,
)


def _node_needs_versions(node: SVFGNode) -> bool:
    """Nodes whose C/Y entries the solver consults after constraint
    collection: loads and stores (the rules of Figure 10) and the
    actual/formal IN/OUT nodes (on-the-fly call graph resolution)."""
    if isinstance(node, InstNode):
        return isinstance(node.inst, (LoadInst, StoreInst))
    return isinstance(node, (ActualINNode, ActualOUTNode, FormalINNode, FormalOUTNode))


@dataclass
class VersioningStats:
    """Cost and effect of the versioning pre-analysis."""

    time: float = 0.0
    prelabels: int = 0
    meld_steps: int = 0
    versions: int = 0          # distinct (object, version) pairs (incl. ε)
    consume_entries: int = 0   # C(o) entries across nodes
    yield_entries: int = 0     # Y(o) entries across nodes


class ObjectVersioning:
    """The versioning result: C/Y functions plus version-level constraints.

    - :meth:`consumed_version` / :meth:`yielded_version` are the paper's
      ``C_ℓ(o)`` and ``Y_ℓ(o)``;
    - :attr:`constraints` are the deduplicated propagation constraints
      ``pt_κ(o) ⊆ pt_κ'(o)`` induced by SVFG edges whose endpoint versions
      differ (the set whose size Figure 2b compares against SFS).
    """

    #: Version id of the identity label ε (always interned first).
    EPSILON = 0

    def __init__(self, svfg: SVFG, keep_all_versions: bool = False):
        self.svfg = svfg
        self.stats = VersioningStats()
        self.keep_all_versions = keep_all_versions
        self._is_store: List[bool] = [
            isinstance(node, InstNode) and isinstance(node.inst, StoreInst)
            for node in svfg.nodes
        ]
        # Dense version tables: per node, obj id -> version id.  After
        # constraint collection, versions are only consulted at LOAD/STORE
        # nodes ([LOAD]ⱽ/[STORE]ⱽ) and at actual/formal IN/OUT nodes (OTF
        # call graph resolution); entries elsewhere (MEMPHIs, mostly) are
        # dropped unless *keep_all_versions* — set it when introspecting
        # versions node-by-node (examples, tests).  Single-object nodes
        # store their pair on the node itself (see SVFGNode); dict tables
        # are allocated lazily and share one immutable empty dict.
        empty: Dict[int, int] = {}
        self._empty = empty
        self.consumed: List[Dict[int, int]] = [empty] * len(svfg.nodes)
        self.yielded: List[Dict[int, int]] = [empty] * len(svfg.nodes)
        self._keep: List[bool] = [
            keep_all_versions or _node_needs_versions(node) for node in svfg.nodes
        ]
        # Single-object nodes: versions live on the node (int slots).
        self._single: List[bool] = [
            not keep_all_versions
            and isinstance(node, (ActualINNode, ActualOUTNode, FormalINNode, FormalOUTNode))
            for node in svfg.nodes
        ]
        #: (oid, src version) -> [dst versions]: deduplicated A-PROP work.
        self.constraints: Dict[Tuple[int, int], List[int]] = {}
        self._constraint_set: Set[Tuple[int, int, int]] = set()
        self._version_counts: Dict[int, int] = {}
        # Raw label masks, kept only when run(release_masks=False).
        self.consumed_masks: Optional[List[Dict[int, int]]] = None
        self.yielded_masks: Optional[List[Dict[int, int]]] = None

    # ------------------------------------------------------------ public API

    def consumed_version(self, node_id: int, oid: int) -> int:
        """``C_ℓ(o)`` — the version node ℓ consumes for object *oid*."""
        if self._single[node_id]:
            return self.svfg.nodes[node_id].consumed_ver
        return self.consumed[node_id].get(oid, self.EPSILON)

    def yielded_version(self, node_id: int, oid: int) -> int:
        """``Y_ℓ(o)`` — the version node ℓ yields for object *oid*."""
        if self._single[node_id]:
            return self.svfg.nodes[node_id].yielded_ver
        if self._is_store[node_id]:
            return self.yielded[node_id].get(oid, self.EPSILON)
        return self.consumed[node_id].get(oid, self.EPSILON)

    def _set_consumed(self, node_id: int, oid: int, ver: int) -> None:
        if self._single[node_id]:
            self.svfg.nodes[node_id].consumed_ver = ver
            # Non-store single-object nodes yield what they consume.
            self.svfg.nodes[node_id].yielded_ver = ver
            return
        table = self.consumed[node_id]
        if table is self._empty:
            table = self.consumed[node_id] = {}
            if not self._is_store[node_id]:
                self.yielded[node_id] = table  # [INTERNAL]ⱽ sharing
        table[oid] = ver

    def _set_yielded(self, node_id: int, oid: int, ver: int) -> None:
        if self._single[node_id]:
            self.svfg.nodes[node_id].yielded_ver = ver
            return
        if not self._is_store[node_id]:
            self._set_consumed(node_id, oid, ver)
            return
        table = self.yielded[node_id]
        if table is self._empty:
            table = self.yielded[node_id] = {}
        table[oid] = ver

    def num_versions(self, oid: int) -> int:
        return self._version_counts.get(oid, 0)

    def add_constraint(self, oid: int, src_ver: int, dst_ver: int) -> bool:
        """Register an OTF-discovered constraint; return True if new."""
        if src_ver == dst_ver:
            return False
        key = (oid, src_ver, dst_ver)
        if key in self._constraint_set:
            return False
        self._constraint_set.add(key)
        self.constraints.setdefault((oid, src_ver), []).append(dst_ver)
        return True

    def num_constraints(self) -> int:
        return len(self._constraint_set)

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Checkpointable versioning state (C/Y tables + constraints).

        Snapshotting — rather than re-running the meld pre-analysis on
        resume — matters for two reasons: the tables already contain every
        constraint discovered *on the fly* (which a fresh pre-analysis over
        the restored call graph would have to re-derive), and restoring is
        O(entries) where melding is the dominant pre-analysis cost.
        """
        single = []
        for node_id, is_single in enumerate(self._single):
            if not is_single:
                continue
            node = self.svfg.nodes[node_id]
            if node.consumed_ver or node.yielded_ver:
                single.append([node_id, node.consumed_ver, node.yielded_ver])
        consumed = {
            str(node_id): {str(oid): ver for oid, ver in table.items()}
            for node_id, table in enumerate(self.consumed)
            if table is not self._empty and not self._single[node_id]
        }
        # Non-store nodes share their yielded dict with consumed
        # ([INTERNAL]ⱽ); only store yields carry independent information.
        yielded_store = {
            str(node_id): {str(oid): ver for oid, ver in table.items()}
            for node_id, table in enumerate(self.yielded)
            if table is not self._empty and self._is_store[node_id]
        }
        return {
            "single": single,
            "consumed": consumed,
            "yielded_store": yielded_store,
            "constraints": sorted(self._constraint_set),
            "version_counts": {str(oid): count
                               for oid, count in self._version_counts.items()},
            "time": self.stats.time,
            "prelabels": self.stats.prelabels,
            "meld_steps": self.stats.meld_steps,
            "versions": self.stats.versions,
        }

    def restore(self, state: dict) -> "ObjectVersioning":
        """Reload :meth:`snapshot` output into this (freshly built) instance.

        The receiving object must wrap the same SVFG shape (same node count
        and δ set) as the snapshotting one — checkpoint metadata guarantees
        that by matching the IR hash and configuration before we get here.
        """
        for node_id, consumed_ver, yielded_ver in state["single"]:
            node = self.svfg.nodes[node_id]
            node.consumed_ver = consumed_ver
            node.yielded_ver = yielded_ver
        # _set_consumed recreates the [INTERNAL]ⱽ dict sharing for
        # non-store nodes; store yields land in their own tables after.
        for node_key, table in state["consumed"].items():
            node_id = int(node_key)
            for oid, ver in table.items():
                self._set_consumed(node_id, int(oid), ver)
        for node_key, table in state["yielded_store"].items():
            node_id = int(node_key)
            for oid, ver in table.items():
                self._set_yielded(node_id, int(oid), ver)
        for oid, src_ver, dst_ver in state["constraints"]:
            self.add_constraint(oid, src_ver, dst_ver)
        self._version_counts = {int(oid): count
                                for oid, count in state["version_counts"].items()}
        self.stats.time = state["time"]
        self.stats.prelabels = state["prelabels"]
        self.stats.meld_steps = state["meld_steps"]
        self.stats.versions = state["versions"]
        self.stats.consume_entries = sum(
            len(table) for table in self.consumed if table is not self._empty)
        self.stats.yield_entries = sum(
            len(table) for node_id, table in enumerate(self.yielded)
            if table is not self._empty and self._is_store[node_id])
        return self

    # ------------------------------------------------------------------- run

    def run(self, strategy: str = "scc", release_masks: bool = True) -> "ObjectVersioning":
        start = time.perf_counter()
        store_prelabels, delta_prelabels = self._prelabel()
        if strategy == "scc":
            self._run_per_object(store_prelabels, delta_prelabels, release_masks)
        elif strategy == "fixpoint":
            self._run_fixpoint(store_prelabels, delta_prelabels, release_masks)
            self.stats.consume_entries = sum(len(cons) for cons in self.consumed)
            self.stats.yield_entries = sum(len(y) for y in self.yielded)
        elif strategy == "hashcons":
            self._run_hashcons(store_prelabels, delta_prelabels)
            self.stats.consume_entries = sum(len(cons) for cons in self.consumed)
            self.stats.yield_entries = sum(len(y) for y in self.yielded)
        else:
            raise AnalysisError(f"unknown meld strategy {strategy!r}")
        self.stats.versions = sum(self._version_counts.values())
        self.stats.time = time.perf_counter() - start
        return self

    # ------------------------------------------------- strategy: hash-consing

    def _run_hashcons(
        self,
        store_prelabels: Dict[int, Dict[int, int]],
        delta_prelabels: Dict[int, Dict[int, int]],
    ) -> None:
        """Meld labelling with *hash-consed* labels — the paper's closing
        remark suggests "a data structure specifically catered to
        versioning rather than ... LLVM's SparseBitVector".

        Labels here are already-interned version ids: the meld of two ids
        is looked up in (or added to) a pairwise meld table, so labels stay
        machine ints regardless of how many prelabels meld into them, and
        interning happens *during* propagation instead of afterwards.
        Produces the same equivalence classes as the mask strategies
        (cross-checked in the test suite) with cost O(meld-table size)
        instead of O(set bits) per meld.
        """
        from collections import deque

        svfg = self.svfg
        is_store = self._is_store
        delta = svfg.delta_nodes
        ind_succs = svfg.ind_succs

        # Per object: version id <-> canonical frozenset of prelabel ids.
        tables: Dict[int, Dict[frozenset, int]] = {}
        sets_of: Dict[int, List[frozenset]] = {}
        meld_cache: Dict[Tuple[int, int, int], int] = {}

        def intern_set(oid: int, items: frozenset) -> int:
            table = tables.get(oid)
            if table is None:
                table = tables[oid] = {frozenset(): 0}
                sets_of[oid] = [frozenset()]
            ident = table.get(items)
            if ident is None:
                ident = len(sets_of[oid])
                table[items] = ident
                sets_of[oid].append(items)
            return ident

        def meld(oid: int, a: int, b: int) -> int:
            if a == b:
                return a
            if a > b:
                a, b = b, a
            key = (oid, a, b)
            cached = meld_cache.get(key)
            if cached is None:
                cached = intern_set(oid, sets_of[oid][a] | sets_of[oid][b])
                meld_cache[key] = cached
            return cached

        consumed: List[Dict[int, int]] = [{} for __ in svfg.nodes]
        yielded: List[Dict[int, int]] = [
            {} if store else consumed[node_id]
            for node_id, store in enumerate(is_store)
        ]
        seeds: List[Tuple[int, int]] = []
        prelabel_counters: Dict[int, int] = {}
        for labels, target in ((store_prelabels, yielded), (delta_prelabels, consumed)):
            for oid, per_node in labels.items():
                for node_id in per_node:
                    index = prelabel_counters.get(oid, 0)
                    prelabel_counters[oid] = index + 1
                    target[node_id][oid] = intern_set(oid, frozenset({index}))
                    seeds.append((node_id, oid))

        work = deque(seeds)
        in_work = set(seeds)
        while work:
            item = work.popleft()
            in_work.discard(item)
            node_id, oid = item
            label = yielded[node_id].get(oid, 0)
            if not label:
                continue
            succs = ind_succs[node_id].get(oid)
            if not succs:
                continue
            for succ in succs:
                if succ in delta:
                    continue
                old = consumed[succ].get(oid, 0)
                new = meld(oid, old, label)
                if new == old:
                    continue
                consumed[succ][oid] = new
                self.stats.meld_steps += 1
                if not is_store[succ]:
                    key = (succ, oid)
                    if key not in in_work:
                        in_work.add(key)
                        work.append(key)

        # Labels are already dense version ids: persist + collect constraints.
        epsilon = self.EPSILON
        for node_id in range(len(svfg.nodes)):
            for oid, ver in consumed[node_id].items():
                self._set_consumed(node_id, oid, ver)
            if is_store[node_id]:
                for oid, ver in yielded[node_id].items():
                    self._set_yielded(node_id, oid, ver)
        self._version_counts = {oid: len(sets) for oid, sets in sets_of.items()}
        for src in range(len(svfg.nodes)):
            for oid, dsts in ind_succs[src].items():
                src_ver = self.yielded_version(src, oid)
                if src_ver == epsilon:
                    continue
                for dst in dsts:
                    dst_ver = self.consumed_version(dst, oid)
                    if src_ver != dst_ver:
                        self.add_constraint(oid, src_ver, dst_ver)

    def _prelabel(self) -> Tuple[Dict[int, Dict[int, int]], Dict[int, Dict[int, int]]]:
        """Figure 6: fresh yield labels at stores, fresh consume labels at
        δ nodes.  Returns per-object ``{node: mask}`` maps."""
        svfg = self.svfg
        store_prelabels: Dict[int, Dict[int, int]] = {}
        delta_prelabels: Dict[int, Dict[int, int]] = {}
        counters: Dict[int, int] = {}

        def fresh(oid: int) -> int:
            index = counters.get(oid, 0)
            counters[oid] = index + 1
            self.stats.prelabels += 1
            return 1 << index

        for node in svfg.nodes:
            if self._is_store[node.id]:
                for chi in svfg.memssa.store_chis.get(node.inst, ()):  # type: ignore[attr-defined]
                    oid = chi.obj.id
                    store_prelabels.setdefault(oid, {})[node.id] = fresh(oid)
        for node_id in svfg.delta_nodes:
            oid = svfg.nodes[node_id].obj.id  # type: ignore[attr-defined]
            delta_prelabels.setdefault(oid, {})[node_id] = fresh(oid)
        return store_prelabels, delta_prelabels

    # ----------------------------------------------------- strategy: per-obj

    def _run_per_object(
        self,
        store_prelabels: Dict[int, Dict[int, int]],
        delta_prelabels: Dict[int, Dict[int, int]],
        release_masks: bool,
    ) -> None:
        svfg = self.svfg
        if not release_masks:
            self.consumed_masks = [{} for __ in svfg.nodes]
            self.yielded_masks = [{} for __ in svfg.nodes]
        # Group o-labelled edges per object.  Edges into δ nodes do not
        # meld (frozen prelabels) but still induce propagation constraints.
        edges_by_obj: Dict[int, List[Tuple[int, int]]] = {}
        for src in range(len(svfg.nodes)):
            for oid, dsts in svfg.ind_succs[src].items():
                bucket = edges_by_obj.setdefault(oid, [])
                for dst in dsts:
                    bucket.append((src, dst))
        oids = set(edges_by_obj) | set(store_prelabels) | set(delta_prelabels)
        for oid in oids:
            consumed, yielded = self._meld_one_object(
                oid,
                edges_by_obj.get(oid, []),
                store_prelabels.get(oid, {}),
                delta_prelabels.get(oid, {}),
            )
            self._intern_object(oid, consumed, yielded, edges_by_obj.get(oid, []))
            if self.consumed_masks is not None and self.yielded_masks is not None:
                for node_id, mask in consumed.items():
                    self.consumed_masks[node_id][oid] = mask
                for node_id, mask in yielded.items():
                    self.yielded_masks[node_id][oid] = mask

    def _meld_one_object(
        self,
        oid: int,
        edges: List[Tuple[int, int]],
        store_labels: Dict[int, int],
        delta_labels: Dict[int, int],
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Meld labels for one object; returns (consumed, yielded) masks."""
        delta = self.svfg.delta_nodes
        is_store = self._is_store

        def is_relay(n: int) -> bool:
            return not is_store[n] and n not in delta

        # Relay adjacency and membership.
        relay_succs: Dict[int, List[int]] = {}
        relay_nodes: Set[int] = set()
        for src, dst in edges:
            if is_relay(src):
                relay_succs.setdefault(src, []).append(dst)
                relay_nodes.add(src)
            if is_relay(dst):
                relay_nodes.add(dst)

        # SCC over the relay-to-relay subgraph (iterative Tarjan).
        comp_of: Dict[int, int] = {}
        comps: List[List[int]] = []  # reverse topological (succs first)
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = 0
        for root in relay_nodes:
            if root in index:
                continue
            work = [(root, iter(relay_succs.get(root, ())))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, succs = work[-1]
                advanced = False
                for succ in succs:
                    if not is_relay(succ):
                        continue
                    if succ not in index:
                        index[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(relay_succs.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        comp_of[member] = len(comps)
                        if member == node:
                            break
                    comps.append(comp)

        # Condensation DAG: fixed sources contribute prelabels; store
        # consumers are sinks (encoded as negative ids); δ targets are
        # frozen and receive nothing.
        comp_label = [0] * len(comps)
        comp_succs: List[Set[int]] = [set() for __ in comps]
        store_in: Dict[int, int] = {}
        for src, dst in edges:
            if dst in delta:
                continue  # frozen prelabel; constraint added later
            if is_relay(src):
                src_comp = comp_of[src]
                if is_relay(dst):
                    dst_comp = comp_of[dst]
                    if dst_comp != src_comp:
                        comp_succs[src_comp].add(dst_comp)
                else:
                    comp_succs[src_comp].add(-dst - 1)
            else:
                label = store_labels.get(src) or delta_labels.get(src) or 0
                if not label:
                    continue
                if is_relay(dst):
                    comp_label[comp_of[dst]] |= label
                else:
                    store_in[dst] = store_in.get(dst, 0) | label

        # One pass, predecessors first (Tarjan emits successors first).
        for comp_id in range(len(comps) - 1, -1, -1):
            label = comp_label[comp_id]
            if not label:
                continue
            self.stats.meld_steps += 1
            for succ in comp_succs[comp_id]:
                if succ < 0:
                    dst = -succ - 1
                    store_in[dst] = store_in.get(dst, 0) | label
                else:
                    comp_label[succ] |= label

        # Assemble consumed/yielded masks for this object.
        consumed: Dict[int, int] = {}
        yielded: Dict[int, int] = {}
        for comp_id, members in enumerate(comps):
            label = comp_label[comp_id]
            if not label:
                continue
            for member in members:
                consumed[member] = label
                yielded[member] = label  # [INTERNAL]ⱽ
        for node_id, label in store_in.items():
            if label:
                consumed[node_id] = label
        for node_id, label in store_labels.items():
            yielded[node_id] = label
        for node_id, label in delta_labels.items():
            consumed[node_id] = label
            yielded[node_id] = label  # δ nodes are non-store
        return consumed, yielded

    def _intern_object(
        self,
        oid: int,
        consumed: Dict[int, int],
        yielded: Dict[int, int],
        edges: List[Tuple[int, int]],
    ) -> None:
        """Phase 3 for one object: dense ids + constraints, then release."""
        interner: Interner = Interner()
        interner.intern(0)  # ε is version 0
        consumed_ver = {node_id: interner.intern(mask) for node_id, mask in consumed.items()}
        yielded_ver = {node_id: interner.intern(mask) for node_id, mask in yielded.items()}
        self._version_counts[oid] = len(interner)
        self.stats.consume_entries += len(consumed_ver)
        self.stats.yield_entries += len(yielded_ver)
        epsilon = self.EPSILON
        for src, dst in edges:
            src_ver = yielded_ver.get(src, epsilon)
            if src_ver == epsilon:
                continue
            dst_ver = consumed_ver.get(dst, epsilon)
            if src_ver != dst_ver:
                self.add_constraint(oid, src_ver, dst_ver)
        # Persist only the entries the solver will consult again.
        keep = self._keep
        for node_id, ver in consumed_ver.items():
            if keep[node_id]:
                self._set_consumed(node_id, oid, ver)
        for node_id, ver in yielded_ver.items():
            if keep[node_id]:
                self._set_yielded(node_id, oid, ver)

    # --------------------------------------------------- strategy: fixpoint

    def _run_fixpoint(
        self,
        store_prelabels: Dict[int, Dict[int, int]],
        delta_prelabels: Dict[int, Dict[int, int]],
        release_masks: bool,
    ) -> None:
        """The literal worklist reading of [EXTERNAL]ⱽ/[INTERNAL]ⱽ."""
        svfg = self.svfg
        is_store = self._is_store
        consumed_masks: List[Dict[int, int]] = [{} for __ in svfg.nodes]
        # Non-store nodes yield what they consume: share the dict.
        yielded_masks: List[Dict[int, int]] = [
            {} if store else consumed_masks[node_id]
            for node_id, store in enumerate(is_store)
        ]
        seeds: List[Tuple[int, int]] = []
        for oid, labels in store_prelabels.items():
            for node_id, mask in labels.items():
                yielded_masks[node_id][oid] = mask
                seeds.append((node_id, oid))
        for oid, labels in delta_prelabels.items():
            for node_id, mask in labels.items():
                consumed_masks[node_id][oid] = mask
                seeds.append((node_id, oid))

        delta = svfg.delta_nodes
        ind_succs = svfg.ind_succs
        work = deque(seeds)
        in_work = set(seeds)
        while work:
            item = work.popleft()
            in_work.discard(item)
            node_id, oid = item
            label = yielded_masks[node_id].get(oid, 0)
            if not label:
                continue
            succs = ind_succs[node_id].get(oid)
            if not succs:
                continue
            for succ in succs:
                if succ in delta:
                    continue  # prelabelled consumes are frozen
                consumed = consumed_masks[succ]
                old = consumed.get(oid, 0)
                new = old | label
                if new == old:
                    continue
                consumed[oid] = new
                self.stats.meld_steps += 1
                if not is_store[succ]:
                    key = (succ, oid)
                    if key not in in_work:
                        in_work.add(key)
                        work.append(key)

        # Intern whole-graph results object by object.
        interners: Dict[int, Interner] = {}

        def intern(oid: int, mask: int) -> int:
            interner = interners.get(oid)
            if interner is None:
                interner = Interner()
                interner.intern(0)
                interners[oid] = interner
            return interner.intern(mask)

        for node_id in range(len(svfg.nodes)):
            for oid, mask in consumed_masks[node_id].items():
                self._set_consumed(node_id, oid, intern(oid, mask))
            if is_store[node_id]:
                for oid, mask in yielded_masks[node_id].items():
                    self._set_yielded(node_id, oid, intern(oid, mask))
        self._version_counts = {oid: len(interner) for oid, interner in interners.items()}
        for src in range(len(svfg.nodes)):
            for oid, dsts in ind_succs[src].items():
                src_ver = self.yielded_version(src, oid)
                if src_ver == self.EPSILON:
                    continue
                for dst in dsts:
                    dst_ver = self.consumed_version(dst, oid)
                    if src_ver != dst_ver:
                        self.add_constraint(oid, src_ver, dst_ver)
        if not release_masks:
            self.consumed_masks = consumed_masks
            self.yielded_masks = yielded_masks


def version_objects(svfg: SVFG, strategy: str = "scc",
                    snapshot: Optional[dict] = None) -> ObjectVersioning:
    """Run the versioning pre-analysis (prelabel → meld → intern).

    With *snapshot* — :meth:`ObjectVersioning.snapshot` of a meld over a
    graph of the same shape, e.g. the SVFG this one was copied from — the
    labelling is restored instead of melded again.
    """
    if snapshot is not None:
        return ObjectVersioning(svfg).restore(snapshot)
    return ObjectVersioning(svfg).run(strategy=strategy)
