"""SCC-topological order of the SVFG: the schedule SFS drains it in.

The staged solvers are confluent (DESIGN.md §10): any fair schedule
reaches the same points-to sets, so a schedule only decides how much
work a solve does.  Popping nodes in the topological order of the
SVFG's strongly connected components lets a node's inputs settle before
it runs, which cuts the revisits a FIFO discovery order pays for.

The graph condensed here is the SVFG's *eventual* shape: direct edges,
indirect (object-labelled) edges, and the call edges the auxiliary
analysis says on-the-fly resolution may wire in later.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.datastructs.bitset import iter_bits
from repro.ir.instructions import CallInst
from repro.ir.values import FunctionObject
from repro.svfg.builder import SVFG


def topological_rank(svfg: SVFG) -> List[int]:
    """Node id → topological index of its SCC component.

    Every dependency edge goes to an equal-or-later index, and the
    numbering is deterministic for a given SVFG.
    """
    component_of, __ = _condense_adjacency(_dependency_adjacency(svfg))
    return component_of


def _dependency_adjacency(svfg: SVFG) -> List[List[int]]:
    """The SVFG's eventual value-flow shape as int adjacency lists.

    Includes the edges ``connect_callsite`` *will* add for every call
    edge the auxiliary analysis admits (direct calls are wired at build
    time already; indirect ones are resolved on the fly) — without them
    a callee's region could be ordered before its callers, and every
    parameter binding would flow backwards in the order.

    Duplicate edges are not collapsed: Tarjan just re-scans them, which
    is far cheaper than set-deduping hundreds of thousands of edges.
    """
    succs: List[List[int]] = [list(dsts) for dsts in svfg.direct_succs]
    for src, table in enumerate(svfg.ind_succs):
        for dsts in table.values():
            succs[src].extend(dsts)
    # Potential OTF call wiring, over-approximated by Andersen.
    andersen = svfg.andersen
    module = svfg.module
    for inst, node in svfg.inst_node.items():
        if not isinstance(inst, CallInst):
            continue
        if inst.is_indirect():
            callees = []
            for oid in iter_bits(andersen.pts_mask(inst.callee)):
                obj = module.objects[oid]
                if isinstance(obj, FunctionObject):
                    callees.append(obj.function)
        else:
            callees = [inst.callee]
        for callee in callees:
            if callee.is_declaration:
                continue
            succs[node.id].append(svfg.inst_node[callee.entry_inst].id)
            # connect_callsite only wires exit -> call when the call uses
            # its return value; mirroring that keeps value-ignoring calls
            # out of caller/callee SCCs.
            exit_inst = callee.exit_inst()
            if exit_inst is not None and inst.dst is not None:
                succs[svfg.inst_node[exit_inst].id].append(node.id)
            for oid, ain in svfg.actual_in.get(inst, {}).items():
                fin = svfg.formal_in.get(callee, {}).get(oid)
                if fin is not None:
                    succs[ain].append(fin)
            for oid, aout in svfg.actual_out.get(inst, {}).items():
                fout = svfg.formal_out.get(callee, {}).get(oid)
                if fout is not None:
                    succs[fout].append(aout)
    return succs


def _condense_adjacency(succs: List[List[int]]
                        ) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan over int adjacency lists.

    Returns ``(component_of, components)`` with components in
    topological order — the array-indexed twin of
    :func:`repro.datastructs.graph.condensation`, several times faster
    on SVFG-sized graphs because it never touches dict-keyed state.
    """
    n = len(succs)
    index = [0] * n  # 0 = unvisited, else discovery index + 1
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work: List[List[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            node = frame[0]
            adj = succs[node]
            i = frame[1]
            advanced = False
            while i < len(adj):
                succ = adj[i]
                i += 1
                if not index[succ]:
                    frame[1] = i
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append([succ, 0])
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    components.reverse()  # Tarjan yields callee-first; topological = reverse
    component_of = [0] * n
    for cid, members in enumerate(components):
        for member in members:
            component_of[member] = cid
    return component_of, components
