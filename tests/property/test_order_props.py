"""Property-based tests for SCC condensation.

SFS drains the SVFG in the topological order of its strongly connected
components (:mod:`repro.svfg.order`).  That order is only useful if the
condensation is a topologically ordered DAG whose components cover
every node exactly once — for the dict-keyed reference
(:func:`repro.datastructs.graph.condensation`) and for the array-based
Tarjan the SVFG order runs.
"""

from hypothesis import given, settings, strategies as st

from repro.datastructs.graph import DiGraph, condensation
from repro.svfg.order import _condense_adjacency


def digraphs(max_nodes: int = 12):
    """Random digraphs as (node count, edge list) with self loops and
    duplicates allowed."""
    return st.integers(min_value=0, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, max(0, n - 1)),
                               st.integers(0, max(0, n - 1))),
                     max_size=4 * max(1, n)) if n else st.just([])))


def build(n, edges):
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


class TestCondensationProps:
    @given(digraphs())
    @settings(max_examples=200)
    def test_components_cover_nodes_exactly_once(self, spec):
        n, edges = spec
        component_of, components, _dag = condensation(build(n, edges))
        flattened = [node for members in components for node in members]
        assert sorted(flattened) == list(range(n))
        for cid, members in enumerate(components):
            for node in members:
                assert component_of[node] == cid

    @given(digraphs())
    @settings(max_examples=200)
    def test_dag_is_topologically_ordered_and_acyclic(self, spec):
        n, edges = spec
        graph = build(n, edges)
        component_of, components, dag = condensation(graph)
        # Every original edge maps to an equal-or-forward component edge;
        # strictly forward in the DAG (self-loops are dropped), which
        # makes the component order topological and the DAG acyclic.
        for src, dst in edges:
            assert component_of[src] <= component_of[dst]
        for csrc in dag.nodes():
            for cdst in dag.successors(csrc):
                assert csrc < cdst

    @given(digraphs())
    @settings(max_examples=200)
    def test_components_are_maximal_sccs(self, spec):
        n, edges = spec
        graph = build(n, edges)
        component_of, components, _dag = condensation(graph)
        reach = _reachability(n, edges)
        for a in range(n):
            for b in range(n):
                together = reach[a][b] and reach[b][a]
                assert (component_of[a] == component_of[b]) == together

    @given(digraphs())
    @settings(max_examples=100)
    def test_matches_array_condensation(self, spec):
        # The SVFG order's array-based Tarjan must agree with the
        # dict-keyed reference on the component *partition* (numbering
        # may differ only if both are topological; with identical
        # tie-breaking they coincide on the SCC sets).
        n, edges = spec
        succs = [[] for _ in range(n)]
        for src, dst in edges:
            succs[src].append(dst)
        component_of, components = _condense_adjacency(succs)
        ref_of, ref_components, _ = condensation(build(n, edges))
        assert ({frozenset(c) for c in components}
                == {frozenset(c) for c in ref_components})
        for src, dst in edges:
            assert component_of[src] <= component_of[dst]


def _reachability(n, edges):
    reach = [[False] * n for _ in range(n)]
    adj = [[] for _ in range(n)]
    for src, dst in edges:
        adj[src].append(dst)
    for start in range(n):
        stack = [start]
        row = reach[start]
        row[start] = True
        while stack:
            node = stack.pop()
            for succ in adj[node]:
                if not row[succ]:
                    row[succ] = True
                    stack.append(succ)
    return reach
