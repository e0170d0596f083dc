"""Unit tests for the SVFG's SCC-topological order (repro.svfg.order)."""

import pytest

from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline
from repro.svfg.order import _dependency_adjacency, topological_rank

ORDER_SOURCE = """
    int a; int b; int *p; int *q;
    int pick(int which) { if (which) { return a; } return b; }
    int flow() { p = &a; q = p; *q = 1; return *p; }
    int main() { int r; r = pick(1); r = flow(); return r; }
"""


@pytest.fixture(scope="module")
def svfg():
    pipeline = AnalysisPipeline(compile_c(ORDER_SOURCE))
    return pipeline.svfg()


class TestTopologicalRank:
    def test_topo_order_respects_dependency_dag(self, svfg):
        # Every dependency edge, including the call edges on-the-fly
        # resolution may add later, goes to an equal-or-later component.
        rank = topological_rank(svfg)
        for src, dsts in enumerate(_dependency_adjacency(svfg)):
            for dst in dsts:
                assert rank[src] <= rank[dst]

    def test_deterministic_for_same_svfg(self, svfg):
        assert topological_rank(svfg) == topological_rank(svfg)
        assert topological_rank(svfg) == topological_rank(svfg.copy())

    def test_empty_graph(self):
        pipeline = AnalysisPipeline(compile_c("int main() { return 0; }"))
        svfg = pipeline.svfg()
        assert len(topological_rank(svfg)) == len(svfg.nodes)
