"""Hazard analyzer semantics: privileges, the dependence graph, and the
acceptance contracts tying analysis to execution.

The two load-bearing agreements asserted here:

* the dependence graph **admits the observed execution order** of real
  integration programs (the in-order ``CompiledProgram.execute`` pass,
  including the sparse-ML SDDMM→SpMM program of ``examples/sparse_ml.py``),
  and rejects orders that would violate a dependence;
* ``Program.analyze()``'s reuse map is **exactly** what
  ``compile_program(cse=True)`` executes — the analyzer is the decision
  procedure, not a parallel reimplementation.

``UnsupportedEinsum`` predictions are pinned against the compiler: every
schedule the analyzer flags must raise ``CompileError`` when compiled,
and flagged-clean schedules must compile.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.analysis import (
    AnalysisReport, analyze_program, build_graph, program_privileges,
)
from repro.core import clear_caches, compile_kernel
from repro.errors import CompileError, UnsupportedEinsum
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    yield
    clear_caches()


def chain_program():
    """x = B c ; z = B x ; c = c + y — RAW and WAR carried on x and c."""
    rng = np.random.default_rng(5)
    mat = sp.random(24, 24, density=0.2, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", mat, CSR)
    c = Tensor.from_dense("c", rng.random(24))
    y = Tensor.from_dense("y", rng.random(24))
    x = Tensor.zeros("x", (24,))
    z = Tensor.zeros("z", (24,))
    i, j, k, l, m = index_vars("i j k l m")
    x[i] = B[i, j] * c[j]
    s0 = x.schedule()
    z[k] = B[k, l] * x[l]
    s1 = z.schedule()
    c[m] = c[m] + y[m]
    s2 = c.schedule()
    return [s0, s1, s2]


class TestPrivileges:
    def test_modes_pair_tensor_dims_with_loop_vars(self):
        B = Tensor.from_dense("B", np.eye(4), CSR)
        c = Tensor.from_dense("c", np.ones(4))
        a = Tensor.zeros("a", (4,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        (priv,) = program_privileges([a.schedule()])
        by_name = {u.name: u.modes for u in priv.reads}
        assert by_name["B"] == ((0, "i"), (1, "j"))
        assert by_name["c"] == ((0, "j"),)
        assert priv.writes[0].name == "a"
        assert priv.write_kind == "write"

    def test_accumulate_reads_its_output(self):
        B = Tensor.from_dense("B", np.eye(4), CSR)
        c = Tensor.from_dense("c", np.ones(4))
        a = Tensor.zeros("a", (4,))
        i, j = index_vars("i j")
        a[i] = a[i] + B[i, j] * c[j]
        (priv,) = program_privileges([a.schedule()])
        assert priv.write_kind == "accumulate"
        assert "a" in {u.name for u in priv.reads}
        assert priv.aliased_tensors() == [a]


class TestDependenceGraph:
    def test_kinds_and_directions(self):
        scheds = chain_program()
        graph = analyze_program(scheds, Machine.cpu(1)).graph
        kinds = {(e.src, e.dst, e.kind, e.tensor) for e in graph.edges}
        assert (0, 1, "RAW", "x") in kinds   # statement 1 reads x
        assert (0, 2, "WAR", "c") in kinds   # statement 2 overwrites c
        assert all(e.src < e.dst for e in graph.edges)

    def test_admits_observed_execution_order_and_rejects_violations(self):
        scheds = chain_program()
        graph = analyze_program(scheds, Machine.cpu(1)).graph
        # the runtime executes in program order — always admitted
        assert graph.admits_order(graph.topological_order())
        # hoisting the c-overwrite above the x-producer breaks the WAR
        assert not graph.admits_order([2, 0, 1])
        # swapping producer and consumer of x breaks the RAW
        assert not graph.admits_order([1, 0, 2])

    def test_independent_statements_commute(self):
        privs = program_privileges(chain_program()[:1])
        g = build_graph(privs)
        assert g.edges == []


class TestSparseMLProgram:
    def test_graph_agrees_with_observed_execution(self):
        # The examples/sparse_ml.py program: SDDMM then SpMM over one
        # shared graph — read-shared B, no cross-statement write conflict.
        rng = np.random.default_rng(5)
        n, rank = 32, 8
        G = sp.random(n, n, density=0.15, random_state=rng, format="csr")
        with repro.session(nodes=4) as s:
            B = s.tensor("G", G, repro.CSR)
            Ut = s.tensor("U", rng.random((n, rank)))
            Vt = s.tensor("V", rng.random((rank, n)))
            F = s.tensor("F", rng.random((n, rank)))
            E = s.zeros("E", G.shape, repro.CSR)
            H = s.zeros("H", (n, rank))
            i, j, k, i2, k2, j2 = repro.index_vars("i j k i2 k2 j2")
            with s.program() as step:
                E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
                H[i2, j2] = B[i2, k2] * F[k2, j2]
            report = step.analyze()
            assert isinstance(report, AnalysisReport)
            assert report.ok, [str(d) for d in report.diagnostics]
            # both statements only *read* the shared graph: no dependence,
            # so the observed in-order execution and its reverse both hold
            assert report.graph.admits_order([0, 1])
            assert report.graph.admits_order([1, 0])
            r = step.run()
            assert len(r) == 2 and r.reused == 0
        assert np.allclose(
            E.to_dense(),
            G.multiply(Ut.dense_array() @ Vt.dense_array()).toarray(),
        )

    def test_consumer_chain_orders_statements(self):
        rng = np.random.default_rng(9)
        n, rank = 24, 6
        G = sp.random(n, n, density=0.2, random_state=rng, format="csr")
        with repro.session(nodes=2) as s:
            B = s.tensor("G", G, repro.CSR)
            F = s.tensor("F", rng.random((n, rank)))
            H = s.zeros("H", (n, rank))
            H2 = s.zeros("H2", (n, rank))
            i, k, j, i2, k2, j2 = repro.index_vars("i k j i2 k2 j2")
            with s.program() as step:
                H[i, j] = B[i, k] * F[k, j]       # produce H
                H2[i2, j2] = B[i2, k2] * H[k2, j2]  # consume H
            report = step.analyze()
            edges = {(e.src, e.dst, e.kind) for e in report.graph.edges}
            assert (0, 1, "RAW") in edges
            assert not report.graph.admits_order([1, 0])
            r = step.run()
        np.testing.assert_allclose(
            np.asarray(H2.dense_array()), G @ (G @ F.dense_array())
        )


class TestAnalyzerDrivesCSE:
    def test_reuse_map_matches_compiled_program(self):
        rng = np.random.default_rng(2)
        mat = sp.random(20, 20, density=0.2, random_state=rng, format="csr")
        B = Tensor.from_scipy("B", mat, CSR)
        c = Tensor.from_dense("c", rng.random(20))
        x = Tensor.zeros("x", (20,))
        i, j = index_vars("i j")
        scheds = []
        for _ in range(3):  # x = B c, three times: 1 executes, 2 reuse
            x[i] = B[i, j] * c[j]
            scheds.append(x.schedule())
        machine = Machine.cpu(1)
        report = analyze_program(scheds, machine)
        prog = repro.compile_program(scheds, machine, cse=True)
        assert report.reuse_map == prog.reused_from == [None, 0, 0]
        result = prog.execute(Runtime(prog.machine))
        assert result.reused == 2


class TestUnsupportedEinsumPredictions:
    def _spmv(self, n=16):
        rng = np.random.default_rng(4)
        mat = sp.random(n, n, density=0.3, random_state=rng, format="csr")
        B = Tensor.from_scipy("B", mat, CSR)
        c = Tensor.from_dense("c", rng.random(n))
        a = Tensor.zeros("a", (n,))
        return B, c, a

    def test_two_nonzero_distributed_vars_flagged_and_raise(self):
        B, c, a = self._spmv()
        i, j, f, ft, fo, fi = index_vars("i j f ft fo fi")
        a[i] = B[i, j] * c[j]
        s = (a.schedule().fuse(i, j, f).pos(f, ft, B[i, j])
             .divide(ft, fo, fi, 4).distribute(fo))
        # both halves of the position split distributed: two non-zero vars
        s.distribute(fi)
        report = analyze_program([s], Machine.cpu(4))
        diags = report.diagnostics_of(UnsupportedEinsum)
        assert diags, [str(d) for d in report.diagnostics]
        assert "at most one non-zero" in diags[0].message
        # provenance names both offending vars with their underlying chain
        assert {"fo<-i,j", "fi<-i,j"} <= set(diags[0].provenance.loop_vars)
        with pytest.raises(CompileError, match="at most one non-zero"):
            compile_kernel(s, Machine.cpu(4), use_cache=False)

    def test_universe_distribution_of_fused_var_flagged_and_raises(self):
        B, c, a = self._spmv()
        i, j, f, fo, fi = index_vars("i j f fo fi")
        a[i] = B[i, j] * c[j]
        s = (a.schedule().fuse(i, j, f).divide(f, fo, fi, 4)
             .distribute(fo))  # fo underlies {i, j}: not universe-splittable
        report = analyze_program([s], Machine.cpu(4))
        diags = report.diagnostics_of(UnsupportedEinsum)
        assert diags and "fused" in diags[0].message
        # provenance renders the derived -> underlying chain
        assert any("<-" in v for v in diags[0].provenance.loop_vars)
        with pytest.raises(CompileError):
            compile_kernel(s, Machine.cpu(4), use_cache=False)

    def test_streamed_output_flagged_and_raises(self):
        """A ``communicate`` of the output inside every distributed loop
        would stream it in rounds that are never kept; streaming an operand
        there is SpDISTAL-Batched, and stays clean."""
        B, c, a = self._spmv()
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = (a.schedule().divide(i, io, ii, 4).distribute(io)
             .communicate([a, B, c], io).communicate(c, ii))
        assert not analyze_program([s], Machine.cpu(4)).diagnostics_of(UnsupportedEinsum)
        compile_kernel(s, Machine.cpu(4), use_cache=False)  # no raise
        s.communicate(a, ii)
        (diag,) = analyze_program([s], Machine.cpu(4)).diagnostics_of(UnsupportedEinsum)
        assert "cannot stream the output a" in diag.message
        assert diag.provenance.tensor == "a"
        with pytest.raises(CompileError, match="cannot stream the output a"):
            compile_kernel(s, Machine.cpu(4), use_cache=False)

    def test_supported_schedules_stay_clean(self):
        B, c, a = self._spmv()
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = (a.schedule().divide(i, io, ii, 4).distribute(io)
             .communicate([a, B, c], io))
        report = analyze_program([s], Machine.cpu(4))
        assert not report.diagnostics_of(UnsupportedEinsum)
        compile_kernel(s, Machine.cpu(4), use_cache=False)  # no raise
