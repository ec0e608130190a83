"""Lazy multi-statement programs: capture, compile-together, run-in-order.

The program-level acceptance property: statements sharing an operand have
its partitions derived *once* — the second statement's compile hits the
partition memo and reuses the very same ``TensorPartition`` object.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import cache as _cache
from repro.core import clear_caches


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _workload(s, n=300):
    M = sp.random(n, n, density=0.02, format="csr",
                  random_state=np.random.default_rng(0))
    B = s.tensor("B", M, repro.CSR)
    c = s.tensor("c", np.random.default_rng(1).random(n))
    x = s.tensor("x", np.random.default_rng(2).random(n))
    a = s.zeros("a", (n,))
    y = s.zeros("y", (n,))
    return M, B, c, x, a, y


class TestSharedOperandPartitions:
    def test_partition_memo_hits_for_shared_operand(self):
        """Two SpMVs over one matrix: the second statement's compile must
        hit the partition memo for B instead of re-deriving it."""
        with repro.session(nodes=4) as s:
            M, B, c, x, a, y = _workload(s)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            a[i] = B[i, j] * c[j]
            y[i2] = B[i2, j2] * x[j2]

            before = _cache.cache_stats()
            prog = s.compile(a, y)
            after = _cache.cache_stats()

            # B is partitioned by statement 1 (a miss) and *hit* by
            # statement 2 — at least one memo hit, and the two kernels
            # share the identical partition object.
            assert after["partition_hits"] - before["partition_hits"] >= 1
            assert prog[0].parts[id(B)] is prog[1].parts[id(B)]

            res = prog.execute(s.runtime)
            assert np.allclose(a.vals.data, M @ c.dense_array())
            assert np.allclose(y.vals.data, M @ x.dense_array())
            assert len(res) == 2
            assert res.simulated_seconds == sum(
                r.simulated_seconds for r in res.results
            )

    def test_separate_compiles_also_share_via_memo(self):
        """compile_kernel is a one-statement program: two separate calls
        still share partitions through the process-wide memo."""
        with repro.session(nodes=4) as s:
            M, B, c, x, a, y = _workload(s)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            a[i] = B[i, j] * c[j]
            ck1 = s.compile_kernel(a)
            y[i2] = B[i2, j2] * x[j2]
            before = _cache.cache_stats()["partition_hits"]
            ck2 = s.compile_kernel(y)
            assert _cache.cache_stats()["partition_hits"] - before >= 1
            assert ck1.parts[id(B)] is ck2.parts[id(B)]


class TestCaptureAndChaining:
    def test_with_block_captures_assignments_in_order(self):
        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=100)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            with s.program() as p:
                a[i] = B[i, j] * c[j]
                y[i2] = B[i2, j2] * x[j2]
            assert len(p) == 2
            assert p[0].output is a and p[1].output is y
            p.run()
            assert np.allclose(a.vals.data, M @ c.dense_array())

    def test_chained_statements_see_predecessor_outputs(self):
        """Statement 2 consumes statement 1's output: in-order execution
        on one runtime must propagate the fresh values."""
        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=100)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            with s.program() as p:
                a[i] = B[i, j] * c[j]
                y[i2] = B[i2, j2] * a[j2]   # reads a — B @ (B @ c)
            p.run()
            expected = M @ (M @ c.dense_array())
            assert np.allclose(y.vals.data, expected)

    def test_explicit_schedule_overrides_auto(self):
        with repro.session(nodes=3) as s:
            M, B, c, x, a, y = _workload(s, n=100)
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            f, fp, fo, fi = repro.index_vars("f fp fo fi")
            stmt = s.define(a)
            sched = (stmt.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
                     .divide(fp, fo, fi, 3).distribute(fo)
                     .communicate([a, B, c], fo))
            res = s.run()
            assert np.allclose(a.vals.data, M @ c.dense_array())
            # the compiled kernel used the non-zero split we installed
            assert res[0].plan is not None
            assert stmt.explicit_schedule is sched

    def test_use_schedule_takes_a_schedule_built_from_the_tensor(self):
        """``a.assignment`` is rebuilt per read, so ``a.schedule()`` is over
        an equal statement, not the identical object: still accepted; a
        schedule of another statement is still refused."""
        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=60)
            i, j, i2, j2, io, ii = repro.index_vars("i j i2 j2 io ii")
            a[i] = B[i, j] * c[j]
            y[i2] = B[i2, j2] * x[j2]
            assert a.assignment is not a.assignment
            stmt = s.define(a)
            sched = (a.schedule().divide(i, io, ii, 2).distribute(io)
                     .communicate([a, B, c], io))
            assert stmt.use_schedule(sched).explicit_schedule is sched
            with pytest.raises(ValueError, match="this statement's assignment"):
                stmt.use_schedule(y.schedule())
            s.run()
            assert np.allclose(a.vals.data, M @ c.dense_array())

    def test_nested_programs_capture_innermost_only(self):
        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=60)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            with s.program() as outer:
                a[i] = B[i, j] * c[j]
                with s.program() as inner:
                    y[i2] = B[i2, j2] * x[j2]
            assert len(outer) == 1 and len(inner) == 1

    def test_empty_program_is_an_error(self):
        with repro.session() as s:
            with pytest.raises(ValueError, match="no statements"):
                s.program().compile()
            with pytest.raises(ValueError, match="no pending"):
                s.run()


class TestCommonSubexpressionReuse:
    """Repeated identical statements compile, partition AND execute once
    per pass — the program-level common-subexpression reuse."""

    def test_duplicate_statement_executes_once(self):
        with repro.session(nodes=4) as s:
            M, B, c, x, a, y = _workload(s)
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            prog = s.compile(a, a.assignment)
            # one CompiledKernel, shared (the kernel cache guarantees it)
            assert prog[0] is prog[1]
            assert prog.reused_from == [None, 0]
            res = prog.execute(s.runtime)
            assert len(res) == 2
            assert res[1].reused and not res[0].reused
            assert res.reused == 1
            assert res[1].simulated_seconds == 0.0
            assert res.simulated_seconds == res[0].simulated_seconds
            assert np.allclose(a.vals.data, M @ c.dense_array())

    def test_interleaved_write_blocks_reuse(self):
        """A statement that rewrites an operand between two occurrences
        makes the repeat a *different* value — it must re-execute."""
        with repro.session(nodes=4) as s:
            M, B, c, x, a, y = _workload(s)
            i, j, i2, j2 = repro.index_vars("i j i2 j2")
            a[i] = B[i, j] * c[j]
            first = a.assignment
            # c is rewritten from y's statement output shape — build a
            # statement writing c itself
            c2 = s.zeros("c2", c.shape)
            i3, j3 = repro.index_vars("i3 j3")
            c[i3] = B[i3, j3] * x[j3]  # writes c between the two a-statements
            middle = c.assignment
            prog = s.compile(first, middle, first)
            assert prog.reused_from == [None, None, None]
            res = prog.execute(s.runtime)
            assert res.reused == 0
            # the repeat saw the updated c
            assert np.allclose(a.vals.data, M @ (M @ x.dense_array()))

    def test_accumulate_never_reuses(self):
        from repro.taco.expr import Assignment

        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=100)
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            acc = Assignment(a.assignment.lhs, a.assignment.rhs, accumulate=True)
            prog = s.compile(acc, acc)
            # ``+=`` changes the output on every execution — never skipped.
            assert prog.reused_from == [None, None]
            res = prog.execute(s.runtime)
            assert res.reused == 0
            assert all(r.simulated_seconds > 0.0 for r in res.results)

    def test_cse_disabled_executes_everything(self):
        with repro.session(nodes=2) as s:
            M, B, c, x, a, y = _workload(s, n=100)
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j]
            prog = s.compile(a, a.assignment, cse=False)
            res = prog.execute(s.runtime)
            assert res.reused == 0
            assert res[1].simulated_seconds > 0.0
