"""Seeded defect corpus: every class of statically rejectable bug.

Each test plants one defect the ISSUE's hazard model documents and
asserts the *exact* diagnostic type and provenance — the contract that a
rejected program points at where the bug lives:

* an aliased accumulate (``a(i) += B(i,j) * a(j)``) → ``WriteHazard``
  anchored to the statement, tensor and loop variables;
* a repeated statement with an interleaved write of a shared operand →
  ``IllegalCSE`` warning naming the clobbering statement (and the
  executed program really does run both occurrences);
* a double-divide of one index variable → the scheduling language's
  eager ``ScheduleError`` (caught at build time, before any analysis);
* Python source planted in a stored artifact (with a manifest entry
  naming it, as format v3 had) → never read, never executed: artifacts
  carry no code and the load path cannot reach ``exec``.
"""
import json

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.analysis import analyze_program
from repro.codegen import codegen_stats, reset_codegen_stats
from repro.core import clear_caches, compile_kernel
from repro.core.store import MANIFEST_NAME, file_sha256
from repro.core.store_index import ArtifactStore
from repro.errors import IllegalCSE, ScheduleError, WriteHazard
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    reset_codegen_stats()
    yield
    clear_caches()
    reset_codegen_stats()


class TestAliasedAccumulate:
    def test_write_hazard_with_provenance(self):
        B = Tensor.from_dense("B", np.eye(6), CSR)
        a = Tensor.from_dense("a", np.ones(6))
        i, j = index_vars("i j")
        a[i] = a[i] + B[i, j] * a[j]  # += sugar; RHS still reads a(j)
        assert a.assignment.accumulate

        report = analyze_program([a.schedule()])
        assert not report.ok
        (diag,) = report.errors
        assert diag.error_type is WriteHazard
        assert diag.provenance.statement == 0
        assert diag.provenance.tensor == "a"
        assert set(diag.provenance.loop_vars) == {"i", "j"}
        with pytest.raises(WriteHazard) as exc:
            report.raise_errors()
        assert exc.value.provenance is diag.provenance
        assert "statement 0" in str(exc.value)

    def test_plain_accumulate_is_not_a_hazard(self):
        B = Tensor.from_dense("B", np.eye(6), CSR)
        c = Tensor.from_dense("c", np.ones(6))
        a = Tensor.from_dense("a", np.zeros(6))
        i, j = index_vars("i j")
        a[i] = a[i] + B[i, j] * c[j]  # += over a *different* RHS: fine
        report = analyze_program([a.schedule()])
        assert report.ok

    def test_aliased_spadd_is_exempt(self):
        # A = B + A is executed with pre-install operand snapshots
        # (tests/core/test_spadd_aliased.py pins that), so the assembled
        # shape must NOT be reported as a hazard.
        dense = np.diag(np.arange(1.0, 5.0))
        A = Tensor.from_dense("A", dense, CSR)
        B = Tensor.from_dense("B", np.eye(4), CSR)
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + A[i, j]
        report = analyze_program([A.schedule()])
        assert report.privileges[0].write_kind == "assemble"
        assert not report.diagnostics_of(WriteHazard)


class TestInterleavedWriteCSE:
    def _program(self):
        rng = np.random.default_rng(11)
        mat = sp.random(20, 20, density=0.2, random_state=rng, format="csr")
        B = Tensor.from_scipy("B", mat, CSR)
        c = Tensor.from_dense("c", rng.random(20))
        y = Tensor.from_dense("y", rng.random(20))
        x = Tensor.zeros("x", (20,))
        i, j, k = index_vars("i j k")
        x[i] = B[i, j] * c[j]     # statement 0: the root occurrence
        s0 = x.schedule()
        c[k] = c[k] + y[k]        # statement 1: writes a shared operand
        s1 = c.schedule()
        x[i] = B[i, j] * c[j]     # statement 2: identical to 0, now stale
        s2 = x.schedule()
        return [s0, s1, s2]

    def test_illegal_cse_warning_with_provenance(self):
        scheds = self._program()
        report = analyze_program(scheds, Machine.cpu(1))
        assert report.ok  # a blocked collapse is a warning, not an error
        (diag,) = report.diagnostics_of(IllegalCSE)
        assert diag.severity == "warning"
        assert diag.provenance.statement == 2
        assert diag.provenance.related_statement == 1
        assert diag.provenance.tensor == "c"
        assert "statement 0" in diag.message  # names the root occurrence
        assert report.reuse_map == [None, None, None]

    def test_compiled_program_executes_both_occurrences(self):
        scheds = self._program()
        B = scheds[0].assignment.rhs.operands[0].tensor
        c = scheds[1].assignment.lhs.tensor
        y = scheds[1].assignment.rhs.accesses()[0].tensor
        c0 = np.array(c.to_dense(), copy=True)
        y0 = np.array(y.to_dense(), copy=True)
        Bd = np.asarray(B.to_dense())
        prog = repro.compile_program(scheds, Machine.cpu(1), cse=True)
        assert prog.reused_from == [None, None, None]
        result = prog.execute()
        assert result.reused == 0
        # statement 2 re-executed against the updated c — had the blocked
        # collapse happened, x would still hold B @ c0 from statement 0.
        final_x = np.asarray(result[2].output.to_dense())
        np.testing.assert_allclose(final_x, Bd @ (c0 + y0))
        assert not np.allclose(final_x, Bd @ c0)

    def test_unclobbered_repeat_still_collapses(self):
        rng = np.random.default_rng(3)
        mat = sp.random(16, 16, density=0.25, random_state=rng, format="csr")
        B = Tensor.from_scipy("B", mat, CSR)
        c = Tensor.from_dense("c", rng.random(16))
        x = Tensor.zeros("x", (16,))
        i, j = index_vars("i j")
        x[i] = B[i, j] * c[j]
        s0 = x.schedule()
        x[i] = B[i, j] * c[j]
        s1 = x.schedule()
        report = analyze_program([s0, s1], Machine.cpu(1))
        assert report.reuse_map == [None, 0]
        assert not report.diagnostics_of(IllegalCSE)


class TestDoubleDivide:
    def test_schedule_error_is_eager(self):
        B = Tensor.from_dense("B", np.eye(8), CSR)
        c = Tensor.from_dense("c", np.ones(8))
        a = Tensor.zeros("a", (8,))
        i, j, io, ii, io2, ii2 = index_vars("i j io ii io2 ii2")
        a[i] = B[i, j] * c[j]
        s = a.schedule().divide(i, io, ii, 4)
        # Re-dividing a variable derived from an already-divided one is
        # rejected at schedule *build* time — before compile, before
        # analysis — with the variables' provenance in the message.
        with pytest.raises(ScheduleError, match="divide"):
            s.divide(ii, io2, ii2, 2)


class TestPlantedCodeInArtifact:
    def test_planted_module_is_never_executed(self, tmp_path):
        machine = Machine.cpu(4)
        rng = np.random.default_rng(7)
        mat = sp.random(60, 48, density=0.1, random_state=rng, format="csr")
        B = Tensor.from_scipy("B", mat, CSR)
        c = Tensor.from_dense("c", rng.random(48))
        a = Tensor.zeros("a", (60,))

        def schedule(a, B, c):
            i, j, io, ii = index_vars("i j io ii")
            a[i] = B[i, j] * c[j]
            return (a.schedule().divide(i, io, ii, 4).distribute(io)
                    .communicate([a, B, c], io))

        sched = schedule(a, B, c)
        compile_kernel(sched, machine, backend="codegen").execute(
            Runtime(machine))
        expected = a.vals.data.copy()
        store = ArtifactStore(tmp_path / "store")
        art_dir = store.put(B)

        marker = tmp_path / "executed"
        evil = art_dir / "aot" / "evil.py"
        evil.parent.mkdir()
        evil.write_text(
            f"open({str(marker)!r}, 'w').close()\n\n\ndef bind(*a):\n"
            f"    open({str(marker)!r}, 'w').close()\n    return {{}}\n"
        )
        manifest = json.loads((art_dir / MANIFEST_NAME).read_text())
        manifest["aot_modules"] = [{
            "file": "aot/evil.py",
            "fingerprint": manifest["kernels"][0]["fingerprint"],
            "kind": "spmv", "format": "csr", "strategy": "rows",
            "bytes": evil.stat().st_size, "sha256": file_sha256(evil),
        }]
        (art_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

        clear_caches()
        reset_codegen_stats()
        art = store.load_latest(sched, machine)
        t = {x.name: x for x in art.all_tensors()}
        ck = compile_kernel(schedule(t["a"], t["B"], t["c"]), machine,
                            backend="codegen")
        t["a"].vals.fill(np.nan)
        ck.execute(art.runtime())
        assert not marker.exists()
        assert np.array_equal(t["a"].vals.data, expected)
        stats = codegen_stats()  # bound, never generated
        assert (stats["lowered"], stats["binds"], stats["fallbacks"]) == (0, 1, 0)
