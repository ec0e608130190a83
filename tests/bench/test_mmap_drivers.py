"""mmap warm starts in the iterative and warmstart scenario drivers.

PR 3 gave ``load_packed(..., mmap=True)`` to the figures driver only;
these tests cover the other two scenario drivers: the iterative loop run
off a packed artifact with mapped level arrays, and the warm-start
scenario's warm child loading with ``mmap=True`` — both must behave
bit-identically to the eager load (mmap is an I/O strategy, not a
semantics change).
"""
import numpy as np
import pytest

from repro.core import clear_caches, compile_kernel
from repro.core.store import save_packed
from scenario_iterative import (
    build_spmv_workload,
    load_spmv_workload,
    run_iterative_spmv,
    spmv_iteration_schedule,
)
from repro.bench.models import default_config
from repro.legion import Runtime


PIECES = 4


@pytest.fixture
def artifact(tmp_path):
    """A packed SpMV workload saved from a warmed two-iteration parent,
    with every level array in a sidecar so mmap has something to map."""
    clear_caches()
    cfg = default_config()
    machine = cfg.cpu_machine(PIECES)
    B, c, a = build_spmv_workload(2000, 1e-3, seed=7)
    rt = Runtime(machine, cfg.legion_network())
    for _ in range(2):
        s = spmv_iteration_schedule(B, c, a, PIECES)
        compile_kernel(s, machine).execute(rt)
        out = a.vals.data
        norm = float(np.linalg.norm(out))
        c.vals.data[...] = out / (norm if norm else 1.0)
    path = tmp_path / "artifact"
    save_packed(path, B, runtime=rt, sidecar_threshold=0)
    clear_caches()
    return path


class TestIterativeFromArtifact:
    def test_mmap_run_matches_eager_run_bit_identically(self, artifact):
        eager = run_iterative_spmv(
            pieces=PIECES, iterations=4, source=artifact, mmap=False
        )
        clear_caches()
        mapped = run_iterative_spmv(
            pieces=PIECES, iterations=4, source=artifact, mmap=True
        )
        assert mapped.sim_seconds == eager.sim_seconds
        assert mapped.comm_bytes == eager.comm_bytes
        assert mapped.checksum == eager.checksum

    def test_mmap_keeps_matrix_levels_mapped(self, artifact):
        B, c, a, rt = load_spmv_workload(artifact, mmap=True)
        # The read-only matrix stays a lazy map; the written tensors are
        # promoted (c explicitly, a as the kernel's write target).
        assert all(r.is_mapped for r in B.regions())
        assert not any(r.is_mapped for r in c.regions())
        assert not any(r.is_mapped for r in a.regions())
        clear_caches()

    def test_mmap_warm_start_hits_caches_on_first_iteration(self, artifact):
        res = run_iterative_spmv(
            pieces=PIECES, iterations=3, source=artifact, mmap=True
        )
        # First compile hits the stored kernel cache; every iteration
        # replays a stored or first-iteration mapping trace.
        assert res.kernel_cache_hits >= res.iterations
        assert res.trace_hits >= res.iterations


class TestWarmstartMmapChild:
    @pytest.mark.slow
    def test_warm_child_contract_holds_under_mmap(self, tmp_path):
        from scenario_warmstart import run_warmstart

        clear_caches()
        result = run_warmstart(
            store_dir=str(tmp_path),
            n=4000,
            density=5e-4,
            pieces=PIECES,
            iterations=5,
            mmap=True,
        )
        assert result.warm_first_hit_kernel_cache
        assert result.warm_first_trace_records == 0
        assert result.metrics_bit_identical
        assert result.checksum_bit_identical
        assert result.warm["region_residency"]["mapped"] > 0
