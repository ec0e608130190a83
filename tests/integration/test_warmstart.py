"""Cross-process warm start: a fresh Python process loading a stored
artifact must reach cached steady-state on its *first* execution — kernel
cache hit (so no partitioning), mapping-trace replay — with simulated
metrics and numerics bit-identical to the in-process cached path.

This drives the real three-actor scenario (parent + two subprocess
children) from ``tests/scenario_warmstart.py`` at test scale; the wall-clock
a warm start saves is measured separately by ``perfbench`` (``warmstart_s``
and the ``core.store.*`` rows of ``python3 perfbench/run.py --workload
spmv_large``).
"""
import pytest

from scenario_warmstart import run_warmstart
from repro.core import clear_caches

KW = dict(n=600, density=5e-3, pieces=4, warm_iterations=2, iterations=4)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module")
def result():
    clear_caches()
    return run_warmstart(**KW)


def test_warm_process_first_compile_hits_kernel_cache(result):
    assert result.warm_first_hit_kernel_cache


def test_warm_process_first_execute_replays_not_records(result):
    assert result.warm_first_trace_hits >= 1
    assert result.warm_first_trace_records == 0


def test_warm_process_metrics_bit_identical_to_in_process_path(result):
    # Exact float equality: the child reported via JSON, which round-trips
    # doubles losslessly.
    assert result.metrics_bit_identical
    assert result.warm["comm_events"] == [result.cold["comm_events"][0]] * KW["iterations"]


def test_warm_process_numerics_bit_identical(result):
    assert result.checksum_bit_identical


def test_cold_process_pays_the_cold_start(result):
    """The cold child records (no artifact to replay); its first iteration
    records traces and misses the kernel cache."""
    assert result.cold["first_kernel_hits"] == 0
    assert result.cold["trace_records_after_first"] >= 1
