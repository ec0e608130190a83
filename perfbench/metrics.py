"""The benchmark's metric names, units and directions, in one place.

``BENCHMARK.json`` at the repository root is this table plus the command and
the workloads; ``python3 -m perfbench.metrics`` prints the JSON it should
hold, and ``perfbench/tests/test_contract.py`` fails when the two differ.

*Clocks.*  ``host`` metrics are wall-clock (``time.perf_counter``) medians of
per-block medians.  ``sim`` metrics are the machine model's output and are
deterministic: for one seed they must repeat bit-for-bit between runs of one
commit (``exact``), as must every counter marked ``exact``.

*What is gated.*  The sizing host switches between a fast and a slow state
(about 20 % apart) every few seconds, so raw host seconds of one commit differ
by 10-20 % from run to run whatever the run length.  Each gated host timing is
therefore a ratio to the workload's SciPy/NumPy reference, taken per sample
against a reference pass timed right after it; the raw seconds behind the
ratios are reported per-layer under the names ISSUE 11 gave them.  ``setup_s``
stays in seconds because the benchmark contract requires it.  Packing has a
ratio too (against SciPy/NumPy packing the same operands), but on the small
workloads a 3 ms pack against a 0.2 ms reference spread up to 13 % over ten
seeds, so it is reported (``taco.tensor.pack_vs_scipy_ratio``) and ``setup_s``
carries the gate on packing.
"""
from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .workloads import WORKLOADS

RUN_SECONDS = 20

#: name, unit, better, bound — every workload reports every one of these.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_vs_scipy_ratio", "ratio", "lower", 0.25),
    ("vs_scipy_ratio", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_S, _LO, _HI = "s", "lower", "higher"

#: name, unit, better.  Names are ``<module>.<what>``; those without a module
#: prefix are end-to-end quantities of ISSUE 11 that cannot be gated on every
#: workload (one workload has them, they are deterministic, or they are raw
#: seconds), kept under their issue names.
PER_LAYER: List[Tuple[str, str, str]] = [
    # simulated clock (exact)
    ("sim_seconds", _S, _LO),
    ("sim_comm_bytes", "B", _LO),
    ("sim_peak_bytes", "B", _LO),
    # raw host seconds behind the gated ratios
    ("pack_s", _S, _LO),
    ("cold_s", _S, _LO),
    ("warm_step_s", _S, _LO),
    # single-workload end-to-end quantities
    ("warmstart_s", _S, _LO),
    ("serve_p50_s", _S, _LO),
    ("artifact_bytes", "B", _LO),
    ("fail_share", "ratio", _LO),
    # taco
    ("taco.tensor.pack_s", _S, _LO),
    ("taco.tensor.pack_vs_scipy_ratio", "ratio", _LO),
    ("taco.tensor.pack_ns_per_nnz", "ns", _LO),
    ("taco.tensor.from_dense_s", _S, _LO),
    ("taco.expr.stmt_build_s", _S, _LO),
    # api
    ("api.autoschedule.schedule_s", _S, _LO),
    ("api.session.open_s", _S, _LO),
    ("api.session.compile_hit_s", _S, _LO),
    ("api.session.frontdoor_overhead_s", _S, _LO),
    ("api.einsum.repeat_call_s", _S, _LO),
    ("api.serving.request_overhead_s", _S, _LO),
    ("api.serving.p99_s", _S, _LO),
    ("api.serving.compiles", "count", _LO),
    ("api.serving.rejected", "count", _LO),
    ("api.serving.rps_2x2", "1/s", _HI),
    # core
    ("core.passes.pipeline_s", _S, _LO),
    ("core.passes.fired.fold", "count", _HI),
    ("core.passes.fired.dse", "count", _HI),
    ("core.passes.fired.fuse", "count", _HI),
    ("core.passes.fired.cse", "count", _HI),
    ("core.compiler.classify_s", _S, _LO),
    ("core.compiler.compile_miss_s", _S, _LO),
    ("core.compiler.first_execute_s", _S, _LO),
    ("core.compiler.plan_stmts", "count", _LO),
    ("core.cache.fingerprint_s", _S, _LO),
    ("core.cache.kernel_hit_ratio", "ratio", _HI),
    ("core.cache.partition_hit_ratio", "ratio", _HI),
    ("core.cache.aot_hit_ratio", "ratio", _HI),
    ("core.cache.evictions", "count", _LO),
    ("core.store.save_s", _S, _LO),
    ("core.store.load_s", _S, _LO),
    ("core.store.load_mmap_s", _S, _LO),
    ("core.store.warmstart_mmap_s", _S, _LO),
    ("core.assembly.spadd_step_s", _S, _LO),
    # codegen
    ("codegen.bind_cold_s", _S, _LO),
    ("codegen.rebind_s", _S, _LO),
    ("codegen.leaf_sweep_s", _S, _LO),
    ("codegen.leaf_share", "ratio", _HI),
    ("codegen.lowered", "count", _LO),
    ("codegen.loaded", "count", _LO),
    ("codegen.binds", "count", _LO),
    ("codegen.fallbacks", "count", _LO),
    ("codegen.aot_source_bytes", "B", _LO),
    # kernels
    ("kernels.interp_step_s", _S, _LO),
    ("kernels.nonzeros_step_s", _S, _LO),
    ("kernels.flops", "count", _LO),
    ("kernels.bytes", "B", _LO),
    ("kernels.flops_per_byte", "1/B", _HI),
    ("kernels.leaf_vs_scipy_ratio", "ratio", _LO),
    # legion
    ("legion.runtime.reset_residency_s", _S, _LO),
    ("legion.runtime.launch_overhead_s", _S, _LO),
    ("legion.runtime.launch_overhead_per_piece_s", _S, _LO),
    ("legion.runtime.trace_hit_ratio", "ratio", _HI),
    ("legion.runtime.launches", "count", _LO),
    ("legion.runtime.pieces", "count", _LO),
    ("legion.metrics.account_s", _S, _LO),
    ("legion.metrics.sim_compute_s", _S, _LO),
    ("legion.metrics.sim_comm_s", _S, _LO),
    ("legion.metrics.sim_imbalance", "ratio", _LO),
    ("legion.metrics.comm_events", "count", _LO),
    # analysis
    ("analysis.commplan.predict_s", _S, _LO),
    ("analysis.costmodel.residual", "ratio", _LO),
    ("analysis.hazards.analyze_s", _S, _LO),
    ("analysis.sanitizer.verify_s", _S, _LO),
    # the benchmark itself
    ("data.generate_s", _S, _LO),
    ("trace.overhead_ratio", "ratio", _LO),
    ("trace.setup_s", _S, _LO),
    ("trace.traced_step_s", _S, _LO),
    ("trace.reference_step_s", _S, _LO),
    ("trace.step.stmt_build_s", _S, _LO),
    ("trace.step.schedule_s", _S, _LO),
    ("trace.step.compile_s", _S, _LO),
    ("trace.step.execute_s", _S, _LO),
    ("trace.cold_compile_execute_share", "ratio", _HI),
    ("trace.nonzeros_and_assembly_share", "ratio", _HI),
]

#: Deterministic for one seed: compared for equality by compare.py.
EXACT = {
    "sim_seconds", "sim_comm_bytes", "sim_peak_bytes", "fail_share",
    "api.serving.compiles", "api.serving.rejected",
    "core.passes.fired.fold", "core.passes.fired.dse",
    "core.passes.fired.fuse", "core.passes.fired.cse",
    "core.compiler.plan_stmts", "core.cache.kernel_hit_ratio",
    "core.cache.partition_hit_ratio", "core.cache.aot_hit_ratio",
    "core.cache.evictions", "codegen.lowered", "codegen.loaded",
    "codegen.binds", "codegen.fallbacks", "codegen.aot_source_bytes",
    "kernels.flops", "kernels.bytes", "kernels.flops_per_byte",
    "legion.runtime.trace_hit_ratio", "legion.runtime.launches",
    "legion.runtime.pieces", "legion.metrics.sim_compute_s",
    "legion.metrics.sim_comm_s", "legion.metrics.sim_imbalance",
    "legion.metrics.comm_events", "analysis.costmodel.residual",
}

#: Bounds for the per-layer metrics compare.py gates although the driver
#: does not: everything else per-layer is reported with a 10 % yardstick.
LAYER_BOUNDS = {"artifact_bytes": 0.02, "warmstart_s": 0.10, "serve_p50_s": 0.10}

UNITS: Dict[str, str] = {n: u for n, u, *_ in END_TO_END}
UNITS.update({n: u for n, u, _ in PER_LAYER})


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, *_) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
