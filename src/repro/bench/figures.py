"""Per-figure experiment drivers: regenerate every table and figure.

Each ``figN`` function reproduces one artifact of the paper's evaluation
(§VI) on the scaled machine model, returning the rendered text table plus
the structured data, so the pytest benchmarks, EXPERIMENTS.md and the CLI
(``python -m repro.bench.figures``) share one implementation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.matrices import banded
from ..data.suite import SUITE_MATRICES, SUITE_TENSORS, load_matrix, load_tensor, table2
from ..taco.tensor import Tensor
from .baseline_runners import ctf_run, petsc_run, trilinos_run
from .harness import SimResult, shifted, spdistal_run
from .models import BenchConfig, default_config
from .reporting import format_heatmap, format_scaling, format_table, geomean

__all__ = [
    "FigureResult",
    "table2_inventory",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation_row_vs_nonzero",
    "ablation_partition_tradeoff",
    "ablation_fusion",
    "ablation_distribution_mismatch",
    "FIG10_KERNELS",
    "DEFAULT_MATRICES",
    "DEFAULT_TENSORS",
]

SPMM_K = 32
SDDMM_K = 32
MTTKRP_L = 25

# Representative subsets keep one full campaign under a minute; pass
# ``datasets=None`` arguments explicit lists (or all names) for full runs.
DEFAULT_MATRICES = ["arabic-2005", "kmer_A2a", "nlpkkt240", "twitter7", "webbase-2001"]
DEFAULT_TENSORS = ["freebase_music", "freebase_sampled", "nell-2", "patents"]

FIG10_KERNELS = ["spmv", "spmm", "spadd3", "sddmm", "spttv", "spmttkrp"]


@dataclass
class FigureResult:
    name: str
    text: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover
        return self.text


# --------------------------------------------------------------------------- #
# Table II
# --------------------------------------------------------------------------- #
def table2_inventory(cfg: Optional[BenchConfig] = None) -> FigureResult:
    cfg = cfg or default_config()
    rows = table2(cfg.dataset_scale, cfg.seed)
    out_rows = [
        (name, domain, f"{nnz:,}", f"{paper:.2e}") for name, domain, nnz, paper in rows
    ]
    text = format_table(
        ["Tensor name", "Domain", "Non-zeros (scaled)", "Non-zeros (paper)"],
        out_rows,
        title="Table II: tensors and matrices (scaled synthetic stand-ins)",
    )
    return FigureResult("table2", text, {"rows": rows})


# --------------------------------------------------------------------------- #
# Fig. 10: CPU strong scaling
# --------------------------------------------------------------------------- #
def _matrix_args(kernel: str, A, cfg: BenchConfig, seed: int = 3):
    rng = np.random.default_rng(seed)
    if kernel == "spmv":
        return (A, rng.random(A.shape[1]))
    if kernel == "spmm":
        return (A, rng.random((A.shape[1], SPMM_K)))
    if kernel == "spadd3":
        return (A, shifted(A, 1), shifted(A, 2))
    if kernel == "sddmm":
        return (A, rng.random((A.shape[0], SDDMM_K)), rng.random((SDDMM_K, A.shape[1])))
    raise ValueError(kernel)


def _tensor_args(kernel: str, T: Tensor, seed: int = 3):
    rng = np.random.default_rng(seed)
    if kernel == "spttv":
        return (T, rng.random(T.shape[2]))
    if kernel == "spmttkrp":
        return (T, rng.random((T.shape[1], MTTKRP_L)), rng.random((T.shape[2], MTTKRP_L)))
    raise ValueError(kernel)


#: Fig. 10's systems, each run as ``run(kernel, args, nodes, cfg)``.
_CPU_RUNNERS: Dict[str, Callable[..., SimResult]] = {
    "SpDISTAL": spdistal_run, "PETSc": petsc_run,
    "Trilinos": trilinos_run, "CTF": ctf_run,
}


def _fig10_systems(kernel: str) -> List[str]:
    if kernel in ("spmv", "spmm", "spadd3"):
        return ["SpDISTAL", "PETSc", "Trilinos", "CTF"]
    return ["SpDISTAL", "CTF"]  # PETSc/Trilinos do not support these kernels


def fig10(
    kernel: str,
    cfg: Optional[BenchConfig] = None,
    *,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16),
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """CPU strong scaling for one kernel: speedup over SpDISTAL on 1 node,
    averaged (geomean) over the dataset suite — the paper's Fig. 10 series."""
    cfg = cfg or default_config()
    if datasets is None:
        datasets = DEFAULT_TENSORS if kernel in ("spttv", "spmttkrp") else DEFAULT_MATRICES
    systems = _fig10_systems(kernel)
    per_system: Dict[str, List[List[float]]] = {s: [] for s in systems}
    detail: Dict[str, Dict[str, List[float]]] = {}
    for ds in datasets:
        if kernel in ("spttv", "spmttkrp"):
            data = load_tensor(ds, cfg.dataset_scale, cfg.seed)
            args = _tensor_args(kernel, data)
        else:
            A = load_matrix(ds, cfg.dataset_scale, cfg.seed)
            args = _matrix_args(kernel, A, cfg)
        base = spdistal_run(kernel, args, 1, cfg)
        detail[ds] = {}
        for system in systems:
            speeds = []
            for nodes in node_counts:
                if system == "SpDISTAL" and nodes == 1:
                    r = base
                else:
                    r = _CPU_RUNNERS[system](kernel, args, nodes, cfg)
                speeds.append(base.seconds / r.seconds if r.ok else float("nan"))
            per_system[system].append(speeds)
            detail[ds][system] = speeds
    series = {
        s: [geomean([run[i] for run in per_system[s]]) for i in range(len(node_counts))]
        for s in systems
    }
    text = format_scaling(
        f"Fig. 10 ({kernel}): CPU strong scaling", list(node_counts), series
    )
    return FigureResult(f"fig10_{kernel}", text,
                        {"series": series, "detail": detail, "nodes": list(node_counts)})


# --------------------------------------------------------------------------- #
# Fig. 11: GPU strong scaling heatmaps
# --------------------------------------------------------------------------- #
#: Fig. 11's systems, each run as ``run(kernel, args, g, cfg)`` on ``g``
#: GPUs; SpDISTAL-CPU uses every CPU of the nodes holding them.
_GPU_RUNNERS: Dict[str, Callable[..., SimResult]] = {
    "SpDISTAL": lambda k, a, g, cfg: spdistal_run(k, a, 0, cfg, gpus=g),
    "SpDISTAL-Batched": lambda k, a, g, cfg: spdistal_run(
        k, a, 0, cfg, gpus=g, strategy="batched"),
    "SpDISTAL-CPU": lambda k, a, g, cfg: spdistal_run(
        k, a, max(1, g // cfg.node.gpus), cfg),
    "PETSc": lambda k, a, g, cfg: petsc_run(k, a, 0, cfg, gpus=g),
    "Trilinos": lambda k, a, g, cfg: trilinos_run(k, a, 0, cfg, gpus=g),
}

#: The systems Fig. 11 compares per kernel.
_FIG11_SYSTEMS: Dict[str, Tuple[str, ...]] = {
    "spmv": ("SpDISTAL", "PETSc", "Trilinos"),
    "spmm": ("SpDISTAL", "SpDISTAL-Batched", "PETSc", "Trilinos"),
    "spadd3": ("SpDISTAL", "Trilinos"),
    "sddmm": ("SpDISTAL", "SpDISTAL-CPU"),
}


def fig11(
    kernel: str,
    cfg: Optional[BenchConfig] = None,
    *,
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fastest system per (tensor, GPU count); OOM/unsupported → DNC."""
    cfg = cfg or default_config()
    systems = _FIG11_SYSTEMS[kernel]
    datasets = list(datasets or DEFAULT_MATRICES)
    cells: Dict[tuple, str] = {}
    times: Dict[tuple, Dict[str, float]] = {}
    for ds in datasets:
        A = load_matrix(ds, cfg.dataset_scale, cfg.seed)
        args = _matrix_args(kernel, A, cfg)
        for g in gpu_counts:
            entries = {
                s: _GPU_RUNNERS[s](kernel, args, g, cfg).seconds for s in systems
            }
            finite = {k: v for k, v in entries.items() if np.isfinite(v)}
            cells[(ds, g)] = min(finite, key=finite.get) if finite else "DNC"
            times[(ds, g)] = entries
    text = format_heatmap(
        f"Fig. 11 ({kernel}): fastest system per tensor x GPU count",
        datasets, list(gpu_counts), cells,
    )
    return FigureResult(f"fig11_{kernel}", text, {"cells": cells, "times": times})


# --------------------------------------------------------------------------- #
# Fig. 12: GPU vs CPU for the higher-order kernels
# --------------------------------------------------------------------------- #
def fig12(
    kernel: str,
    cfg: Optional[BenchConfig] = None,
    *,
    gpu_counts: Sequence[int] = (4, 8, 16),
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Speedup of SpDISTAL-GPU (non-zero based) over SpDISTAL-CPU using all
    resources of the same number of nodes (paper Fig. 12)."""
    cfg = cfg or default_config()
    datasets = list(datasets or DEFAULT_TENSORS)
    cells: Dict[tuple, str] = {}
    speedups: Dict[tuple, float] = {}
    for ds in datasets:
        T = load_tensor(ds, cfg.dataset_scale, cfg.seed)
        args = _tensor_args(kernel, T)
        for g in gpu_counts:
            nodes = max(1, g // cfg.node.gpus)
            gpu = spdistal_run(kernel, args, 0, cfg, gpus=g)
            cpu = spdistal_run(kernel, args, nodes, cfg)
            if not gpu.ok:
                cells[(ds, g)] = "DNC"
                continue
            s = cpu.seconds / gpu.seconds
            speedups[(ds, g)] = s
            winner = "GPU" if s >= 1.0 else "CPU"
            cells[(ds, g)] = f"{winner} {max(s, 1 / s):.1f}x"
    text = format_heatmap(
        f"Fig. 12 ({kernel}): faster of SpDISTAL GPU vs CPU (speedup)",
        datasets, list(gpu_counts), cells,
    )
    return FigureResult(f"fig12_{kernel}", text, {"cells": cells, "speedups": speedups})


# --------------------------------------------------------------------------- #
# Fig. 13: weak scaling on banded matrices
# --------------------------------------------------------------------------- #
def fig13(
    cfg: Optional[BenchConfig] = None,
    *,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    bandwidth: int = 5,
) -> FigureResult:
    """SpMV weak scaling: throughput (iterations/s) at fixed work per node.

    The paper's initial problem is 7e8 non-zeros per node; scaled by the
    machine model's rate factor that is ``7e8 * rate_scale`` non-zeros per
    node, grown proportionally with the node count.
    """
    cfg = cfg or default_config()
    # Initial problem: 7e8 non-zeros for a single CPU node and for a single
    # GPU (paper §VI-B), scaled by the machine model's rate factor.  The GPU
    # series therefore uses a 4x larger problem per node (4 GPUs/node).
    unit_nnz = 7.0e8 * cfg.rate_scale
    rows_per_unit = max(64, int(unit_nnz / (2 * bandwidth + 1)))
    series: Dict[str, List[float]] = {
        "SpDISTAL": [], "PETSc": [], "SpDISTAL-GPU": [], "PETSc-GPU": [],
    }
    rng = np.random.default_rng(cfg.seed)
    for nodes in node_counts:
        n = rows_per_unit * nodes
        A = banded(n, bandwidth, seed=cfg.seed)
        x = rng.random(n)
        sd = spdistal_run("spmv", (A, x), nodes, cfg)
        pe = petsc_run("spmv", (A, x), nodes, cfg)
        gpus = nodes * cfg.node.gpus
        ng = rows_per_unit * gpus
        Ag = banded(ng, bandwidth, seed=cfg.seed)
        xg = rng.random(ng)
        sg = spdistal_run("spmv", (Ag, xg), 0, cfg, gpus=gpus)
        pg = petsc_run("spmv", (Ag, xg), 0, cfg, gpus=gpus)
        for name, r in [("SpDISTAL", sd), ("PETSc", pe),
                        ("SpDISTAL-GPU", sg), ("PETSc-GPU", pg)]:
            series[name].append(1.0 / r.seconds if r.ok else float("nan"))
    rows = [
        [name] + [f"{v:.1f}" if np.isfinite(v) else "DNC" for v in vals]
        for name, vals in series.items()
    ]
    text = format_table(
        ["system"] + [f"{n} ({n * cfg.node.gpus})" for n in node_counts],
        rows,
        title="Fig. 13: SpMV weak scaling on banded matrices "
              "(throughput, iterations/s; flat = perfect)",
    )
    return FigureResult("fig13", text, {"series": series, "nodes": list(node_counts)})


# --------------------------------------------------------------------------- #
# Ablations called out in the text (§II-D, §VI-A, §VI-C)
# --------------------------------------------------------------------------- #
def ablation_row_vs_nonzero(
    cfg: Optional[BenchConfig] = None, *, nodes: int = 8,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Row-based vs non-zero-based SpMV (paper §VI-A: on CPUs the extra
    reduction synchronization outweighs the load-balance win)."""
    cfg = cfg or default_config()
    datasets = list(datasets or ["arabic-2005", "nlpkkt240", "twitter7"])
    rows = []
    data = {}
    for ds in datasets:
        A = load_matrix(ds, cfg.dataset_scale, cfg.seed)
        rng = np.random.default_rng(3)
        x = rng.random(A.shape[1])
        r_rows = spdistal_run("spmv", (A, x), nodes, cfg, strategy="rows")
        r_nz = spdistal_run("spmv", (A, x), nodes, cfg, strategy="nonzeros")
        rows.append([ds, f"{r_rows.seconds:.3e}", f"{r_nz.seconds:.3e}",
                     f"{r_nz.comm_bytes:,.0f}"])
        data[ds] = {"rows": r_rows.seconds, "nonzeros": r_nz.seconds,
                    "nz_comm": r_nz.comm_bytes}
    text = format_table(
        ["matrix", "row-based (s)", "nonzero-based (s)", "nz reduction bytes"],
        rows, title=f"Ablation: SpMV distribution strategy ({nodes} nodes)",
    )
    return FigureResult("ablation_row_vs_nonzero", text, data)


def ablation_partition_tradeoff(
    cfg: Optional[BenchConfig] = None, *, pieces: int = 8,
) -> FigureResult:
    """Universe vs non-zero data partitions (§II-B): balance vs output cost."""
    from ..distal import distribute
    from ..legion.machine import Machine
    from ..taco.formats import CSR

    cfg = cfg or default_config()
    rows = []
    data = {}
    for ds in ["arabic-2005", "nlpkkt240"]:
        A = load_matrix(ds, cfg.dataset_scale, cfg.seed)
        B = Tensor.from_scipy("B", A, CSR)
        mach = Machine.cpu(pieces, cfg.node)
        uni = distribute(B, "B(x,y) -> M(x)", mach)
        B2 = Tensor.from_scipy("B2", A, CSR)
        nzd = distribute(B2, "B2(x,y) [x y -> f] -> M(~f)", mach)
        rows.append([ds, f"{uni.load_balance():.2f}", f"{nzd.load_balance():.2f}"])
        data[ds] = {"universe_balance": uni.load_balance(),
                    "nonzero_balance": nzd.load_balance()}
    text = format_table(
        ["matrix", "universe max/mean", "nonzero max/mean"],
        rows, title=f"Ablation: data partition load balance ({pieces} pieces)",
    )
    return FigureResult("ablation_partition_tradeoff", text, data)


def ablation_fusion(
    cfg: Optional[BenchConfig] = None, *, nodes: int = 4,
) -> FigureResult:
    """Fused SpAdd3 vs two pairwise adds within SpDISTAL itself (§VI-C)."""
    cfg = cfg or default_config()
    A = load_matrix("nlpkkt240", cfg.dataset_scale, cfg.seed)
    B, C, D = A, shifted(A, 1), shifted(A, 2)
    fused = spdistal_run("spadd3", (B, C, D), nodes, cfg)
    # Pairwise: tmp = B + C; out = tmp + D (two compiled kernels).
    t1 = spdistal_run("spadd3", (B, C, C - C), nodes, cfg)  # B + C (+ empty)
    tmp = t1.value.to_scipy()
    t2 = spdistal_run("spadd3", (tmp, D, D - D), nodes, cfg)
    pairwise = t1.seconds + t2.seconds
    text = format_table(
        ["variant", "seconds"],
        [["fused 3-way", f"{fused.seconds:.3e}"],
         ["pairwise (2 adds)", f"{pairwise:.3e}"],
         ["pairwise/fused", f"{pairwise / fused.seconds:.2f}x"]],
        title=f"Ablation: kernel fusion for SpAdd3 ({nodes} nodes)",
    )
    return FigureResult("ablation_fusion", text,
                        {"fused": fused.seconds, "pairwise": pairwise})


def ablation_distribution_mismatch(
    cfg: Optional[BenchConfig] = None, *, nodes: int = 4,
) -> FigureResult:
    """Row-based schedule with matched vs non-zero data distribution (§II-D):
    valid, but pays reshaping communication every trial."""
    from ..api.autoschedule import auto_schedule
    from ..core.compiler import compile_kernel
    from ..distal import place_tensor, parse_tdn
    from ..legion.runtime import Runtime
    from ..taco.formats import CSR
    from ..taco.index_vars import index_vars

    cfg = cfg or default_config()
    A = load_matrix("arabic-2005", cfg.dataset_scale, cfg.seed)
    rng = np.random.default_rng(3)
    x = rng.random(A.shape[1])

    def run(mismatch: bool):
        machine = cfg.cpu_machine(nodes)
        B = Tensor.from_scipy("B", A, CSR)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (A.shape[0],))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        s = auto_schedule(a, machine, strategy="rows")
        rt = Runtime(machine, cfg.legion_network())
        if mismatch:
            place_tensor(B, parse_tdn("B(x,y) [x y -> f] -> M(~f)"), machine, rt)
        ck = compile_kernel(s, machine)
        ck.execute(rt)
        res = ck.execute(rt)
        return res.simulated_seconds, res.metrics.total_comm_bytes()

    matched_s, matched_b = run(False)
    mismatched_s, mismatched_b = run(True)
    text = format_table(
        ["data distribution", "seconds", "comm bytes"],
        [["matched (row-wise)", f"{matched_s:.3e}", f"{matched_b:,.0f}"],
         ["mismatched (non-zero)", f"{mismatched_s:.3e}", f"{mismatched_b:,.0f}"]],
        title="Ablation: data/computation distribution mismatch (SpMV)",
    )
    return FigureResult(
        "ablation_distribution_mismatch", text,
        {"matched": (matched_s, matched_b), "mismatched": (mismatched_s, mismatched_b)},
    )


def _main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate paper figures")
    parser.add_argument("--figure", default="all",
                        help="table2|fig10-<kernel>|fig11-<kernel>|fig12-<kernel>|"
                             "fig13|ablations|all")
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args(argv)
    cfg = default_config(dataset_scale=args.scale)

    def emit(fr: FigureResult):
        print(fr.text)
        print()

    what = args.figure
    if what in ("table2", "all"):
        emit(table2_inventory(cfg))
    for k in FIG10_KERNELS:
        if what in (f"fig10-{k}", "all"):
            emit(fig10(k, cfg))
    for k in ["spmv", "spmm", "spadd3", "sddmm"]:
        if what in (f"fig11-{k}", "all"):
            emit(fig11(k, cfg))
    for k in ["spttv", "spmttkrp"]:
        if what in (f"fig12-{k}", "all"):
            emit(fig12(k, cfg))
    if what in ("fig13", "all"):
        emit(fig13(cfg))
    if what in ("ablations", "all"):
        emit(ablation_row_vs_nonzero(cfg))
        emit(ablation_partition_tradeoff(cfg))
        emit(ablation_fusion(cfg))
        emit(ablation_distribution_mismatch(cfg))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
