"""SpDISTAL kernel runners for the experiment harness.

Each runner builds the tensors for one dataset, applies the schedule the
paper uses for that kernel/processor kind (§VI-A), compiles, executes one
cold trial (placement + staging) and returns the steady-state warm trial —
matching the paper's 10-warmup / 20-trial methodology.  Execution goes
through the high-level :class:`~repro.api.session.Session` (one per
measured kernel), so the benchmarks exercise the same runtime-ownership
path as the front end — warm-store operands, kernel/partition caches and
mapping-trace replay all flow through it.

Sparse operands are obtained through :func:`repro.bench.warmstore.packed_operand`:
per-node-count trials over the same dataset reuse one packed structure
(and, when the persistent warm store is enabled, fresh processes
``load_packed`` it instead of re-packing).  Output tensors and dense
operands stay per-trial — they are written to or are cheap copies.

The returned :class:`SimResult` carries the simulated seconds, communication
volume, and the numerical output for verification.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import OOMError
from ..legion.machine import Machine
from ..taco.formats import CSF3, CSR, DDC
from ..taco.index_vars import IndexVar, index_vars
from ..taco.tensor import Tensor
from ..core.compiler import CompiledKernel, compile_kernel
from .models import BenchConfig, default_config
from .warmstore import packed_operand

__all__ = [
    "SimResult",
    "shifted",
    "spdistal_spmv",
    "spdistal_spmm",
    "spdistal_spadd3",
    "spdistal_sddmm",
    "spdistal_spttv",
    "spdistal_spmttkrp",
]


@dataclass
class SimResult:
    system: str
    seconds: float
    comm_bytes: float = 0.0
    oom: bool = False
    value: object = None

    @property
    def ok(self) -> bool:
        return not self.oom and np.isfinite(self.seconds)


def shifted(mat: sp.csr_matrix, shift: int) -> sp.csr_matrix:
    """Shift the last dimension to build extra sparse operands (§VI, after
    Henry and Hsu et al.)."""
    coo = mat.tocoo()
    cols = (coo.col + shift) % mat.shape[1]
    return sp.coo_matrix((coo.data, (coo.row, cols)), shape=mat.shape).tocsr()


def _machine(cfg: BenchConfig, nodes: int, gpus: Optional[int]) -> Machine:
    return cfg.gpu_machine(gpus) if gpus is not None else cfg.cpu_machine(nodes)


def _run(ck: CompiledKernel, cfg: BenchConfig) -> Tuple[float, float]:
    """Cold placement trial + one warm trial; returns (seconds, comm bytes)."""
    from ..api.session import Session

    with Session(machine=ck.machine, network=cfg.legion_network()) as s:
        s.execute(ck)  # cold: placement + first staging
        res = s.execute(ck)  # warm trial (caches invalidated per trial)
        return res.simulated_seconds, res.metrics.total_comm_bytes()


def _wrap(system: str, fn: Callable[[], Tuple[float, float, object]]) -> SimResult:
    try:
        seconds, comm, value = fn()
        return SimResult(system, seconds, comm, value=value)
    except OOMError:
        return SimResult(system, float("inf"), oom=True)


# --------------------------------------------------------------------------- #
# kernel runners
# --------------------------------------------------------------------------- #
def spdistal_spmv(
    A: sp.csr_matrix,
    x: np.ndarray,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: str = "rows",
) -> SimResult:
    """SpMV: row-based distribution (the paper's CPU and GPU choice)."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        B = packed_operand("B", A, CSR)
        c = Tensor.from_dense("c", x)
        a = Tensor.zeros("a", (A.shape[0],))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = (a.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([a, B, c], io).parallelize(ii))
        else:
            f, fp, fo, fi = index_vars("f fp fo fi")
            s = (a.schedule().fuse(i, j, f).pos(f, fp, B[i, j])
                 .divide(fp, fo, fi, pieces).distribute(fo)
                 .communicate([a, B, c], fo).parallelize(fi))
        ck = compile_kernel(s, machine)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, a.vals.data.copy()

    return _wrap("SpDISTAL", body)


def spdistal_spmm(
    A: sp.csr_matrix,
    C: np.ndarray,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: str = "rows",
) -> SimResult:
    """SpMM.  CPU: row-based; GPU: non-zero based (replicates C) or the
    memory-conserving batched 2-D schedule ("SpDISTAL-Batched")."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        B = packed_operand("B", A, CSR)
        Ct = Tensor.from_dense("C", C)
        out = Tensor.zeros("A", (A.shape[0], C.shape[1]))
        i, k, j = index_vars("i k j")
        out[i, j] = B[i, k] * Ct[k, j]
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([out, B, Ct], io).parallelize(ii))
        elif strategy == "nonzeros":
            f, fp, fo, fi = index_vars("f fp fo fi")
            s = (out.schedule().reorder(k, j)  # [i, k, j]: bring B's dims together
                 .fuse(i, k, f).pos(f, fp, B[i, k])
                 .divide(fp, fo, fi, pieces).distribute(fo)
                 .communicate([out, B, Ct], fo))
        else:  # batched: row distribution + C streamed in memory-sized rounds
            io, ii = index_vars("io ii")
            s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([out, B, Ct], io))
        ck = compile_kernel(s, machine)
        if strategy == "batched":
            ck.stream_tensor(Ct)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, out.dense_array().copy()

    return _wrap("SpDISTAL", body)


def spdistal_spadd3(
    B: sp.csr_matrix,
    C: sp.csr_matrix,
    D: sp.csr_matrix,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
) -> SimResult:
    """SpAdd3: fused row-based 3-way add with two-phase assembly."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        Bt = packed_operand("B", B, CSR)
        Ct = packed_operand("C", C, CSR)
        Dt = packed_operand("D", D, CSR)
        out = Tensor.zeros("A", B.shape, CSR)
        i, j = index_vars("i j")
        out[i, j] = Bt[i, j] + Ct[i, j] + Dt[i, j]
        io, ii = index_vars("io ii")
        s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
             .communicate([out, Bt, Ct, Dt], io).parallelize(ii))
        ck = compile_kernel(s, machine)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, out

    return _wrap("SpDISTAL", body)


def spdistal_sddmm(
    B: sp.csr_matrix,
    C: np.ndarray,
    D: np.ndarray,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: str = "nonzeros",
) -> SimResult:
    """SDDMM: non-zero based algorithm and data distribution (paper §VI-A)."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        Bt = packed_operand("B", B, CSR)
        Ct = Tensor.from_dense("C", C)
        Dt = Tensor.from_dense("D", D)
        out = Tensor.zeros("A", B.shape, CSR)
        i, j, k = index_vars("i j k")
        out[i, j] = Bt[i, j] * Ct[i, k] * Dt[k, j]
        if strategy == "nonzeros":
            f, fp, fo, fi = index_vars("f fp fo fi")
            s = (out.schedule().fuse(i, j, f).pos(f, fp, Bt[i, j])
                 .divide(fp, fo, fi, pieces).distribute(fo)
                 .communicate([out, Bt, Ct, Dt], fo))
        else:
            io, ii = index_vars("io ii")
            s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([out, Bt, Ct, Dt], io).parallelize(ii))
        ck = compile_kernel(s, machine)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, out

    return _wrap("SpDISTAL", body)


def spdistal_spttv(
    B: Tensor,
    x: np.ndarray,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: str = "rows",
) -> SimResult:
    """SpTTV: row-based on CPUs, non-zero based on GPUs (paper §VI-A)."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        c = Tensor.from_dense("c", x)
        dense_out = B.format == DDC
        out = Tensor.zeros(
            "A", B.shape[:2], None if dense_out else CSR
        )
        i, j, k = index_vars("i j k")
        out[i, j] = B[i, j, k] * c[k]
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([out, B, c], io).parallelize(ii))
        else:
            f1, f2, fp, fo, fi = index_vars("f1 f2 fp fo fi")
            s = (out.schedule().fuse(i, j, f1).fuse(f1, k, f2)
                 .pos(f2, fp, B[i, j, k]).divide(fp, fo, fi, pieces)
                 .distribute(fo).communicate([out, B, c], fo))
        ck = compile_kernel(s, machine)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, out

    return _wrap("SpDISTAL", body)


def spdistal_spmttkrp(
    B: Tensor,
    C: np.ndarray,
    D: np.ndarray,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: str = "rows",
) -> SimResult:
    """SpMTTKRP: row-based on CPUs, non-zero based on GPUs (paper §VI-A)."""
    cfg = cfg or default_config()

    def body():
        machine = _machine(cfg, nodes, gpus)
        pieces = machine.size
        Ct = Tensor.from_dense("C", C)
        Dt = Tensor.from_dense("D", D)
        out = Tensor.zeros("A", (B.shape[0], C.shape[1]))
        i, j, k, l = index_vars("i j k l")
        out[i, l] = B[i, j, k] * Ct[j, l] * Dt[k, l]
        if strategy == "rows":
            io, ii = index_vars("io ii")
            s = (out.schedule().divide(i, io, ii, pieces).distribute(io)
                 .communicate([out, B, Ct, Dt], io).parallelize(ii))
        else:
            g1, g2, gp, go, gi = index_vars("g1 g2 gp go gi")
            s = (out.schedule().reorder(j, l).fuse(i, j, g1).reorder(k, l)
                 .fuse(g1, k, g2).pos(g2, gp, B[i, j, k])
                 .divide(gp, go, gi, pieces).distribute(go)
                 .communicate([out, B, Ct, Dt], go))
        ck = compile_kernel(s, machine)
        seconds, comm = _run(ck, cfg)
        return seconds, comm, out.dense_array().copy()

    return _wrap("SpDISTAL", body)
