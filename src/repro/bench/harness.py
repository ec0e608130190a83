"""The SpDISTAL kernel runner for the experiment harness.

:func:`spdistal_run` builds one kernel's statement from its einsum spec
(the builder ``einsum`` and the serving layer use), schedules it with
:func:`~repro.api.auto_schedule` — the paper's canonical mapping for the
kernel and processor kind (§VI-A), read from the kernel table — compiles,
executes one cold trial (placement + staging) and returns the steady-state
warm trial, matching the paper's 10-warmup / 20-trial methodology.  The
schedule is synthesized, never looked up in a session's tuned winners,
so a winner tuned elsewhere cannot change a figure.
Execution goes through the high-level :class:`~repro.api.session.Session`
(one per measured kernel), so the benchmarks exercise the same
runtime-ownership path as the front end — warm-store operands, the
kernel cache and mapping-trace replay all flow through it.

Sparse operands are obtained through :func:`repro.bench.warmstore.packed_operand`:
per-node-count trials over the same dataset reuse one packed structure
(and, when the persistent warm store is enabled, fresh processes
``load_packed`` it instead of re-packing).  Output tensors and dense
operands stay per-trial — they are written to or are cheap copies.

The returned :class:`SimResult` carries the simulated seconds, communication
volume, and the output tensor for verification.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..api.autoschedule import auto_schedule
from ..api.einsum import _parse_spec, build_assignment
from ..core.compiler import CompiledKernel, compile_kernel
from ..errors import OOMError
from ..legion.machine import Machine
from ..taco.formats import CSR, Format
from ..taco.tensor import Tensor
from .models import BenchConfig, default_config
from .warmstore import packed_operand

__all__ = ["SimResult", "shifted", "spdistal_run"]


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


#: Per kind: the statement as an einsum spec over operands named ``names``,
#: the output's name, and whether the output is sparse — a sparse output
#: keeps the sparse operand's levels on its own modes (CSR beside a CSR or
#: CSF3 operand, dense beside DDC).
_STATEMENTS: Dict[str, Tuple[str, str, str, bool]] = {
    "spmv": ("ij,j->i", "Bc", "a", False),
    "spmm": ("ik,kj->ij", "BC", "A", False),
    "spadd3": ("ij+ij+ij->ij", "BCD", "A", True),
    "sddmm": ("ij,ik,kj->ij", "BCD", "A", True),
    "spttv": ("ijk,k->ij", "Bc", "A", True),
    "spmttkrp": ("ijk,jl,kl->il", "BCD", "A", False),
}


def _operand(name: str, obj) -> Tensor:
    if isinstance(obj, np.ndarray):
        return Tensor.from_dense(name, obj)
    return packed_operand(name, obj, CSR)


def spdistal_run(
    kind: str,
    operands: Sequence,
    nodes: int,
    cfg: Optional[BenchConfig] = None,
    *,
    gpus: Optional[int] = None,
    strategy: Optional[str] = None,
) -> SimResult:
    """Run one kernel of the paper's family on ``nodes`` CPU nodes (or
    ``gpus`` GPUs) under the schedule :func:`~repro.api.auto_schedule`
    synthesizes.

    ``operands`` are SciPy matrices, NumPy arrays or packed tensors in the
    statement's order.  ``strategy=None`` is the kernel table's choice for
    the processor kind (the paper's, §VI-A); ``"rows"`` / ``"nonzeros"``
    force one; ``"batched"`` is the row split whose schedule also
    communicates the dense operands at the inner row loop, which streams
    them in memory-sized rounds ("SpDISTAL-Batched").  The result's
    ``value`` is the output tensor.
    """
    cfg = cfg or default_config()
    spec, names, out_name, sparse_out = _STATEMENTS[kind]
    batched = strategy == "batched"

    def body():
        machine = _machine(cfg, nodes, gpus)
        tensors = [_operand(n, o) for n, o in zip(names, operands)]
        levels = tensors[0].format.levels

        def output(shape):
            fmt = Format(levels[:len(shape)]) if sparse_out else None
            return Tensor.zeros(out_name, shape, fmt)

        asg = build_assignment(_parse_spec(spec, len(tensors)), tensors, output)
        s = auto_schedule(asg, machine, strategy="rows" if batched else strategy)
        if batched:
            inner = s.divide_rel_of(s.distributed[0]).inner
            s.communicate([t for t in tensors if t.format.is_all_dense()], inner)
        seconds, comm = _run(compile_kernel(s, machine), cfg)
        return seconds, comm, asg.lhs.tensor

    return _wrap("SpDISTAL", body)
