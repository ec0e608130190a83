"""Baseline runners sharing the scaled machine model with SpDISTAL."""
from __future__ import annotations

from typing import Optional

from ..baselines import ctf as ctf_mod
from ..baselines import petsc as petsc_mod
from ..baselines import trilinos as trilinos_mod
from ..baselines.common import BaselineResult
from ..baselines.ctf import CtfConfig
from ..baselines.petsc import PetscConfig
from ..baselines.trilinos import TrilinosConfig
from ..errors import OOMError
from .harness import SimResult
from .models import BenchConfig, default_config

__all__ = [
    "petsc_run",
    "trilinos_run",
    "ctf_run",
]


def _to_sim(system: str, r: BaselineResult) -> SimResult:
    return SimResult(system, r.seconds, r.comm_bytes, oom=r.oom, value=r.value)


def _petsc_cfg(nodes: int, gpus: Optional[int], cfg: BenchConfig) -> PetscConfig:
    ranks = gpus if gpus is not None else nodes * cfg.node.cores
    return PetscConfig(nodes, gpus=gpus, node=cfg.node, network=cfg.mpi_network(ranks))


def _trilinos_cfg(nodes: int, gpus: Optional[int], cfg: BenchConfig) -> TrilinosConfig:
    ranks = gpus if gpus is not None else nodes * cfg.node.sockets
    return TrilinosConfig(nodes, gpus=gpus, node=cfg.node,
                          network=cfg.mpi_network(ranks),
                          pcie_bw=16.0e9 * cfg.rate_scale)


def _ctf_cfg(nodes: int, cfg: BenchConfig) -> CtfConfig:
    return CtfConfig(nodes, node=cfg.node, network=cfg.mpi_network(nodes * cfg.node.cores))


def _dispatch(system: str, module, kernel: str, args, config) -> SimResult:
    """Run ``module.<kernel>(*args, config)``; a kernel the system does not
    implement does not complete, like one that runs out of memory."""
    fn = getattr(module, kernel, None)
    if fn is None:
        return SimResult(system, float("inf"), oom=True)
    try:
        return _to_sim(system, fn(*args, config))
    except OOMError:
        return SimResult(system, float("inf"), oom=True)


def petsc_run(kernel: str, args, nodes: int, cfg: Optional[BenchConfig] = None,
              *, gpus: Optional[int] = None) -> SimResult:
    cfg = cfg or default_config()
    return _dispatch("PETSc", petsc_mod, kernel, args, _petsc_cfg(nodes, gpus, cfg))


def trilinos_run(kernel: str, args, nodes: int, cfg: Optional[BenchConfig] = None,
                 *, gpus: Optional[int] = None) -> SimResult:
    cfg = cfg or default_config()
    return _dispatch("Trilinos", trilinos_mod, kernel, args,
                     _trilinos_cfg(nodes, gpus, cfg))


#: CTF prices the higher-order kernels from the tensor's shape and non-zero
#: count.  Its processor-grid decomposition splits hot slices across ranks,
#: so the special MTTKRP kernel is essentially balanced.
_CTF_ARGS = {
    "spttv": lambda T, c: (None, T.shape, T.nnz, c),
    "spmttkrp": lambda T, C, D: (T.shape, T.nnz, C.shape[1]),
}


def ctf_run(kernel: str, args, nodes: int, cfg: Optional[BenchConfig] = None) -> SimResult:
    cfg = cfg or default_config()
    if kernel in _CTF_ARGS:
        args = _CTF_ARGS[kernel](*args)
    return _dispatch("CTF", ctf_mod, kernel, args, _ctf_cfg(nodes, cfg))
