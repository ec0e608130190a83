"""Machine model: grids of processors with Lassen-like characteristics.

The paper's programming model exposes the machine as an N-D grid of
processors (``Machine M(Grid(pieces))``); each grid point is one Legion
rank — a whole CPU node for CPU experiments, or a single GPU for GPU
experiments (paper §VI, one rank per node / one rank per GPU).

The performance parameters are calibrated to Lassen (paper §VI): dual
socket 40-core Power9 (≈ 34 GF/s/core peak, ≈ 135 GB/s/socket stream),
4× V100 (15.7 TF/s, 900 GB/s HBM2, 16 GiB) and an EDR Infiniband network.
Sparse kernels are memory bound, so the roofline in
:meth:`Processor.seconds_for` is what actually shapes the results.
"""
from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["ProcKind", "NodeSpec", "Grid", "Processor", "Machine", "Work"]

GB = 1024.0**3


class ProcKind(Enum):
    """What one machine-grid point is."""

    CPU = "cpu"  # a full node of CPU cores driven by OpenMP
    GPU = "gpu"  # a single GPU
    CPU_CORE = "cpu_core"  # a single core (baseline MPI ranks)
    CPU_SOCKET = "cpu_socket"  # a socket (Trilinos ranks)


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware description (defaults: one Lassen node)."""

    cores: int = 40
    sockets: int = 2
    gpus: int = 4
    dram_bytes: float = 256 * GB
    gpu_mem_bytes: float = 16 * GB
    core_flops: float = 8.0e9  # sustained per-core on sparse kernels
    core_membw: float = 6.5e9  # per-core share of STREAM bandwidth
    gpu_flops: float = 1.5e12  # sustained V100 on sparse kernels
    gpu_membw: float = 180.0e9  # effective HBM2 bw on irregular sparse kernels

    def node_flops(self) -> float:
        return self.cores * self.core_flops

    def node_membw(self) -> float:
        return self.cores * self.core_membw


@dataclass(frozen=True)
class Work:
    """Abstract work performed by one task: flops and bytes touched."""

    flops: float = 0.0
    bytes: float = 0.0

    def __add__(self, other: "Work") -> "Work":
        return Work(self.flops + other.flops, self.bytes + other.bytes)

    @staticmethod
    def zero() -> "Work":
        return Work(0.0, 0.0)


class Grid:
    """An N-D grid extent, e.g. ``Grid(4)`` or ``Grid(2, 2)``."""

    def __init__(self, *dims: int):
        if not dims:
            raise ValueError("Grid needs at least one dimension")
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"grid dims must be positive: {self.dims}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def points(self) -> Iterable[Tuple[int, ...]]:
        ranges = [range(d) for d in self.dims]
        return itertools.product(*ranges)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Grid{self.dims}"


@dataclass
class Processor:
    """One machine grid point with a roofline performance model."""

    index: int
    color: Tuple[int, ...]
    kind: ProcKind
    node_id: int
    flops: float
    membw: float
    mem_bytes: float
    parallel_lanes: int = 1  # threads/SMs available for dynamic load balance

    def seconds_for(self, work: Work) -> float:
        """Roofline execution time: max of compute-bound and memory-bound."""
        return max(work.flops / self.flops, work.bytes / self.membw)


class Machine:
    """An N-D grid of processors over a cluster of :class:`NodeSpec` nodes."""

    def __init__(
        self,
        grid: Grid,
        kind: ProcKind = ProcKind.CPU,
        node: NodeSpec = NodeSpec(),
        *,
        name: str = "M",
    ):
        self.grid = grid
        self.kind = kind
        self.node = node
        self.name = name
        #: the structural (process-independent) identity every cache key and
        #: stable fingerprint embeds; machines are immutable once built.
        self.signature: Tuple = (kind.value, grid.dims, astuple(node))
        self.processors: List[Processor] = []
        per_node = self._ranks_per_node(kind, node)
        for idx, color in enumerate(grid.points()):
            node_id = idx // per_node
            self.processors.append(self._make_proc(idx, color, node_id))

    # -- constructors matching the paper's experimental setup ---------------
    @staticmethod
    def cpu(nodes: int, node: NodeSpec = NodeSpec()) -> "Machine":
        """One rank per node (SpDISTAL CPU runs)."""
        return Machine(Grid(nodes), ProcKind.CPU, node)

    @staticmethod
    def gpu(gpus: int, node: NodeSpec = NodeSpec()) -> "Machine":
        """One rank per GPU (SpDISTAL GPU runs)."""
        return Machine(Grid(gpus), ProcKind.GPU, node)

    @staticmethod
    def cpu_cores(nodes: int, node: NodeSpec = NodeSpec()) -> "Machine":
        """One rank per core (PETSc/CTF CPU runs)."""
        return Machine(Grid(nodes * node.cores), ProcKind.CPU_CORE, node)

    @staticmethod
    def cpu_sockets(nodes: int, node: NodeSpec = NodeSpec()) -> "Machine":
        """One rank per socket (Trilinos CPU runs)."""
        return Machine(Grid(nodes * node.sockets), ProcKind.CPU_SOCKET, node)

    @staticmethod
    def _ranks_per_node(kind: ProcKind, node: NodeSpec) -> int:
        return {
            ProcKind.CPU: 1,
            ProcKind.GPU: node.gpus,
            ProcKind.CPU_CORE: node.cores,
            ProcKind.CPU_SOCKET: node.sockets,
        }[kind]

    def _make_proc(self, idx: int, color: Tuple[int, ...], node_id: int) -> Processor:
        n = self.node
        if self.kind == ProcKind.CPU:
            return Processor(
                idx, color, self.kind, node_id,
                flops=n.node_flops(), membw=n.node_membw(),
                mem_bytes=n.dram_bytes, parallel_lanes=n.cores,
            )
        if self.kind == ProcKind.GPU:
            return Processor(
                idx, color, self.kind, node_id,
                flops=n.gpu_flops, membw=n.gpu_membw,
                mem_bytes=n.gpu_mem_bytes, parallel_lanes=80,
            )
        if self.kind == ProcKind.CPU_CORE:
            return Processor(
                idx, color, self.kind, node_id,
                flops=n.core_flops, membw=n.core_membw,
                mem_bytes=n.dram_bytes / n.cores, parallel_lanes=1,
            )
        # CPU_SOCKET
        cores = n.cores // n.sockets
        return Processor(
            idx, color, self.kind, node_id,
            flops=cores * n.core_flops, membw=cores * n.core_membw,
            mem_bytes=n.dram_bytes / n.sockets, parallel_lanes=cores,
        )

    # -- grid structure -----------------------------------------------------
    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_nodes(self) -> int:
        return max(p.node_id for p in self.processors) + 1

    def proc(self, idx: int) -> Processor:
        return self.processors[idx]

    def dim(self, d: int) -> int:
        return self.grid.dims[d]

    def proc_of_color(self, color) -> int:
        """The processor a launch or placement colour maps to by default:
        grid colours linearize row-major over the machine grid, scalar
        colours are their own index; both wrap around the machine."""
        if isinstance(color, tuple):
            idx = 0
            for c, d in zip(color, self.grid.dims):
                idx = idx * d + int(c)
            return idx % self.size
        return int(color) % self.size

    # Named machine dimensions, as in ``M.x`` from the paper's Fig. 1.
    @property
    def x(self) -> int:
        return self.grid.dims[0]

    @property
    def y(self) -> int:
        return self.grid.dims[1]

    @property
    def z(self) -> int:
        return self.grid.dims[2]

    def same_node(self, a: int, b: int) -> bool:
        return self.processors[a].node_id == self.processors[b].node_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"Machine({self.name}, {self.grid}, {self.kind.value})"
