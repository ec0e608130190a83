"""The SpDISTAL compiler: scheduled TIN statements → distributed kernels.

``compile_kernel`` implements the code generation algorithm of the paper's
Fig. 9a.  For each distributed index variable it

1. creates initial level partitions of the accessed tensors — universe
   partitions for coordinate-value iteration, non-zero partitions for
   coordinate-position iteration (``createInitialUniversePartitions`` /
   ``createInitialNonZeroPartition``),
2. derives full coordinate-tree partitions (``partitionCoordinateTrees`` /
   ``partitionNonZeroCoordinateTree``), and for the non-zero case partitions
   the remaining tensors from the split tensor's top-level partition
   (``partitionRemainingCoordinateTrees``),
3. emits a distributed loop passing each piece its sub-regions
   (``emitDistributedForLoop``) — realized as a Legion index launch whose
   leaf comes from the statement's entry in the kernel table
   (:mod:`repro.core.kernelspec`).

The result is a :class:`CompiledKernel` that can be executed repeatedly on a
:class:`~repro.legion.runtime.Runtime`, producing both the numerical result
and the simulated distributed execution metrics.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompileError
from ..legion.machine import Machine
from ..legion.partition import Coloring
from ..legion.metrics import CommEvent, ExecutionMetrics, StepMetrics
from ..legion.network import Network
from ..legion.runtime import Privilege, RegionReq, Runtime
from ..taco.expr import Access, Assignment
from ..taco.reference import var_sizes
from ..taco.schedule import Schedule
from ..taco.tensor import Tensor
from .. import kernels as K
from . import cache as _cache
from .assembly import (
    AssemblyPlan, adopt_pattern, install_assembled_output, merge_operands,
    pattern_source,
)
from .kernelspec import SPECS, KernelClass, classify
from .partitioner import (
    TensorPartition,
    dense_partition,
    partition_tensor,
    replicated_partition,
)
from .plan import PartitioningPlan

__all__ = [
    "Piece", "Launch", "CompiledKernel", "compile_kernel", "compile_statement",
    "ExecutionResult",
]

Bounds = Tuple[int, int]
Color = Hashable


# --------------------------------------------------------------------------- #
# distribution spec
# --------------------------------------------------------------------------- #
class Piece(NamedTuple):
    """One point of the distributed launch domain."""

    color: Color
    proc: int
    rows: Bounds  # top-level coordinate bounds of this piece
    pos: Optional[Bounds] = None  # non-zero position bounds (non-zero strategy)
    cols: Optional[Bounds] = None  # secondary universe bounds (batched SpMM)


class Launch(NamedTuple):
    """One step of a kernel's run (:meth:`CompiledKernel.launches`): an
    index launch whose ``body`` returns every colour's Work in colour order,
    or a step that launches nothing and books its own metrics (``book(rt)``:
    SpAdd's scan).  The static planner runs the same steps with its Work
    model's columns and calls no body, so whatever a run does besides
    launching happens in one.  ``leaf`` is the piece -> Work leaf a bound
    compute launch runs."""

    name: str
    reqs: Sequence[RegionReq] = ()
    colors: Sequence[Color] = ()
    proc_of: Optional[Callable[[Color], int]] = None
    body: Optional[Callable[[], list]] = None
    book: Optional[Callable[[Runtime], StepMetrics]] = None
    leaf: Optional[Callable[[Piece], object]] = None

    def run(self, rt: Runtime, body: Callable[[], list]) -> StepMetrics:
        """Book this step on ``rt``, launching ``body`` as its thunk."""
        if self.book is not None:
            return self.book(rt)
        return rt.index_launch(self.name, self.colors, body, self.reqs, proc_map=self.proc_of)


def _chunk_bounds(extent: int, pieces: int) -> np.ndarray:
    """Every color's ``K.piece_range(extent, pieces, color)``, as ``(pieces
    × 2)`` rows."""
    return np.stack(K.piece_range(extent, pieces, np.arange(pieces, dtype=np.int64)), axis=1)


@dataclass
class ExecutionResult:
    """One execution; ``simulated_seconds`` is priced on first read."""

    output: Tensor
    metrics: ExecutionMetrics
    plan: PartitioningPlan
    #: True when program-level common-subexpression reuse satisfied this
    #: statement from an earlier identical one in the same pass (no launch
    #: ran; the output already holds the values).
    reused: bool = False
    network: Optional[Network] = field(default=None, repr=False)

    @cached_property
    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds(self.network)


class CompiledKernel:
    """A compiled distributed sparse tensor kernel."""

    #: SpAdd's assembly plan (see :meth:`assembly_plan`).  A class default,
    #: so kernels unpickled from artifacts written before it existed have it.
    _spadd_plan: Optional[AssemblyPlan] = None
    #: The kernel-cache key ``store_kernel`` stored this kernel under (None
    #: when uncached); its ids are process-local, so pickling drops it.
    cache_key: Optional[Tuple] = None
    #: A compute kernel's :meth:`launches`, frozen on their first call and
    #: bound on the first execute (:meth:`_bind`).
    _launches: Optional[List[Launch]] = None

    def __init__(
        self,
        schedule: Schedule,
        machine: Machine,
        kind: str,
        strategy: str,
        pieces: List[Piece],
        parts: Dict[Tensor, TensorPartition],
        privileges: Dict[Tensor, Privilege],
        plan: PartitioningPlan,
        roles: Dict[str, Access],
        operands: List[Access],
        *,
        backend: str,
        streamed: FrozenSet[Tensor],
    ):
        self.schedule = schedule
        self.machine = machine
        self.kind = kind
        self.strategy = strategy
        self.pieces = pieces
        self.parts = parts
        self.privileges = privileges
        self.plan = plan
        self.roles = roles
        self.operands = operands
        self.out = schedule.assignment.lhs.tensor
        #: The runtimes this kernel placed its operands on, as keys in
        #: first-meeting order (weakly held: a cached kernel keeps no closed
        #: session's runtime alive).
        self._placed_on: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: execution backend: "interp" (closure leaves over repro.kernels)
        #: or "codegen" (bound flat thunks, interpreter fallback where the
        #: table names no bind function).
        self.backend = backend
        #: The operands the schedule streams in memory-sized rounds instead
        #: of keeping them resident (``Schedule.streamed``).
        self._streamed = streamed
        self._spadd_reqs: Optional[List[RegionReq]] = None

    # -- persistence (repro.core.store) ---------------------------------------
    def __getstate__(self):
        """Compiled kernels are picklable minus the leaf closures (they bind
        raw NumPy views) and the assembly plan (index arrays derived from
        the operands); both are rebuilt lazily on the first execute."""
        state = self.__dict__.copy()
        state.pop("_launches", None)
        state["_spadd_plan"] = None
        state.pop("cache_key", None)
        state.pop("_placed_on")  # a loaded kernel meets its runtimes anew
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._placed_on = weakref.WeakKeyDictionary()

    # -- data placement -----------------------------------------------------
    def _meet(self, rt: Runtime) -> None:
        """On the first execute on ``rt``: check that it runs this kernel's
        machine, then place every operand on it (:meth:`_place`)."""
        if rt in self._placed_on:
            return
        if rt.machine.signature != self.machine.signature:
            raise ValueError(
                f"runtime machine ({rt.machine.kind.value}, grid "
                f"{rt.machine.grid.dims}) does not match the kernel's machine "
                f"({self.machine.kind.value}, grid {self.machine.grid.dims}); "
                "the compiled plans would map to the wrong processors"
            )
        self._place(rt)
        self._placed_on[rt] = None

    def _place(self, rt: Runtime) -> None:
        """Distribute every tensor according to its (computed) partition.

        Matches the paper's experiments where the declared data distribution
        matches the computation distribution; a tensor a TDN statement
        declared on ``rt`` (``repro.distal``) stays where it was declared.
        Nothing resets here: placement comes before a run.
        """
        proc_of = {p.color: p.proc for p in self.pieces}.__getitem__
        reqs_of = {t: part.region_reqs(Privilege.READ_ONLY) for t, part in self.parts.items()}
        if self._spadd_reqs is not None:
            # the operand regions an assembly's launches read (re-installed
            # ones included), as its first execute froze them
            frozen = iter(self._spadd_reqs)
            for t in SPECS[self.kind].operand_tensors(self):
                reqs_of[t] = [next(frozen) for _ in reqs_of[t]]
        for t, reqs in reqs_of.items():
            if any(req.region.uid in rt.declared for req in reqs):
                continue
            if t in self._streamed:
                for req in reqs:
                    rt.place_on(req.region, 0)
                continue
            for req in reqs:
                if req.partition is None:
                    rt.place_replicated(req.region)
                else:
                    rt.place(req.region, req.partition, proc_of)

    # -- region requirements --------------------------------------------------
    def _reqs(self) -> List[RegionReq]:
        reqs: List[RegionReq] = []
        for t, part in self.parts.items():
            priv = self.privileges.get(t, Privilege.READ_ONLY)
            for req in part.region_reqs(priv):
                if t in self._streamed:
                    req.streamed = True
                reqs.append(req)
        return reqs

    # -- execution ---------------------------------------------------------------
    def execute(self, runtime: Runtime, *, fresh_trial: bool = True) -> ExecutionResult:
        """Run the kernel once on ``runtime``; returns the output and this
        trial's metrics.

        The first execute on a runtime checks that it runs the kernel's
        machine (a :class:`ValueError` otherwise) and places the operands
        there (:meth:`_place`) before it runs; later ones place nothing.
        ``fresh_trial`` resets staged copies to home placements so each
        trial pays the communication its algorithm inherently performs; the
        runtime's recorded mapping traces survive the reset, so iterations
        2..N replay the first iteration's staging decisions instead of
        re-deriving them (see :class:`repro.legion.runtime.Runtime`).
        """
        self._meet(runtime)
        if fresh_trial:
            runtime.reset_residency()
        return ExecutionResult(
            output=self.out,
            metrics=ExecutionMetrics(steps=[s.run(runtime, s.body) for s in self.launches()]),
            plan=self.plan,
            network=runtime.network,
        )

    def launches(self) -> List[Launch]:
        """The steps one run of this kernel takes, in order: the one list
        :meth:`execute` runs and the static planner mirrors.

        A compute kernel's is its one launch.  Until the first execute
        binds the leaf (:meth:`_bind`, from the launch's body) the list is
        made per call, as that body holds the kernel (kept, it would make a
        reference cycle); from then on it is frozen, so a warm execute
        builds nothing.  SpAdd's is made per call from
        :meth:`assembly_plan`."""
        if self._launches is not None:
            return self._launches
        if SPECS[self.kind].assembles:
            return self._assembly_launches()
        pieces = self.pieces
        step = Launch(f"{self.kind}:{self.strategy}", self._reqs(), [p.color for p in pieces],
                      {p.color: p.proc for p in pieces}.__getitem__)
        return [step._replace(body=lambda: self._bind(step).body())]

    def _bind(self, step: Launch) -> Launch:
        """Bind the leaf, and freeze ``step`` with it as the launch every
        execute hands the runtime (pieces, requirements and leaf fixed per
        kernel)."""
        # Write targets must be promoted before the leaf captures their
        # arrays: a leaf closure over a read-only mmap-backed region
        # (load_packed(..., mmap=True)) would crash on its first write,
        # and a later promotion could not reach the captured buffer.
        for t in self.parts:
            if self.privileges.get(t, Privilege.READ_ONLY) != Privilege.READ_ONLY:
                t.ensure_writable()
        leaf = bind_launch = None
        if self.backend == "codegen":
            from .. import codegen as _codegen  # lazy: avoids import cycle

            leaf, bind_launch = _codegen.bind_leaf(self) or (None, None)
        if leaf is None:
            leaf = SPECS[self.kind].interp_leaf(self)
        # The launch computes every piece in one call where the bind
        # function binds one (it declines only what its body cannot run:
        # ``grid``'s column windows, pieces that do not tile one range);
        # else it calls the leaf piece by piece.
        pieces, out = self.pieces, self.out
        launch = (bind_launch and bind_launch()) or (lambda: [leaf(p) for p in pieces])
        if self._needs_zero():
            def body():  # an output the pieces add into starts from zero
                out.vals.fill(0.0)
                return launch()
        else:
            body = launch
        (bound,) = self._launches = [step._replace(body=body, leaf=leaf)]
        return bound

    def _needs_zero(self) -> bool:
        return (
            self.privileges.get(self.out) == Privilege.REDUCE
            or SPECS[self.kind].needs_zero(self)
        )

    # -- SpAdd: two-phase assembly (paper §V-B) --------------------------------
    def _spadd_scan_step(self, rt: Runtime) -> StepMetrics:
        """The scan between the phases: per-row counts travel to the
        launching node and the scanned ``pos`` scatters back."""
        scan = StepMetrics("spadd:scan")
        for p in self.pieces:
            n = max(0, p.rows[1] - p.rows[0] + 1)
            if p.proc != 0 and n:
                scan.comm_events.append(
                    CommEvent(p.proc, 0, n * 8.0, rt.machine.same_node(p.proc, 0), "counts")
                )
                scan.comm_events.append(
                    CommEvent(0, p.proc, n * 16.0, rt.machine.same_node(0, p.proc), "pos")
                )
        return scan

    def assembly_plan(self) -> AssemblyPlan:
        """The statement's :class:`~repro.core.assembly.AssemblyPlan`,
        re-merged when an operand's ``pattern_version`` moved.  The kernel
        fingerprint covers every operand but the aliased one (``A = B + A``
        reads the output it re-structures), so the plan checks them all."""
        tensors = SPECS[self.kind].operand_tensors(self)
        plan = self._spadd_plan
        if plan is None or plan.versions != tuple(t.pattern_version for t in tensors):
            plan = self._spadd_plan = merge_operands(tensors, self.pieces, self.out.shape)
        return plan

    def spadd_read_reqs(self) -> List[RegionReq]:
        """The READ_ONLY requirements of both assembly launches.

        Frozen by the first execute, while the aliased operand's structure
        still matches its compile-time partitions; until then derived the
        same way.  Rebuilding them per iteration would pair the stale
        partitions with the freshly installed regions — new uids every
        time, so the assembly chain could never replay its traces.
        """
        if self._spadd_reqs is not None:
            return self._spadd_reqs
        return [
            req
            for t in SPECS[self.kind].operand_tensors(self)
            for req in self.parts[t].region_reqs(Privilege.READ_ONLY)
        ]

    def _assembly_launches(self) -> List[Launch]:
        """SpAdd's steps: the symbolic launch, the scan, and the fill into
        the output the merged pattern installs."""
        out, plan = self.out, self.assembly_plan()
        operand_tensors = SPECS[self.kind].operand_tensors(self)
        read_reqs = self.spadd_read_reqs()
        colors = [p.color for p in self.pieces]
        proc_of = {p.color: p.proc for p in self.pieces}.__getitem__
        vals: list = []

        def symbolic():
            self._spadd_reqs = read_reqs
            # Operand values, taken before the fill's install may replace
            # the output's regions: an aliased operand (``A = B + A``, or
            # the ``accumulate`` sugar) shares them, and a read after the
            # install would see the freshly-sized empty output instead.
            vals[:] = [t.vals.data for t in operand_tensors]
            return [K.spadd3_symbolic(plan.pieces[c])[1] for c in colors]

        def fill():
            # Once per new plan, and again whenever another statement
            # re-structured the output in between (its version moved).
            if plan.installed != out.pattern_version:
                install_assembled_output(out, plan.counts, plan.crd)
                plan.installed = out.pattern_version
            out_vals = out.vals.data
            return [K.spadd3_fill(plan.pieces[c], vals, out_vals[plan.spans[c]])
                    for c in colors]

        return [
            Launch("spadd:symbolic", read_reqs, colors, proc_of, body=symbolic),
            Launch("spadd:scan", book=self._spadd_scan_step),
            Launch("spadd:fill", read_reqs, colors, proc_of, body=fill),
        ]


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def compile_kernel(
    schedule: Schedule,
    machine: Optional[Machine] = None,
    *,
    use_cache: bool = True,
    backend: Optional[str] = None,
) -> CompiledKernel:
    """Compile a scheduled statement for a machine (Fig. 9a).

    Memoized (compile-once / run-many): an equivalent schedule over the
    same tensors and an equivalent machine returns the previously compiled
    :class:`CompiledKernel` — including its partitions and leaf closure —
    so iterative workloads pay compilation once.  The
    cache key embeds every tensor's ``pattern_version``; structural
    mutations miss while value-only updates hit (see
    :mod:`repro.core.cache`).  Pass ``use_cache=False`` (or compile inside
    :func:`~repro.core.cache.caches_disabled`, which holds for the calling
    thread only) to force a fresh compile.

    This entry point is a thin wrapper over a one-statement program (see
    :func:`repro.core.program.compile_program`); multi-statement callers
    and the high-level :mod:`repro.api` front end go through the program
    entry directly so shared operands' partitions are derived once.
    """
    from .program import compile_program

    return compile_program(
        [schedule], machine, use_cache=use_cache, backend=backend
    ).kernels[0]


def compile_statement(
    schedule: Schedule,
    machine: Optional[Machine] = None,
    *,
    use_cache: bool = True,
    backend: Optional[str] = None,
) -> CompiledKernel:
    """Compile one scheduled statement (the cache-aware single-statement
    engine behind :func:`compile_kernel` and
    :func:`repro.core.program.compile_program`).

    ``backend`` selects how leaves execute, fixed for the kernel's life:
    ``"codegen"`` (the default, via :mod:`repro.codegen`) runs the bound
    flat thunks where the kernel table names a bind function and falls
    back to the interpreter elsewhere; ``"interp"`` forces the closure
    leaves, on a kernel that neither comes from nor enters the kernel
    cache (every cached kernel is a codegen one).  The knob only retargets
    the kernel's leaf — partitions, launches and simulated metrics are
    identical either way.
    """
    from .. import codegen as _codegen  # lazy: avoids import cycle

    backend = _codegen.resolve_backend(backend)
    if machine is None:
        machine = Machine.cpu(1)
    if use_cache and backend == "codegen" and _cache.caches_enabled():
        try:
            key = _cache.kernel_fingerprint(schedule, machine)
        except _cache.Unfingerprintable:
            key = None
        if key is not None:
            hit = _cache.lookup_kernel(key)
            if hit is not None:
                return hit
            tensors = schedule.assignment.tensors()
            versions = [t.pattern_version for t in tensors]
            ck = _compile_uncached(schedule, machine, backend)
            # Compilation may adopt an input's pattern into the output
            # (bumping its version); then store under the post-compile
            # fingerprint — the one the next lookup will compute.
            if versions != [t.pattern_version for t in tensors]:
                key = _cache.kernel_fingerprint(schedule, machine)
            _cache.store_kernel(key, ck, tensors)
            return ck
    return _compile_uncached(schedule, machine, backend)


def _compile_uncached(schedule: Schedule, machine: Machine, backend: str) -> CompiledKernel:
    asg = schedule.assignment
    streamed = frozenset(schedule.streamed())
    if asg.lhs.tensor in streamed:
        raise CompileError(
            f"cannot stream the output {asg.lhs.tensor.name}: a communicate "
            "inside every distributed loop fetches it in rounds that are "
            "never kept, so its written values would be lost; communicate "
            "it at a distributed loop"
        )
    sizes = var_sizes(asg)
    kc = classify(asg)
    if SPECS[kc.kind].assembles:
        out, fmt = asg.lhs.tensor, asg.lhs.tensor.format
        if (fmt.mode_ordering, [lf.is_compressed for lf in fmt.levels]) != (
            (0, 1), [False, True]
        ):
            raise CompileError(
                f"cannot assemble {out.name}, stored as {fmt.name}: two-phase "
                "assembly writes a row-major {Dense, Compressed} matrix only "
                "(no other format has assembly level functions yet)"
            )
    plan = PartitioningPlan(f"{kc.kind}")

    dvars = list(schedule.distributed)
    nonzero_vars = [v for v in dvars if schedule.is_position_var(v)]
    if len(nonzero_vars) > 1:
        raise CompileError("at most one non-zero distributed variable is supported")

    if not dvars:
        layout = _compile_single(schedule, kc, plan)
    elif nonzero_vars:
        if len(dvars) != 1:
            raise CompileError("non-zero distribution cannot be combined with others")
        layout = _compile_nonzero(schedule, machine, kc, plan, dvars[0])
    else:
        layout = _compile_universe(schedule, machine, kc, plan, sizes, dvars)
    return CompiledKernel(schedule, machine, kc.kind, *layout, plan, kc.roles,
                          kc.operands, backend=backend, streamed=streamed)


def _unique_tensors(asg: Assignment) -> List[Tuple[Tensor, Access]]:
    first: Dict[Tensor, Access] = {}
    for acc in asg.accesses():
        first.setdefault(acc.tensor, acc)
    return list(first.items())


def _prepare_output(kc: KernelClass, asg: Assignment) -> None:
    """Pattern-preserving kinds: copy the source operand's structure into
    a sparse output so the leaves write values only."""
    out = asg.lhs.tensor
    if not SPECS[kc.kind].adopts_pattern or out.format.is_all_dense():
        return
    src = pattern_source(asg)
    if src is not None:
        adopt_pattern(out, src.tensor, keep_levels=len(asg.lhs.indices))


def _replicated(tensor: Tensor, colors: List[Color], plan: PartitioningPlan) -> TensorPartition:
    """``tensor`` whole on every piece, as the plan notes."""
    part = replicated_partition(tensor, colors)
    plan.emit("replicate", f"// {tensor.name} replicated onto all pieces", tensor=tensor.name)
    return part


def _privilege(part: TensorPartition, is_out: bool) -> Privilege:
    """How a distributed launch accesses a tensor: the pieces add into an
    output they all hold or that aliases across them, write any other
    output, and read an operand."""
    if not is_out:
        return Privilege.READ_ONLY
    if part.replicated or part.is_output_aliased():
        return Privilege.REDUCE
    return Privilege.WRITE_DISCARD


#: A strategy's compile: its name, pieces, partitions and privileges.
Layout = Tuple[str, List[Piece], Dict[Tensor, TensorPartition], Dict[Tensor, Privilege]]


def _compile_single(schedule, kc, plan) -> Layout:
    """No distributed loops: one piece covering the whole iteration space."""
    asg = schedule.assignment
    _prepare_output(kc, asg)
    parts: Dict[Tensor, TensorPartition] = {}
    privileges: Dict[Tensor, Privilege] = {}
    for tensor, acc in _unique_tensors(asg):
        parts[tensor] = replicated_partition(tensor, [0])
        privileges[tensor] = (
            Privilege.READ_WRITE if tensor is asg.lhs.tensor else Privilege.READ_ONLY
        )
    n0 = asg.lhs.tensor.shape[0] if asg.lhs.tensor.shape else 1
    kind_rows = (0, n0 - 1)
    sparse_in = kc.roles.get("B")
    pos_bounds = None
    if sparse_in is not None:
        last = sparse_in.tensor.levels[-1]
        pos_bounds = (0, last.num_positions - 1)
    pieces = [Piece(color=0, proc=0, rows=kind_rows, pos=pos_bounds)]
    plan.emit("single", "// single-piece execution (no distributed loops)")
    return "rows", pieces, parts, privileges


def _compile_universe(schedule, machine, kc, plan, sizes, dvars) -> Layout:
    """createInitialUniversePartitions + partitionCoordinateTrees."""
    asg = schedule.assignment
    _prepare_output(kc, asg)

    infos = []  # (dvar, underlying var, pieces, chunk bounds)
    for d in dvars:
        unders = schedule.underlying_vars(d)
        if len(unders) != 1:
            raise CompileError(
                "universe distribution of fused variables is not supported; "
                "use a non-zero partition (tilde) for fused dimensions"
            )
        u = unders[0]
        p = schedule.pieces_of(d)
        infos.append((d, u, p, _chunk_bounds(sizes[u], p)))

    multi = len(infos) > 1
    if multi:
        grid = [p for (_, _, p, _) in infos]
        colors: List[Color] = [tuple(c) for c in np.ndindex(*grid)]
    else:
        colors = list(range(infos[0][2]))

    # each distributed variable's chunk bounds for every color, as arrays
    comps = np.array(colors, dtype=np.int64).reshape(len(colors), -1)
    chunk_arrays = [info[3][comps[:, k]] for k, info in enumerate(infos)]

    parts: Dict[Tensor, TensorPartition] = {}
    privileges: Dict[Tensor, Privilege] = {}
    primary_u = infos[0][1]
    primary_sparse: Optional[TensorPartition] = None
    for tensor, acc in _unique_tensors(asg):
        matched = {}
        for k, (d, u, p, chunks) in enumerate(infos):
            if u in acc.indices:
                matched[k] = acc.indices.index(u)
        is_out = tensor is asg.lhs.tensor
        if tensor.format.is_all_dense():
            mode_bounds = {matched[k]: (chunk_arrays[k][:, 0], chunk_arrays[k][:, 1])
                           for k in matched}
            if not matched and not is_out:
                windows = _inferred_windows(asg, acc, parts)
                if windows is not None:
                    mode_bounds = windows
                    plan.emit(
                        "image",
                        f"// {tensor.name} windows inferred from crd images",
                        tensor=tensor.name,
                    )
            parts[tensor] = dense_partition(tensor, colors, mode_bounds, plan)
        elif matched:
            sparse_ks = list(matched.keys())
            if len(sparse_ks) > 1:
                raise CompileError(
                    f"sparse tensor {tensor.name} partitioned by multiple "
                    "universe variables is not supported"
                )
            k = sparse_ks[0]
            level = tensor.format.level_of_mode(matched[k])
            parts[tensor] = partition_tensor(
                tensor, level, "universe", Coloring(colors, chunk_arrays[k]), plan)
        else:
            parts[tensor] = _replicated(tensor, colors, plan)
        privileges[tensor] = _privilege(parts[tensor], is_out)

    rows = map(tuple, chunk_arrays[0].tolist())
    cols = map(tuple, chunk_arrays[1].tolist()) if multi else [None] * len(colors)
    # colors enumerate the launch grid row-major, so the ordinal is the
    # linearized grid index.
    size = machine.size
    pieces = [Piece(c, i % size, r, cols=window)
              for i, (c, r, window) in enumerate(zip(colors, rows, cols))]
    plan.emit("launch", f"distributed for io in {{0 ... {len(colors)}}} {{ ... }}")
    # A multi-variable universe distribution is the 2-D (or N-D) grid
    # mapping — reported as its own strategy so callers (autotune, the
    # store manifest) can tell the tile shape apart from the 1-D row split.
    return "grid" if multi else "rows", pieces, parts, privileges


def _inferred_windows(
    asg: Assignment,
    acc: Access,
    parts: Dict[Tensor, TensorPartition],
) -> Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]]:
    """Infer per-piece windows of an unpartitioned dense operand.

    DISTAL's ``communicate`` infers *what data to communicate* (paper
    §II-C): a dense operand indexed by a variable that names a Compressed
    level of an already-partitioned sparse tensor only needs the coordinate
    range its piece's ``crd`` values actually touch — e.g. the halo window
    of the SpMV vector on a banded matrix.  Returns ``{mode: (lo, hi)}``,
    each colour's window on that mode in colour order (one
    ``coord_bounds`` over the level's partition), or None when no indexing
    variable can be related to a partitioned compressed level.
    """
    windows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for mode, var in enumerate(acc.indices):
        for other in asg.accesses():
            part = parts.get(other.tensor)
            if part is None or other.tensor.format.is_all_dense() or part.replicated:
                continue
            if var not in other.indices:
                continue
            level = other.tensor.format.level_of_mode(other.indices.index(var))
            lvl = other.tensor.levels[level]
            if lvl.is_dense or part.level_positions[level] is None:
                continue
            windows[mode] = lvl.coord_bounds(part.level_positions[level])
            break
    return windows or None


def _compile_nonzero(schedule, machine, kc, plan, dvar) -> Layout:
    """createInitialNonZeroPartition + partitionNonZeroCoordinateTree +
    partitionRemainingCoordinateTrees (Fig. 9a, else branch)."""
    asg = schedule.assignment
    _prepare_output(kc, asg)
    pos_rel = schedule.pos_relation_of(dvar)
    split_acc = pos_rel.access
    split_tensor = split_acc.tensor
    unders = schedule.underlying_vars(dvar)
    split_level = max(
        split_tensor.format.level_of_mode(split_acc.indices.index(u))
        for u in unders
        if u in split_acc.indices
    )
    npieces = schedule.pieces_of(dvar)
    npos = split_tensor.levels[split_level].num_positions
    colors = list(range(npieces))
    bounds = Coloring(colors, _chunk_bounds(npos, npieces))

    parts: Dict[Tensor, TensorPartition] = {}
    privileges: Dict[Tensor, Privilege] = {}
    split_part = partition_tensor(split_tensor, split_level, "nonzero", bounds, plan)
    parts[split_tensor] = split_part
    top_bounds = split_part.top_level_bounds()

    # Which underlying variable names the split tensor's root level?
    top_u = None
    for u in unders:
        if u in split_acc.indices and split_tensor.format.level_of_mode(
            split_acc.indices.index(u)
        ) == 0:
            top_u = u

    for tensor, acc in _unique_tensors(asg):
        if tensor in parts:
            continue
        is_out = tensor is asg.lhs.tensor
        shares_pattern = (
            is_out
            and not tensor.format.is_all_dense()
            and tensor.levels
            and tensor.levels[-1] is split_tensor.levels[len(tensor.levels) - 1]
        )
        if shares_pattern:
            lvl = len(tensor.levels) - 1
            src = split_part.level_positions[lvl]
            parts[tensor] = TensorPartition(
                tensor,
                level_positions=list(split_part.level_positions[: lvl + 1]),
                level_pos_parts=list(split_part.level_pos_parts[: lvl + 1]),
                vals_part=src.copy(f"{tensor.name}ValsPart", tensor.vals.ispace),
                colors=colors,
            )
            plan.emit("copy", f"// {tensor.name} adopts {split_tensor.name}'s partition",
                      tensor=tensor.name)
        elif top_u is not None and top_u in acc.indices:
            mode = acc.indices.index(top_u)
            if tensor.format.is_all_dense():
                b = top_bounds.bounds
                parts[tensor] = dense_partition(
                    tensor, colors, {mode: (b[:, 0], b[:, 1])}, plan)
            else:
                level = tensor.format.level_of_mode(mode)
                parts[tensor] = partition_tensor(
                    tensor, level, "universe", top_bounds, plan
                )
        elif tensor.format.is_all_dense() and not is_out and (
                windows := _inferred_windows(asg, acc, parts)) is not None:
            plan.emit("image", f"// {tensor.name} windows inferred from crd images",
                      tensor=tensor.name)
            parts[tensor] = dense_partition(tensor, colors, windows, plan)
        else:
            parts[tensor] = _replicated(tensor, colors, plan)
        privileges[tensor] = _privilege(parts[tensor], is_out)

    size = machine.size
    pieces = [Piece(c, c % size, rows, pos)
              for c, pos, rows in zip(colors, map(tuple, bounds.bounds.tolist()),
                                      map(tuple, top_bounds.bounds.tolist()))]
    plan.emit("launch", f"distributed for fo in {{0 ... {npieces}}} {{ ... }}")
    return "nonzeros", pieces, parts, privileges
