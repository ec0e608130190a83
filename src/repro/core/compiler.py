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

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompileError
from ..legion.machine import Machine, Work
from ..legion.metrics import CommEvent, ExecutionMetrics
from ..legion.partition import Partition
from ..legion.runtime import Privilege, RegionReq, Runtime
from ..taco.expr import Access, Assignment
from ..taco.index_vars import IndexVar
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
    partition_dense_tensor,
    partition_tensor,
    replicated_partition,
)
from .plan import PartitioningPlan

__all__ = [
    "Piece", "CompiledKernel", "compile_kernel", "compile_statement",
    "ExecutionResult",
]

Bounds = Tuple[int, int]
Color = Hashable


# --------------------------------------------------------------------------- #
# distribution spec
# --------------------------------------------------------------------------- #
@dataclass
class Piece:
    """One point of the distributed launch domain."""

    color: Color
    proc: int
    var_bounds: Dict[IndexVar, Bounds]
    rows: Bounds  # top-level coordinate bounds of this piece
    pos: Optional[Bounds] = None  # non-zero position bounds (non-zero strategy)
    cols: Optional[Bounds] = None  # secondary universe bounds (batched SpMM)


def _chunk_bounds(extent: int, pieces: int) -> List[Bounds]:
    return [K.piece_range(extent, pieces, c) for c in range(pieces)]


@dataclass
class ExecutionResult:
    output: Tensor
    metrics: ExecutionMetrics
    simulated_seconds: float
    plan: PartitioningPlan
    #: True when program-level common-subexpression reuse satisfied this
    #: statement from an earlier identical one in the same pass (no launch
    #: ran; the output already holds the values).
    reused: bool = False


class CompiledKernel:
    """A compiled distributed sparse tensor kernel."""

    #: SpAdd's assembly plan (see :meth:`assembly_plan`).  A class default,
    #: so kernels unpickled from artifacts written before it existed have it.
    _spadd_plan: Optional[AssemblyPlan] = None

    def __init__(
        self,
        schedule: Schedule,
        machine: Machine,
        kind: str,
        strategy: str,
        pieces: List[Piece],
        parts: Dict[int, TensorPartition],
        privileges: Dict[int, Privilege],
        plan: PartitioningPlan,
        roles: Dict[str, Access],
        operands: List[Access],
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
        self._runtime: Optional[Runtime] = None
        #: execution backend: "interp" (closure leaves over repro.kernels)
        #: or "codegen" (bound flat thunks, interpreter fallback where the
        #: table names no bind function).  Set by ``compile_statement``.
        self.backend: str = "interp"
        self._leaf: Optional[Callable[[Piece], Work]] = None
        #: backend the current ``_leaf`` was built for (rebuild on change).
        self._leaf_backend: Optional[str] = None
        #: ``index_launch``'s arguments, frozen with the leaf by :meth:`_bind`.
        self._launch_args: Optional[tuple] = None
        self._streamed: set = set()
        self._spadd_reqs: Optional[List[RegionReq]] = None

    def stream_tensor(self, tensor: Tensor) -> None:
        """Communicate this tensor's sub-regions in memory-sized rounds
        instead of keeping them resident (the "SpDISTAL-Batched" strategy)."""
        self._streamed.add(id(tensor))
        self._leaf = None  # re-freeze the launch's requirements at next execute

    # -- persistence (repro.core.store) ---------------------------------------
    def __getstate__(self):
        """Compiled kernels are picklable minus the leaf closures (they bind
        raw NumPy views) and the assembly plan (index arrays derived from
        the operands); both are rebuilt lazily on the first execute."""
        state = self.__dict__.copy()
        state["_leaf"] = None
        state["_leaf_backend"] = None
        state["_launch_args"] = None
        state["_spadd_plan"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # ``parts``/``privileges``/``_streamed`` key on id(tensor); ids
        # changed across the pickle boundary.  Every partition carries its
        # tensor, so re-key from the old ids to the unpickled identities.
        old_parts: Dict[int, TensorPartition] = self.parts
        tensor_of = {old_id: part.tensor for old_id, part in old_parts.items()}
        self.parts = {id(t): old_parts[old_id] for old_id, t in tensor_of.items()}
        self.privileges = {
            id(tensor_of[old_id]): priv
            for old_id, priv in self.privileges.items()
            if old_id in tensor_of
        }
        self._streamed = {
            id(tensor_of[old_id]) for old_id in self._streamed if old_id in tensor_of
        }

    # -- data placement -----------------------------------------------------
    def _ensure_runtime(self, runtime: Optional[Runtime]) -> Runtime:
        if runtime is not None:
            if runtime is not self._runtime:
                self._runtime = runtime
                self._place(runtime)
            return runtime
        if self._runtime is None:
            self._runtime = Runtime(self.machine)
            self._place(self._runtime)
        return self._runtime

    def _place(self, rt: Runtime) -> None:
        """Distribute every tensor according to its (computed) partition.

        Matches the paper's experiments where the declared data distribution
        matches the computation distribution; mismatched TDN placements are
        applied by ``repro.distal`` before execution instead.
        """
        proc_of = {p.color: p.proc for p in self.pieces}.__getitem__
        placed = set()
        for t_id, part in self.parts.items():
            tensor = part.tensor
            if id(tensor) in placed:
                continue
            placed.add(id(tensor))
            if getattr(tensor, "_placed_by_tdn", False):
                continue
            if id(tensor) in self._streamed:
                for req in part.region_reqs(Privilege.READ_ONLY):
                    rt.place_on(req.region, 0)
                continue
            for req in part.region_reqs(Privilege.READ_ONLY):
                if req.partition is None:
                    rt.place_replicated(req.region)
                else:
                    rt.place(req.region, req.partition, proc_of)
        rt.invalidate_caches()

    # -- region requirements --------------------------------------------------
    def _reqs(self) -> List[RegionReq]:
        reqs: List[RegionReq] = []
        for t_id, part in self.parts.items():
            priv = self.privileges.get(t_id, Privilege.READ_ONLY)
            for req in part.region_reqs(priv):
                if t_id in self._streamed:
                    req.streamed = True
                reqs.append(req)
        return reqs

    # -- execution ---------------------------------------------------------------
    def execute(
        self, runtime: Optional[Runtime] = None, *, fresh_trial: bool = True
    ) -> ExecutionResult:
        """Run the kernel once; returns the output and this trial's metrics.

        ``fresh_trial`` resets staged copies to home placements so each
        trial pays the communication its algorithm inherently performs; the
        runtime's recorded mapping traces survive the reset, so iterations
        2..N replay the first iteration's staging decisions instead of
        re-deriving them (see :class:`repro.legion.runtime.Runtime`).
        """
        rt = self._ensure_runtime(runtime)
        if fresh_trial:
            rt.reset_residency()
        before = len(rt.metrics.steps)
        if SPECS[self.kind].assembles:
            self._execute_spadd(rt)
        else:
            self._execute_compute(rt)
        new_steps = rt.metrics.steps[before:]
        trial = ExecutionMetrics(steps=list(new_steps))
        return ExecutionResult(
            output=self.out,
            metrics=trial,
            simulated_seconds=trial.simulated_seconds(rt.network),
            plan=self.plan,
        )

    def _execute_compute(self, rt: Runtime) -> None:
        if self._leaf is None or self._leaf_backend != self.backend:
            self._bind()
        if self._needs_zero():
            self.out.vals.fill(0.0)
        name, colors, task, reqs, proc_of, launch = self._launch_args
        rt.index_launch(name, colors, task, reqs, proc_map=proc_of, launch=launch)

    def _bind(self) -> None:
        """Bind the leaf, and freeze what every launch of it hands the
        runtime (the pieces, requirements and leaf fixed per kernel)."""
        # Write targets must be promoted before the leaf captures their
        # arrays: a leaf closure over a read-only mmap-backed region
        # (load_packed(..., mmap=True)) would crash on its first write,
        # and a later promotion could not reach the captured buffer.
        for t_id, part in self.parts.items():
            if self.privileges.get(t_id, Privilege.READ_ONLY) != Privilege.READ_ONLY:
                part.tensor.ensure_writable()
        leaf = bind_launch = launch = None
        if self.backend == "codegen":
            from .. import codegen as _codegen  # lazy: avoids import cycle

            leaf, bind_launch = _codegen.bind_leaf(self) or (None, None)
        if leaf is None:
            leaf = SPECS[self.kind].interp_leaf(self)
        # A replay may compute the launch in one call only when no output
        # value depends on where pieces split: an output written disjointly
        # (a reduced one sums partials in piece order), and every operand
        # resident rather than streamed in rounds.  This is the one place
        # that decides; a bind function declines only what its body cannot
        # run, and a launch refused here binds nothing for the one-call path.
        if (bind_launch is not None and not self._streamed
                and self.privileges.get(id(self.out)) == Privilege.WRITE_DISCARD):
            launch = bind_launch()
        by_color = {p.color: p for p in self.pieces}
        self._leaf = leaf
        self._leaf_backend = self.backend
        self._launch_args = (
            f"{self.kind}:{self.strategy}",
            list(by_color),
            lambda color: leaf(by_color[color]),
            self._reqs(),
            {p.color: p.proc for p in self.pieces}.__getitem__,
            launch,
        )

    def _needs_zero(self) -> bool:
        return (
            self.privileges.get(id(self.out)) == Privilege.REDUCE
            or SPECS[self.kind].needs_zero(self)
        )

    # -- SpAdd: two-phase assembly (paper §V-B) --------------------------------
    def _spadd_scan_step(self, rt: Runtime) -> None:
        """The scan between the phases: per-row counts travel to the
        launching node and the scanned ``pos`` scatters back."""
        scan = rt.metrics.new_step("spadd:scan")
        for p in self.pieces:
            n = max(0, p.rows[1] - p.rows[0] + 1)
            if p.proc != 0 and n:
                scan.comm_events.append(
                    CommEvent(p.proc, 0, n * 8.0, rt.machine.same_node(p.proc, 0), "counts")
                )
                scan.comm_events.append(
                    CommEvent(0, p.proc, n * 16.0, rt.machine.same_node(0, p.proc), "pos")
                )

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

    def _execute_spadd(self, rt: Runtime) -> None:
        out = self.out
        plan = self.assembly_plan()
        operand_tensors = SPECS[self.kind].operand_tensors(self)
        # Operand values, taken BEFORE install_assembled_output may replace
        # the output's regions: an aliased operand (``A = B + A``, or the
        # ``accumulate`` sugar, which strips A from the operand list but
        # still reads it) shares them, and the pre-install array holds the
        # values the statement consumes.  Re-reading through the tensor
        # after an install would see the freshly-sized empty output instead
        # — the seed bug that crashed or dropped the aliased operand.
        vals = [t.vals.data for t in operand_tensors]
        # The launch requirements are frozen on first execute, while the
        # aliased operand's structure still matches its compile-time
        # partitions.  Rebuilding them per iteration would pair the stale
        # partitions with the freshly installed regions — new uids every
        # time, so the assembly chain could never replay its traces.
        if self._spadd_reqs is None:
            self._spadd_reqs = [
                req
                for t in operand_tensors
                for req in self.parts[id(t)].region_reqs(Privilege.READ_ONLY)
            ]
        read_reqs = self._spadd_reqs
        colors = [p.color for p in self.pieces]
        proc_of = {p.color: p.proc for p in self.pieces}.__getitem__

        rt.index_launch(
            "spadd:symbolic",
            colors,
            lambda color: K.spadd3_symbolic(plan.pieces[color])[1],
            read_reqs,
            proc_map=proc_of,
        )

        self._spadd_scan_step(rt)
        # Checked once per new plan, and again whenever another statement
        # re-structured the output in between (its version moved).
        if plan.installed != out.pattern_version:
            install_assembled_output(out, plan.counts, plan.crd)
            plan.installed = out.pattern_version
        out_vals = out.vals.data

        rt.index_launch(
            "spadd:fill",
            colors,
            lambda color: K.spadd3_fill(
                plan.pieces[color], vals, out_vals[plan.spans[color]]
            ),
            read_reqs,
            proc_map=proc_of,
        )


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
    :class:`CompiledKernel` — including its partitions, leaf closure and
    attached runtime — so iterative workloads pay compilation once.  The
    cache key embeds every tensor's ``pattern_version``; structural
    mutations miss while value-only updates hit (see
    :mod:`repro.core.cache`).  Pass ``use_cache=False`` (or disable caches
    globally) to force a fresh compile.

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

    ``backend`` selects how leaves execute: ``"codegen"`` (the default,
    via :mod:`repro.codegen`) runs the bound flat thunks where the kernel
    table names a bind function and falls back to the interpreter elsewhere;
    ``"interp"`` forces the closure leaves.  The knob only retargets the
    kernel's leaf — partitions, launches and simulated metrics are
    identical either way.
    """
    from .. import codegen as _codegen  # lazy: avoids import cycle

    backend = _codegen.resolve_backend(backend)
    if machine is None:
        machine = Machine.cpu(1)
    if not use_cache:
        # The full seed path: bypass the partition memo too, so measured
        # uncached compiles really re-derive every coordinate-tree partition.
        with _cache.caches_disabled():
            ck = _compile_uncached(schedule, machine)
            ck.backend = backend
            return ck
    if _cache.caches_enabled():
        try:
            key = _cache.kernel_fingerprint(schedule, machine)
        except _cache.Unfingerprintable:
            key = None
        if key is not None:
            hit = _cache.lookup_kernel(key)
            # A kernel mutated after compilation (stream_tensor) must not be
            # handed to a caller that didn't ask for streaming — recompile
            # (the fresh kernel then replaces the mutated entry).
            if hit is not None and not hit._streamed:
                hit.backend = backend
                return hit
            tensors = schedule.assignment.tensors()
            versions = [t.pattern_version for t in tensors]
            ck = _compile_uncached(schedule, machine)
            ck.backend = backend
            # Compilation may adopt an input's pattern into the output
            # (bumping its version); then store under the post-compile
            # fingerprint — the one the next lookup will compute.
            if versions != [t.pattern_version for t in tensors]:
                key = _cache.kernel_fingerprint(schedule, machine)
            _cache.store_kernel(key, ck, tensors)
            return ck
    ck = _compile_uncached(schedule, machine)
    ck.backend = backend
    return ck


def _compile_uncached(schedule: Schedule, machine: Machine) -> CompiledKernel:
    asg = schedule.assignment
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
        return _compile_single(schedule, machine, kc, plan, sizes)
    if nonzero_vars:
        if len(dvars) != 1:
            raise CompileError("non-zero distribution cannot be combined with others")
        return _compile_nonzero(schedule, machine, kc, plan, sizes, dvars[0])
    return _compile_universe(schedule, machine, kc, plan, sizes, dvars)


def _unique_tensors(asg: Assignment) -> List[Tuple[Tensor, Access]]:
    seen, out = set(), []
    for acc in asg.accesses():
        if id(acc.tensor) not in seen:
            seen.add(id(acc.tensor))
            out.append((acc.tensor, acc))
    return out


def _prepare_output(kc: KernelClass, asg: Assignment) -> None:
    """Pattern-preserving kinds: copy the source operand's structure into
    a sparse output so the leaves write values only."""
    out = asg.lhs.tensor
    if not SPECS[kc.kind].adopts_pattern or out.format.is_all_dense():
        return
    src = pattern_source(asg)
    if src is not None:
        adopt_pattern(out, src.tensor, keep_levels=len(asg.lhs.indices))


def _compile_single(schedule, machine, kc, plan, sizes) -> CompiledKernel:
    """No distributed loops: one piece covering the whole iteration space."""
    asg = schedule.assignment
    _prepare_output(kc, asg)
    parts: Dict[int, TensorPartition] = {}
    privileges: Dict[int, Privilege] = {}
    for tensor, acc in _unique_tensors(asg):
        parts[id(tensor)] = replicated_partition(tensor, [0])
        privileges[id(tensor)] = (
            Privilege.READ_WRITE if tensor is asg.lhs.tensor else Privilege.READ_ONLY
        )
    n0 = asg.lhs.tensor.shape[0] if asg.lhs.tensor.shape else 1
    kind_rows = (0, n0 - 1)
    sparse_in = kc.roles.get("B")
    pos_bounds = None
    if sparse_in is not None:
        last = sparse_in.tensor.levels[-1]
        pos_bounds = (0, last.num_positions - 1)
    pieces = [Piece(color=0, proc=0, var_bounds={}, rows=kind_rows, pos=pos_bounds)]
    plan.emit("single", "// single-piece execution (no distributed loops)")
    return CompiledKernel(
        schedule, machine, kc.kind, "rows", pieces, parts, privileges, plan,
        kc.roles, kc.operands,
    )


def _compile_universe(schedule, machine, kc, plan, sizes, dvars) -> CompiledKernel:
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

    def bounds_of(color: Color, k: int) -> Bounds:
        comp = color[k] if multi else color
        return infos[k][3][comp]

    parts: Dict[int, TensorPartition] = {}
    privileges: Dict[int, Privilege] = {}
    primary_u = infos[0][1]
    primary_sparse: Optional[TensorPartition] = None
    for tensor, acc in _unique_tensors(asg):
        matched = {}
        for k, (d, u, p, chunks) in enumerate(infos):
            if u in acc.indices:
                matched[k] = acc.indices.index(u)
        is_out = tensor is asg.lhs.tensor
        if tensor.format.is_all_dense():
            mode_bounds = {
                c: {matched[k]: bounds_of(c, k) for k in matched} for c in colors
            }
            if not matched and not is_out:
                windows = _inferred_windows(asg, acc, parts, colors)
                if windows is not None:
                    mode_bounds = windows
                    plan.emit(
                        "image",
                        f"// {tensor.name} windows inferred from crd images",
                        tensor=tensor.name,
                    )
            parts[id(tensor)] = partition_dense_tensor(tensor, mode_bounds, plan)
        elif matched:
            sparse_ks = list(matched.keys())
            if len(sparse_ks) > 1:
                raise CompileError(
                    f"sparse tensor {tensor.name} partitioned by multiple "
                    "universe variables is not supported"
                )
            k = sparse_ks[0]
            mode = matched[k]
            level = tensor.format.level_of_mode(mode)
            bounds = {c: bounds_of(c, k) for c in colors}
            parts[id(tensor)] = partition_tensor(tensor, level, "universe", bounds, plan)
        else:
            parts[id(tensor)] = replicated_partition(tensor, colors)
            plan.emit("replicate", f"// {tensor.name} replicated onto all pieces",
                      tensor=tensor.name)
        if is_out:
            part = parts[id(tensor)]
            if part.replicated or part.is_output_aliased():
                privileges[id(tensor)] = Privilege.REDUCE
            else:
                privileges[id(tensor)] = Privilege.WRITE_DISCARD
        else:
            privileges[id(tensor)] = Privilege.READ_ONLY

    pieces = []
    for i, c in enumerate(colors):
        var_bounds = {infos[k][0]: bounds_of(c, k) for k in range(len(infos))}
        rows = bounds_of(c, 0)
        cols = bounds_of(c, 1) if multi else None
        pieces.append(
            # colors enumerate the launch grid row-major, so the ordinal is
            # the linearized grid index.
            Piece(color=c, proc=i % machine.size,
                  var_bounds=var_bounds, rows=rows, cols=cols)
        )
    plan.emit("launch", f"distributed for io in {{0 ... {len(colors)}}} {{ ... }}")
    # A multi-variable universe distribution is the 2-D (or N-D) grid
    # mapping — reported as its own strategy so callers (autotune, the
    # store manifest) can tell the tile shape apart from the 1-D row split.
    return CompiledKernel(
        schedule, machine, kc.kind, "grid" if multi else "rows", pieces,
        parts, privileges, plan, kc.roles, kc.operands,
    )


def _inferred_windows(
    asg: Assignment,
    acc: Access,
    parts: Dict[int, TensorPartition],
    colors: Sequence[Color],
) -> Optional[Dict[Color, Dict[int, Bounds]]]:
    """Infer per-piece windows of an unpartitioned dense operand.

    DISTAL's ``communicate`` infers *what data to communicate* (paper
    §II-C): a dense operand indexed by a variable that names a Compressed
    level of an already-partitioned sparse tensor only needs the coordinate
    range its piece's ``crd`` values actually touch — e.g. the halo window
    of the SpMV vector on a banded matrix.  Returns None when no indexing
    variable can be related to a partitioned compressed level.
    """
    windows: Dict[Color, Dict[int, Bounds]] = {c: {} for c in colors}
    found = False
    for mode, var in enumerate(acc.indices):
        for other in asg.accesses():
            part = parts.get(id(other.tensor))
            if part is None or other.tensor.format.is_all_dense() or part.replicated:
                continue
            if var not in other.indices:
                continue
            level = other.tensor.format.level_of_mode(other.indices.index(var))
            lvl = other.tensor.levels[level]
            if lvl.is_dense or part.level_positions[level] is None:
                continue
            for c in colors:
                windows[c][mode] = lvl.coord_bounds(part.level_positions[level][c])
            found = True
            break
    return windows if found else None


def _compile_nonzero(schedule, machine, kc, plan, sizes, dvar) -> CompiledKernel:
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
    chunks = _chunk_bounds(npos, npieces)
    colors = list(range(npieces))
    bounds = {c: chunks[c] for c in colors}

    parts: Dict[int, TensorPartition] = {}
    privileges: Dict[int, Privilege] = {}
    split_part = partition_tensor(split_tensor, split_level, "nonzero", bounds, plan)
    parts[id(split_tensor)] = split_part
    top_bounds = split_part.top_level_bounds()

    # Which underlying variable names the split tensor's root level?
    top_u = None
    for u in unders:
        if u in split_acc.indices and split_tensor.format.level_of_mode(
            split_acc.indices.index(u)
        ) == 0:
            top_u = u

    for tensor, acc in _unique_tensors(asg):
        if id(tensor) in parts:
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
            parts[id(tensor)] = TensorPartition(
                tensor,
                level_positions=list(split_part.level_positions[: lvl + 1]),
                level_pos_parts=list(split_part.level_pos_parts[: lvl + 1]),
                vals_part=Partition(tensor.vals.ispace, dict(src.subsets),
                                    name=f"{tensor.name}ValsPart"),
                colors=colors,
            )
            plan.emit("copy", f"// {tensor.name} adopts {split_tensor.name}'s partition",
                      tensor=tensor.name)
        elif top_u is not None and top_u in acc.indices:
            mode = acc.indices.index(top_u)
            if tensor.format.is_all_dense():
                mode_bounds = {c: {mode: top_bounds[c]} for c in colors}
                parts[id(tensor)] = partition_dense_tensor(tensor, mode_bounds, plan)
            else:
                level = tensor.format.level_of_mode(mode)
                parts[id(tensor)] = partition_tensor(
                    tensor, level, "universe", top_bounds, plan
                )
        elif tensor.format.is_all_dense() and not is_out:
            windows = _inferred_windows(asg, acc, parts, colors)
            if windows is not None:
                plan.emit("image", f"// {tensor.name} windows inferred from crd images",
                          tensor=tensor.name)
                parts[id(tensor)] = partition_dense_tensor(tensor, windows, plan)
            else:
                parts[id(tensor)] = replicated_partition(tensor, colors)
                plan.emit("replicate", f"// {tensor.name} replicated onto all pieces",
                          tensor=tensor.name)
        else:
            parts[id(tensor)] = replicated_partition(tensor, colors)
            plan.emit("replicate", f"// {tensor.name} replicated onto all pieces",
                      tensor=tensor.name)
        if is_out:
            part = parts[id(tensor)]
            if part.replicated or part.is_output_aliased():
                privileges[id(tensor)] = Privilege.REDUCE
            else:
                privileges[id(tensor)] = Privilege.WRITE_DISCARD
        else:
            privileges[id(tensor)] = Privilege.READ_ONLY

    pieces = []
    for c in colors:
        pieces.append(
            Piece(
                color=c,
                proc=c % machine.size,
                var_bounds={dvar: bounds[c]},
                rows=top_bounds[c],
                pos=bounds[c],
            )
        )
    plan.emit("launch", f"distributed for fo in {{0 ... {npieces}}} {{ ... }}")
    return CompiledKernel(
        schedule, machine, kc.kind, "nonzeros", pieces, parts, privileges, plan,
        kc.roles, kc.operands,
    )
