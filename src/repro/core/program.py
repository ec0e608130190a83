"""Program-level compilation: many scheduled statements, one compile entry.

SpDISTAL's motivating workloads are rarely a single statement — a solver
step is an SpMV plus vector updates, a CP-ALS sweep is three MTTKRPs, a
graph pipeline chains SpMM into SDDMM.  Compiling those statements
*together* lets the amortization layers work across the program instead of
per ``compile_kernel`` call: every statement's compile goes through the
same kernel cache, every statement places its operands before the first
runs (one placing an operand the way an earlier one placed it changes
nothing), and communicate plans recorded by the runtime replay across the
whole statement sequence.

:func:`compile_program` is the entry; :func:`repro.core.compiler.compile_kernel`
is a thin wrapper over a one-statement program, and the high-level
:mod:`repro.api` front end (``Session``/``Program``/``einsum``) lowers here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..legion.machine import Machine
from ..legion.metrics import ExecutionMetrics
from ..legion.runtime import Runtime
from ..taco.schedule import Schedule
from .compiler import CompiledKernel, ExecutionResult, compile_statement
from .passes import PassRecord, pipeline_plan

__all__ = ["CompiledProgram", "ProgramResult", "compile_program"]


@dataclass
class ProgramResult:
    """The outcome of one :meth:`CompiledProgram.execute` pass."""

    results: List[ExecutionResult] = field(default_factory=list)

    @property
    def outputs(self) -> List:
        """Each statement's output tensor, in program order."""
        return [r.output for r in self.results]

    @property
    def output(self):
        """The last statement's output tensor (the program's result)."""
        return self.results[-1].output if self.results else None

    @property
    def simulated_seconds(self) -> float:
        """Total simulated execution time across the program's statements."""
        return sum(r.simulated_seconds for r in self.results)

    @property
    def reused(self) -> int:
        """Statements satisfied by common-subexpression reuse this pass."""
        return sum(1 for r in self.results if r.reused)

    def total_comm_bytes(self) -> float:
        return sum(r.metrics.total_comm_bytes() for r in self.results)

    def __getitem__(self, k: int) -> ExecutionResult:
        return self.results[k]

    def __len__(self) -> int:
        return len(self.results)


class CompiledProgram:
    """An ordered sequence of compiled kernels executed as one unit.

    Statements execute in definition order on a single runtime, so a
    statement reading a predecessor's output sees its freshly computed
    values, and the runtime's mapping traces cover the whole chain.
    """

    def __init__(
        self,
        kernels: Sequence[CompiledKernel],
        machine: Machine,
        reused_from: Optional[Sequence[Optional[int]]] = None,
        *,
        passes: Optional[Sequence[PassRecord]] = None,
        origin: Optional[Sequence[tuple]] = None,
    ):
        self.kernels: List[CompiledKernel] = list(kernels)
        self.machine = machine
        #: Per statement, the index of the earlier identical statement whose
        #: execution satisfies it (common-subexpression reuse), or None.
        self.reused_from: List[Optional[int]] = (
            list(reused_from) if reused_from is not None
            else [None] * len(self.kernels)
        )
        #: What the pass pipeline did while compiling this program
        #: (fold → dse → fuse → cse), in order.
        self.passes: List[PassRecord] = list(passes) if passes is not None else []
        #: Per compiled statement, the source-statement indices it came
        #: from (fusion merges several; DSE removes some entirely).
        self.origin: List[tuple] = (
            list(origin) if origin is not None
            else [(n,) for n in range(len(self.kernels))]
        )

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, k: int) -> CompiledKernel:
        return self.kernels[k]

    def describe(self) -> str:
        """The pass pipeline's provenance followed by the generated
        partitioning code of every statement, in order."""
        chunks = [f"// {rec.describe()}" for rec in self.passes]
        for n, ck in enumerate(self.kernels):
            src = self.origin[n] if n < len(self.origin) else (n,)
            label = f"// statement {n}"
            if tuple(src) != (n,):
                label += f" (from source statement{'s' if len(src) > 1 else ''} " \
                         f"{'+'.join(str(s) for s in src)})"
            chunks.append(f"{label}: {ck.schedule.assignment!r}")
            chunks.append(ck.plan.describe())
        return "\n".join(chunks)

    def execute(self, runtime: Runtime) -> ProgramResult:
        """Run every statement once, in order, on ``runtime``.

        Every kernel that will launch first meets ``runtime`` (a
        :class:`ValueError` for another machine, before anything runs; its
        operands placed the first time), then staged copies reset to home
        placements once for the whole program, so intermediate results
        staged by one statement stay resident for its consumers within the
        same trial — matching what a fused multi-statement task graph pays
        — and a first run books what every later one does.
        """
        for ck, prior in zip(self.kernels, self.reused_from):
            if prior is None:
                ck._meet(runtime)
        runtime.reset_residency()
        out = ProgramResult()
        for n, ck in enumerate(self.kernels):
            prior = self.reused_from[n]
            if prior is not None:
                # Common-subexpression reuse: an identical earlier statement
                # already ran this pass and nothing wrote its operands since,
                # so the output tensor holds exactly these values — no
                # launch, no simulated cost.
                out.results.append(ExecutionResult(
                    output=ck.out,
                    metrics=ExecutionMetrics(),
                    plan=ck.plan,
                    reused=True,
                ))
                continue
            out.results.append(ck.execute(runtime, fresh_trial=False))
        return out


def compile_program(
    schedules: Sequence[Schedule],
    machine: Optional[Machine] = None,
    *,
    use_cache: bool = True,
    cse: bool = True,
    fold: bool = True,
    dse: bool = True,
    fuse: bool = True,
    keep=None,
    backend: Optional[str] = None,
) -> CompiledProgram:
    """Compile scheduled statements together into a :class:`CompiledProgram`.

    The ordered pass pipeline (:mod:`repro.core.passes`) runs first —
    copy folding (``fold``), dead-store elimination (``dse``) and
    SDDMM→SpMM fusion (``fuse``), each individually disableable, with
    ``keep=`` pinning tensors (objects or names) that must stay
    materialized.  Each surviving statement then compiles through the
    cache-aware single-statement engine, which derives each statement's
    coordinate-tree partitions (the compiled kernel keeps them).
    With ``cse`` (the default) *identical* repeated statements
    additionally collapse: they compile to the same
    :class:`CompiledKernel` (the cache guarantees that part) and only the
    first occurrence executes per pass — later occurrences are satisfied
    from it (see :func:`repro.analysis.cse.cse_reuse_map` for the safety
    rules).  Which passes fired — with statement provenance — is reported
    by ``CompiledProgram.passes`` and :meth:`CompiledProgram.describe`.
    An empty program is an error — there is nothing to compile.
    ``backend`` is forwarded to every statement compile (None means
    ``"codegen"``; see :mod:`repro.codegen`).
    """
    if not schedules:
        raise ValueError("compile_program needs at least one scheduled statement")
    if machine is None:
        machine = Machine.cpu(1)
    plan = pipeline_plan(
        schedules, machine, fold=fold, dse=dse, fuse=fuse, keep=keep
    )
    kernels = [
        compile_statement(s, machine, use_cache=use_cache, backend=backend)
        for s in plan.schedules
    ]
    reused_from = None
    if cse and len(plan.schedules) > 1:
        from ..analysis.cse import cse_reuse_map

        reused_from, _diagnostics = cse_reuse_map(plan.schedules, machine)
    records = list(plan.records)
    if not cse:
        records.append(PassRecord("cse", False, (), "disabled"))
    else:
        collapsed = tuple(
            plan.origin[n][0]
            for n, r in enumerate(reused_from or [])
            if r is not None
        )
        records.append(PassRecord(
            "cse", bool(collapsed), collapsed,
            "identical statements collapse to one execution"
            if collapsed else "no identical repeated statements",
        ))
    return CompiledProgram(
        kernels, machine, reused_from, passes=records, origin=plan.origin
    )
