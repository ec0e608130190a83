"""Static analysis over programs and stored artifacts.

Four coordinated layers (see ``docs/analysis.md``):

* **privileges + hazards** — per-statement read/write privilege sets
  (tensor × mode, with the accumulate / assembled-output distinctions
  the execution engine makes), RAW/WAR/WAW dependence graph, and typed
  ``WriteHazard`` / ``UnsupportedEinsum`` diagnostics;
* **cse** — proven-safe common-subexpression collapse: the reuse map
  ``compile_program(cse=True)`` executes, plus ``IllegalCSE``
  diagnostics explaining every blocked collapse;
* **planner + cost model** — :func:`predict_metrics` derives a schedule's
  exact metrics signature (launches, communication events, per-node
  footprint) over a scratch runtime, :func:`predict_cost` prices it in
  simulated seconds, and :func:`commplan_diagnostics` reads the signature
  for ``RedundantCommunicate`` / ``MissingCommunicate`` findings;
* **sanitizer** — an AST allowlist for kernel-module source (kept for
  perfbench's ``analysis.sanitizer.verify_s`` row).

:func:`analyze_program` is the one-call entry; the high-level
``repro.Program.analyze()`` wraps it.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.passes import PassRecord, PipelinePlan, pipeline_plan
from ..errors import (
    AnalysisError, IllegalCSE, MissingCommunicate, RedundantCommunicate,
    SanitizerError, UnsupportedEinsum, WriteHazard,
)
from .commplan import (
    MetricsSignature, commplan_diagnostics, measured_signature, predict_metrics,
)
from .costmodel import CostEstimate, predict_cost
from .cse import cse_reuse_map
from .hazards import Dependence, DependenceGraph, build_graph, detect_hazards
from .privileges import (
    StatementPrivileges, TensorUse, program_privileges, statement_privileges,
)
from .report import AnalysisReport, Diagnostic, Provenance
from .sanitizer import ALLOWED_IMPORT_ROOTS, FORBIDDEN_NAMES, verify_aot_source

__all__ = [
    "AnalysisReport", "Diagnostic", "Provenance",
    "TensorUse", "StatementPrivileges",
    "statement_privileges", "program_privileges",
    "Dependence", "DependenceGraph", "build_graph", "detect_hazards",
    "cse_reuse_map", "analyze_program",
    "PassRecord", "PipelinePlan", "pipeline_plan",
    "MetricsSignature", "predict_metrics", "measured_signature",
    "commplan_diagnostics", "CostEstimate", "predict_cost",
    "verify_aot_source",
    "ALLOWED_IMPORT_ROOTS", "FORBIDDEN_NAMES",
    "AnalysisError", "WriteHazard", "IllegalCSE", "UnsupportedEinsum",
    "RedundantCommunicate", "MissingCommunicate", "SanitizerError",
]


def analyze_program(
    targets: Sequence, machine=None, *, cost: bool = False, runtime=None,
) -> AnalysisReport:
    """Statically analyze a program (a sequence of schedules/assignments).

    Returns the full :class:`AnalysisReport`: privilege sets, dependence
    graph, WriteHazard / UnsupportedEinsum / IllegalCSE diagnostics, and
    the CSE reuse map ``compile_program`` consults.  Never executes or
    compiles anything.

    With ``cost=True`` the static communication planner additionally runs
    over each statement: schedules are *compiled* (through the ordinary
    kernel cache — still nothing executes), ``report.predictions`` holds
    each statement's predicted metrics signature, and the diagnostics
    gain the planner's coherence findings (redundant/missing
    ``communicate`` placements).
    Statements the compiler rejects are skipped — the hazard analyzer
    already reports them as ``UnsupportedEinsum``.  Pass ``runtime`` when
    tensors were placed by ``repro.distal`` so the planner sees their
    real home placements.
    """
    from ..legion.machine import Machine
    from ..taco.schedule import Schedule

    if machine is None:
        machine = Machine.cpu(1)
    schedules = [
        t if isinstance(t, Schedule) else Schedule(t) for t in targets
    ]
    privs = program_privileges(schedules)
    report = AnalysisReport(
        privileges=privs,
        graph=build_graph(privs),
        diagnostics=detect_hazards(privs),
    )
    if len(schedules) > 1:
        reuse, cse_diags = cse_reuse_map(schedules, machine)
        report.reuse_map = reuse
        report.diagnostics.extend(cse_diags)
    else:
        report.reuse_map = [None] * len(schedules)
    try:
        # What the compile-time pass pipeline would do — reported for
        # provenance only; the report's privileges/hazards/reuse facts
        # describe the *source* program the user wrote.
        report.passes = list(pipeline_plan(schedules, machine).records)
    except Exception:
        # Analysis stays usable for programs the pipeline cannot model
        # (e.g. statements the classifier rejects mid-fusion-probe); the
        # hazard diagnostics above already explain those.
        report.passes = []
    if cost:
        from ..errors import CompileError, OOMError, ScheduleError

        for n, sched in enumerate(schedules):
            if report.reuse_map[n] is not None:
                report.predictions.append(None)
                continue
            try:
                sig = predict_metrics(sched, machine, runtime=runtime)
            except (CompileError, ScheduleError, OOMError):
                # rejected schedules are already UnsupportedEinsum findings;
                # an OOMing plan has no signature to report.
                report.predictions.append(None)
                continue
            report.predictions.append(sig)
            report.diagnostics.extend(commplan_diagnostics(
                sched, machine, runtime=runtime, statement=n, signature=sig,
            ))
    return report
