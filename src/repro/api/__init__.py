"""The high-level SpDISTAL front end: sessions, lazy programs, einsum.

The paper keeps computation (tensor index notation), data layout (formats
+ distribution notation) and mapping (scheduling commands) independent;
this package makes the *defaults* of each synthesizable so a statement
runs with exactly as much ceremony as the user wants to spend:

* :class:`Session` (``repro.session(...)``) — owns the machine, the
  runtime and the optional artifact store; one context manager instead
  of four imports.
* :class:`Program` — a lazy multi-statement graph compiled together, so
  partitions of shared operands are derived once and mapping traces span
  the statement chain.
* :func:`auto_schedule` — synthesizes the paper's canonical
  divide→distribute→communicate→parallelize (or fuse→pos→divide→…)
  mapping from the statement, formats and machine; any hand-built
  :class:`~repro.taco.schedule.Schedule` overrides it.
* :func:`einsum` — ``repro.einsum("ij,j->i", B, c)``, the NumPy-style
  entry point lowering to the same pipeline.
* :class:`Server` (``repro.serve(...)``) — a multi-tenant request
  scheduler multiplexing concurrent einsum requests over a pool of
  pre-warmed sessions that share the process-wide caches, with
  single-flight compile/tune dedup and per-tenant byte budgets
  (``docs/serving.md``).

The low-level API (``compile_kernel(schedule, machine)``) keeps working
unchanged — it is now a thin wrapper over a one-statement program.
"""
from .autoschedule import auto_schedule, auto_strategy, candidate_strategies
from .einsum import einsum
from .program import Program, Statement
from .serving import ServeResult, Server, TenantStats, serve
from .session import AutotuneCandidate, AutotuneResult, Session, session

__all__ = [
    "Session",
    "session",
    "Server",
    "serve",
    "ServeResult",
    "TenantStats",
    "Program",
    "Statement",
    "auto_schedule",
    "auto_strategy",
    "candidate_strategies",
    "einsum",
    "AutotuneCandidate",
    "AutotuneResult",
]
