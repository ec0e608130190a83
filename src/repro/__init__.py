"""repro: a Python reproduction of SpDISTAL (SC 2022).

SpDISTAL compiles sparse tensor algebra to distributed machines by
combining tensor index notation, a sparse format language, tensor
distribution notation and a scheduling language, lowered through dependent
partitioning onto a Legion-style task runtime.

The primary entry points live here (see ``docs/api.md``)::

    import repro

    with repro.session(nodes=4) as s:
        B = s.tensor("B", scipy_matrix, repro.CSR)
        c = s.tensor("c", dense_vector)
        a = repro.einsum("ij,j->i", B, c, session=s)

``repro.session`` opens the execution context (machine, runtime, caches,
optional artifact store); ``repro.einsum`` and ``Session.define`` /
``Program`` submit work with auto-synthesized schedules; a hand-built
:class:`~repro.taco.schedule.Schedule` overrides the auto-scheduler
anywhere.  The low-level surface (``repro.core.compile_kernel``,
``repro.legion.Runtime``) remains available unchanged.
"""
from .errors import (
    AnalysisError,
    CompileError,
    FormatError,
    IllegalCSE,
    OOMError,
    PackError,
    ReproError,
    SanitizerError,
    ScheduleError,
    ServingError,
    TenantBudgetError,
    UnsupportedEinsum,
    WriteHazard,
)
from .taco import (
    CSC,
    CSF3,
    CSR,
    DDC,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    Format,
    Schedule,
    Tensor,
    index_vars,
)
from .legion import Machine
from .core import compile_kernel, compile_program
from .codegen import codegen_stats
from .analysis import AnalysisReport, analyze_program, predict_metrics
from .api import (
    AutotuneResult,
    Program,
    ServeResult,
    Server,
    Session,
    auto_schedule,
    einsum,
    serve,
    session,
)

__version__ = "0.2.0"

__all__ = [
    # high-level front end
    "session",
    "Session",
    "Program",
    "einsum",
    "auto_schedule",
    "AutotuneResult",
    # multi-tenant serving layer
    "serve",
    "Server",
    "ServeResult",
    # building blocks
    "Tensor",
    "Schedule",
    "Machine",
    "index_vars",
    "compile_kernel",
    "compile_program",
    # static analysis
    "analyze_program",
    "AnalysisReport",
    "predict_metrics",
    # codegen lifecycle counters
    "codegen_stats",
    # formats
    "Format",
    "CSR",
    "CSC",
    "CSF3",
    "DDC",
    "DENSE_MATRIX",
    "DENSE_VECTOR",
    "SPARSE_VECTOR",
    # errors
    "AnalysisError",
    "CompileError",
    "FormatError",
    "IllegalCSE",
    "OOMError",
    "PackError",
    "ReproError",
    "SanitizerError",
    "ScheduleError",
    "ServingError",
    "TenantBudgetError",
    "UnsupportedEinsum",
    "WriteHazard",
    "__version__",
]
