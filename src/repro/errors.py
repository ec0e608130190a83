"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "ReproError", "OOMError", "CompileError", "ScheduleError", "FormatError",
    "PackError",
    "StoreError", "StoreFormatError", "ServingError", "TenantBudgetError",
    "AnalysisError", "WriteHazard", "IllegalCSE", "UnsupportedEinsum",
    "RedundantCommunicate", "MissingCommunicate", "SanitizerError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class OOMError(ReproError):
    """A simulated processor ran out of memory (reported as DNC in Fig. 11)."""

    def __init__(self, proc: int, needed: float, capacity: float, what: str = ""):
        self.proc = proc
        self.needed = needed
        self.capacity = capacity
        super().__init__(
            f"processor {proc} out of memory: needs {needed / 2**30:.2f} GiB, "
            f"capacity {capacity / 2**30:.2f} GiB{' (' + what + ')' if what else ''}"
        )


class CompileError(ReproError):
    """The compiler could not lower the scheduled statement."""


class ScheduleError(ReproError):
    """An invalid scheduling transformation was requested."""


class FormatError(ReproError):
    """An invalid tensor format or format/operation combination."""


class PackError(ReproError, ValueError):
    """Coordinates/values handed to a tensor constructor cannot be packed:
    the wrong number of coordinate arrays, a coordinate array whose length
    differs from the values', or a coordinate outside the tensor's shape.
    Carries the tensor name and, where they apply, the offending ``mode``,
    the first offending ``position`` in the input and the ``value`` found
    there.  Also a ``ValueError``, so callers that catch bad arguments
    generically need not know this type."""

    def __init__(self, tensor: str, message: str, *, mode=None,
                 position=None, value=None):
        self.tensor = tensor
        self.mode = mode
        self.position = position
        self.value = value
        super().__init__(f"cannot pack tensor {tensor!r}: {message}")


class StoreError(ReproError):
    """A persistent artifact (``repro.core.store``) could not be read or
    written: missing/corrupt manifest, unsupported format version, or a
    manifest that does not match its payload."""


class ServingError(ReproError):
    """The multi-tenant serving layer (:mod:`repro.api.serving`) rejected a
    request or is in a state where it cannot accept one (e.g. submitting
    to a closed server, or naming an unknown catalog tensor)."""


class TenantBudgetError(ServingError):
    """Admission control refused a tenant whose accumulated compile-cache
    charge exceeds its byte budget.  Carries the tenant name, its budget
    and its current charge so callers can shed load or raise the budget."""

    def __init__(self, tenant: str, charged: int, budget: int):
        self.tenant = tenant
        self.charged = int(charged)
        self.budget = int(budget)
        super().__init__(
            f"tenant {tenant!r} over budget: charged {charged} bytes of a "
            f"{budget}-byte compile budget — request refused at admission"
        )


class AnalysisError(ReproError):
    """Base class of the static-analysis diagnostics (:mod:`repro.analysis`).

    Every analysis error carries a ``provenance`` — a
    :class:`repro.analysis.report.Provenance` chain naming the statement,
    the tensor and the loop variables (derived → underlying) the
    diagnostic is anchored to — so a rejected program points at *where*
    the hazard lives, not just that one exists."""

    def __init__(self, message: str, provenance=None):
        self.provenance = provenance
        if provenance is not None:
            message = f"{message} [{provenance}]"
        super().__init__(message)


class WriteHazard(AnalysisError):
    """A statement reads a tensor it also writes (an intra-statement
    RAW/WAR conflict the runtime would execute with undefined results) —
    e.g. ``a(i) += B(i, j) * a(j)``.  SpAdd-assembled statements are
    exempt: their execution takes the operands' value arrays before a new
    output pattern is installed, and each piece gathers them before it
    writes (see the assembly steps of ``CompiledKernel.launches``)."""


class IllegalCSE(AnalysisError):
    """Two statements share a kernel fingerprint but may not collapse to
    one execution: a statement between them writes a tensor the earlier
    occurrence touches, so the later occurrence reads different values.
    Surfaced as a warning-severity diagnostic by ``Program.analyze()``;
    :func:`repro.core.program.compile_program` consults the same analysis
    and executes both occurrences."""


class UnsupportedEinsum(AnalysisError):
    """The statement (or its schedule) is outside what the compiler can
    lower — detected statically instead of failing mid-lowering with an
    opaque :class:`CompileError` (e.g. a generic-engine statement with a
    sparse output and no pattern source, or a non-zero distributed
    variable combined with further distributed loops)."""


class RedundantCommunicate(AnalysisError):
    """A ``communicate(tensor, var)`` placement that moves no data: the
    tensor's derived partition already makes every piece's sub-region
    resident where it executes (replicated operands, or a distribution
    that matches the computation), so the placement is dead weight in the
    schedule.  Surfaced as a warning by the static communication planner
    (:mod:`repro.analysis.commplan`)."""


class MissingCommunicate(AnalysisError):
    """The static communication plan moves the same region's data to two
    or more processors with overlapping sub-regions — duplicated transfer
    a ``communicate`` placement at the distributed loop would hoist into
    one broadcast.  Surfaced as a warning by the static communication
    planner (:mod:`repro.analysis.commplan`)."""


class SanitizerError(ReproError):
    """Generated-module source is outside the allowlist of
    :func:`repro.analysis.sanitizer.verify_aot_source` (smuggled imports,
    dunder access, I/O, module-level mutation, no ``bind``).  Carries the
    offending path and the exact source line."""

    def __init__(self, path, message: str, *, line=None):
        self.path = str(path)
        self.line = line
        at = f":{line}" if line is not None else ""
        super().__init__(f"{self.path}{at}: {message}")


class StoreFormatError(StoreError):
    """An artifact (or store index) failed structural validation *before*
    any payload was unpickled: unsupported/mismatched format version or a
    manifest missing required keys.  Carries the artifact path and, for
    version problems, the expected and found versions."""

    def __init__(self, path, message: str, *, expected=None, found=None):
        self.path = str(path)
        self.expected = expected
        self.found = found
        detail = ""
        if expected is not None or found is not None:
            detail = f" (expected {expected!r}, found {found!r})"
        super().__init__(f"{path}: {message}{detail}")
