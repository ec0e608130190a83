"""AOT codegen backend: fused, specialized NumPy leaves per compiled kernel.

This package lowers a :class:`~repro.core.compiler.CompiledKernel` to a
standalone generated Python module — one specialized function per
(iteration shape × strategy) — and binds it into a flat ``{color: thunk}``
leaf with every piece of index scaffolding hoisted out of the execution
path.  Which kernels lower, the arrays ``bind`` receives and each piece's
frozen :class:`~repro.legion.machine.Work` all come from the kernel table
(:mod:`repro.core.kernelspec`); this package holds no per-kind and no
per-format logic.
Generated modules are keyed by what they depend on — the lowering template
key ``(iteration shape, strategy)`` of
:func:`repro.core.kernelspec.template_key` — so a process lowers and
``exec``-loads each of the (at most 11) templates once, however many
kinds, kernels, tensors, pattern versions and machines bind leaves from it
(:mod:`repro.codegen.registry`).  Modules never leave the process: no
artifact carries code.  Generated leaves produce bit-identical values
*and* simulated :class:`~repro.legion.machine.Work` costs relative to the
interpreter leaves — codegen changes how leaves compute, never what the
distributed schedule does.

The one knob is the explicit ``backend=`` argument of ``compile_kernel`` /
``compile_program`` / ``Session`` / ``Server``: ``"codegen"`` (the default)
or ``"interp"``.  To read a generated module, call
``lowering.emit_source(shape, strategy)`` or walk
:func:`repro.core.cache.iter_aot_entries`.
"""
from __future__ import annotations

from typing import Callable, Optional

from ..core.kernelspec import SPECS, template_key
from . import lowering, registry

__all__ = [
    "BACKENDS",
    "codegen_stats",
    "leaf_for",
    "reset_codegen_stats",
    "resolve_backend",
    "supported",
]

#: execution backends a compiled statement can target.
BACKENDS = ("interp", "codegen")


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend; ``None`` means ``"codegen"``."""
    if backend is None:
        return "codegen"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def codegen_stats() -> dict:
    """Lifecycle counters: lowered/loaded/binds/fallbacks."""
    return registry.stats()


def reset_codegen_stats() -> None:
    """Zero the lifecycle counters (test/bench isolation)."""
    registry.reset_stats()


def supported(ck) -> bool:
    """Whether ``ck`` has a lowering template (else: interpreter leaf)."""
    return template_key(ck) is not None


def leaf_for(ck) -> Optional[Callable]:
    """A bound generated leaf for ``ck``, or None (interpreter fallback,
    bumping the ``fallbacks`` counter) when the kernel table declares no
    template for its kind and strategy."""
    tkey = template_key(ck)
    if tkey is None:
        registry.bump("fallbacks")
        return None
    module = registry.module_for(tkey)
    # The table extracts the raw arrays once and freezes each piece's Work
    # into its tuple; the generated module hoists the index scaffolding.
    args, pieces = SPECS[ck.kind].bind_args(ck)
    thunks = module.bind(*args, pieces)
    registry.bump("binds")

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf
