"""AOT codegen backend: fused, specialized NumPy leaves per compiled kernel.

This package lowers a :class:`~repro.core.compiler.CompiledKernel` to a
standalone generated Python module — one specialized function per
(kernel × format × strategy) — and binds it into a flat ``{color: thunk}``
leaf with every piece of index scaffolding hoisted out of the execution
path.  Which kernels lower, the arrays ``bind`` receives and each piece's
frozen :class:`~repro.legion.machine.Work` all come from the kernel table
(:mod:`repro.core.kernelspec`); this package holds no per-kind logic.
Generated modules are keyed by the stable schedule fingerprint (schedule
signature + tensor pattern versions + machine signature), cached in :mod:`repro.core.cache`, optionally persisted through the
:class:`~repro.core.store_index.ArtifactStore`, and produce bit-identical
values *and* simulated :class:`~repro.legion.machine.Work` costs relative
to the interpreter leaves — codegen changes how leaves compute, never what
the distributed schedule does.

Knobs:

* ``REPRO_CODEGEN=0`` (or ``off``/``interp``) flips the process-wide
  default backend to the interpreter; :func:`set_codegen_backend` does the
  same programmatically.
* ``REPRO_CODEGEN_DUMP=dir`` writes every freshly lowered module to *dir*
  for inspection.
"""
from __future__ import annotations

import os
from typing import Callable, Optional

from ..core import cache as _cache
from ..core.kernelspec import SPECS, template_key
from ..core.store import stable_fingerprint
from . import lowering, registry
from .lowering import SUPPORTED
from .registry import AotEntry

__all__ = [
    "BACKENDS",
    "SUPPORTED",
    "codegen_backend",
    "codegen_stats",
    "leaf_for",
    "reset_codegen_stats",
    "resolve_backend",
    "set_codegen_backend",
    "supported",
]

#: execution backends a compiled statement can target.
BACKENDS = ("interp", "codegen")


def _env_default() -> str:
    v = os.environ.get("REPRO_CODEGEN", "").strip().lower()
    if v in ("0", "off", "interp", "interpreter", "false", "no"):
        return "interp"
    return "codegen"


_default_backend = _env_default()


def set_codegen_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    previous = _default_backend
    _default_backend = backend
    return previous


def codegen_backend() -> str:
    """The process-wide default backend ('interp' or 'codegen')."""
    return _default_backend


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend or fall back to the process default."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def codegen_stats() -> dict:
    """Lifecycle counters: lowered/loaded/binds/fallbacks/store_seeded."""
    return registry.stats()


def reset_codegen_stats() -> None:
    """Zero the lifecycle counters (test/bench isolation)."""
    registry.reset_stats()


def supported(ck) -> bool:
    """Whether ``ck`` has a lowering template (else: interpreter leaf)."""
    return template_key(ck) is not None


def leaf_for(ck) -> Optional[Callable]:
    """A bound generated leaf for ``ck``, or None (interpreter fallback).

    Falls back — bumping the ``fallbacks`` counter — when the kernel class,
    format, or strategy has no template, when the schedule cannot be
    fingerprinted, or when the cache layer is disabled (codegen is an
    amortization feature; without caches every call would re-lower).
    """
    if not _cache.caches_enabled():
        registry.bump("fallbacks")
        return None
    tkey = template_key(ck)
    if tkey is None:
        registry.bump("fallbacks")
        return None
    try:
        key = stable_fingerprint(ck.schedule, ck.machine)
    except _cache.Unfingerprintable:
        registry.bump("fallbacks")
        return None
    entry = registry.aot_entry_for(key, *tkey)
    module = registry.ensure_loaded(entry)
    # The table extracts the raw arrays once and freezes each piece's Work
    # into its tuple; the generated module hoists the index scaffolding.
    args, pieces = SPECS[ck.kind].bind_args(ck)
    thunks = module.bind(*args, pieces)
    registry.bump("binds")

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf
