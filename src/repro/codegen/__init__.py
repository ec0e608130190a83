"""Bound leaves: each compiled kernel's leaf as flat, pre-resolved thunks.

This package binds the leaf of a
:class:`~repro.core.compiler.CompiledKernel` through the bind function its
kernel-table entry names for its strategy (``KernelSpec.bound``; the
functions sit beside the reference kernels in :mod:`repro.kernels`).  One
call hoists every piece of index scaffolding out of the execution path
and returns a flat ``{color: thunk}`` leaf, plus, where the bind function
returns an ``over``, a launch thunk that computes every piece in one call
(:func:`bind_leaf`).  Which kernels bind, the arrays a bind function
receives and each piece's frozen :class:`~repro.legion.machine.Work` all
come from the kernel table (:mod:`repro.core.kernelspec`); this package
holds no per-kind and no per-format logic.  Nothing is rendered, compiled
or ``exec``'d: binding a leaf is a function call, and kinds that iterate
alike (:func:`repro.core.kernelspec.template_key`) bind through one
function.  Bound leaves produce bit-identical values *and* simulated
:class:`~repro.legion.machine.Work` costs relative to the interpreter
leaves — binding changes how leaves compute, never what the distributed
schedule does.

The one knob is the explicit ``backend=`` argument of ``compile_kernel`` /
``compile_program`` / ``Session`` / ``Server``: ``"codegen"`` (the default,
the bound leaves) or ``"interp"`` (the per-call interpreter leaves, which
perfbench's ``kernels.interp_step_s`` row times; retiring that row deletes
the knob).

The lifecycle counters (:func:`codegen_stats`) are shared by every session
in the process and mutate only under ``_LOCK`` (enforced statically by
``tools/lock_check.py``).
"""
from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..core.kernelspec import SPECS, template_key

__all__ = [
    "BACKENDS",
    "bind_leaf",
    "codegen_stats",
    "leaf_for",
    "reset_codegen_stats",
    "resolve_backend",
    "supported",
]

#: execution backends a compiled statement can target.
BACKENDS = ("interp", "codegen")

_LOCK = threading.Lock()

#: ``lowered`` / ``loaded`` stay 0 (nothing is generated); perfbench's
#: ``codegen.lowered`` / ``codegen.loaded`` rows read them, and retiring
#: those rows deletes the two keys.
_counters: Dict[str, int] = {
    "lowered": 0,
    "loaded": 0,
    "binds": 0,      # leaf binds (thunk-table constructions)
    "fallbacks": 0,  # kernels routed back to the interpreter
}


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend; ``None`` means ``"codegen"``."""
    if backend is None:
        return "codegen"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def codegen_stats() -> dict:
    """A snapshot of the lifecycle counters: lowered/loaded/binds/fallbacks."""
    with _LOCK:
        return dict(_counters)


def reset_codegen_stats() -> None:
    """Zero the lifecycle counters (test/bench isolation)."""
    with _LOCK:
        for k in _counters:
            _counters[k] = 0


def _bump(counter: str) -> None:
    with _LOCK:
        _counters[counter] += 1


def supported(ck) -> bool:
    """Whether ``ck`` has a bound leaf (else: the interpreter leaf)."""
    return template_key(ck) is not None


def bind_leaf(ck) -> Optional[Tuple[Callable, Optional[Callable]]]:
    """``(leaf, bind_launch)`` for ``ck``: the bound leaf (piece -> Work)
    and, where the bind function returns an ``over``, a zero-argument
    callable that binds the launch thunk over every piece (``() ->`` each
    piece's Work in piece order; None when the pieces do not tile one
    range) — only a launch that may run as one call builds it — or None
    (interpreter fallback, bumping the ``fallbacks`` counter) when the
    kernel table names no bind function for its kind and strategy."""
    spec = SPECS[ck.kind]
    bind = spec.bound.get(ck.strategy)
    if bind is None:
        _bump("fallbacks")
        return None
    # The table extracts the raw arrays once and freezes each piece's Work
    # into its tuple; the bind function hoists the index scaffolding.
    args, pieces = spec.bind_args(ck)
    thunks, over = bind(*args, pieces, ck.strategy in spec.accumulating)
    _bump("binds")

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf, None if over is None else partial(_launch_thunk, pieces, over)


def _launch_thunk(pieces, over) -> Optional[Callable]:
    """``over`` across the range the pieces' ``(lo, hi)`` range arguments
    tile in piece order, returning every piece's frozen Work in piece
    order; None when they leave a gap or overlap."""
    works = tuple(p[-1] for p in pieces)
    live = [p[1:3] for p in pieces if p[1] <= p[2]]
    if any(b[0] != a[1] + 1 for a, b in zip(live, live[1:])):
        return None
    if not live:
        return lambda: works
    return over(live[0][0], live[-1][1], works)


def leaf_for(ck) -> Optional[Callable]:
    """The bound leaf of :func:`bind_leaf` alone, or None.  perfbench's
    ``codegen.bind_cold_s`` / ``rebind_s`` / ``leaf_sweep_s`` rows bind
    through it (with :func:`supported`)."""
    bound = bind_leaf(ck)
    return None if bound is None else bound[0]
