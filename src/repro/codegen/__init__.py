"""Bound leaves: each compiled kernel's leaf as flat, pre-resolved thunks.

This package binds the leaf of a
:class:`~repro.core.compiler.CompiledKernel` through the bind function its
kernel-table entry names for its strategy (``KernelSpec.bound``; the
functions sit beside the reference kernels in :mod:`repro.kernels`).  One
call hoists the scaffolding the pieces share out of the execution path
and returns a flat ``{color: thunk}`` leaf whose thunks are built on first
use, plus, where the bind function returns an ``over`` — every strategy
but ``grid`` — a launch thunk that computes every piece in one call, a
reducing or streamed launch's too (:func:`bind_leaf`; the call adds the
pieces' partials in piece order, so it writes what they write).  Which kernels
bind, the arrays a bind function
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
``compile_program``, fixed when a kernel is compiled: ``"codegen"`` (the
default, the bound leaves, and every cached kernel's) or ``"interp"`` (the
per-call interpreter leaves, compiled outside the kernel cache, which
perfbench's ``kernels.interp_step_s`` row times; retiring that row deletes
the knob).

The lifecycle counters (:func:`codegen_stats`) are shared by every session
in the process and mutate only under ``_LOCK`` (enforced statically by
``tools/lock_check.py``).
"""
from __future__ import annotations

import threading
from collections.abc import Mapping
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

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
    piece's Work in piece order, its scaffolding derived as it binds;
    None when the pieces do not tile one range) — or None (interpreter
    fallback, bumping the ``fallbacks`` counter) when the kernel table
    names no bind function for its kind and strategy.  A launch with no
    launch thunk calls the leaf for each piece in its one call."""
    spec = SPECS[ck.kind]
    bind = spec.bound.get(ck.strategy)
    if bind is None:
        _bump("fallbacks")
        return None
    # The table extracts the raw arrays once and freezes every piece's Work
    # as columns; the bind function hoists the index scaffolding.
    args, pieces, works = spec.bind_args(ck)
    build, over = bind(*args, pieces, ck.strategy in spec.accumulating)
    thunks = _Thunks(pieces, works, build)
    _bump("binds")

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf, None if over is None else partial(_launch_thunk, pieces, works, over)


class _Thunks(Mapping):
    """A bound leaf's ``{color: thunk}``: the ``k``-th piece's thunk is
    ``build(*piece[1:], works[k])``, built on its first lookup and kept — a
    launch that runs as one call (the launch thunk) builds none."""

    def __init__(self, pieces, works, build):
        self._at = {p[0]: k for k, p in enumerate(pieces)}
        self._pieces, self._works = pieces, works
        self._build, self._built = build, {}

    def __getitem__(self, color):
        thunk = self._built.get(color)
        if thunk is None:
            k = self._at[color]
            thunk = self._built[color] = self._build(*self._pieces[k][1:], self._works[k])
        return thunk

    def __iter__(self):
        return iter(self._at)

    def __len__(self):
        return len(self._at)


def _launch_thunk(pieces, works, over) -> Optional[Callable]:
    """``over`` across every live piece's ``(lo, hi)`` range arguments,
    which must tile one range in piece order, returning every piece's
    frozen Work (``works``, the columns); None when they leave a gap or
    overlap.  It is bound on a kernel's first execute, whose launch calls
    it at once, recording or replaying."""
    live = np.array([p[1:3] for p in pieces if p[1] <= p[2]], dtype=np.int64).reshape(-1, 2)
    if (live[1:, 0] != live[:-1, 1] + 1).any():
        return None
    return over(live, works)


def leaf_for(ck) -> Optional[Callable]:
    """The bound leaf of :func:`bind_leaf` alone, or None.  perfbench's
    ``codegen.bind_cold_s`` / ``rebind_s`` / ``leaf_sweep_s`` rows bind
    through it (with :func:`supported`)."""
    bound = bind_leaf(ck)
    return None if bound is None else bound[0]
