"""Generated-module registry: lower and ``exec``-load each template once.

A generated leaf module is a function of its lowering template key
``(iteration shape, strategy)`` and nothing else, so the process holds
one :class:`AotEntry` per key in the generated-module table of
:mod:`repro.core.cache` (at most 11 — what the kernel table declares).
:func:`module_for` builds a missing entry — emit the source, ``exec`` it
into a module object — under the table's lock, so a concurrent herd
missing on one template lowers and loads it exactly once and every thread
binds from the same module object.  The only source ever executed is what
:func:`repro.codegen.lowering.emit_source` just returned: nothing is read
from disk, an artifact or the environment.

The lifecycle counters (:func:`repro.codegen.codegen_stats`) are shared by
every session in the process and mutate only under ``_LOCK`` (enforced
statically by ``tools/lock_check.py``).
"""
from __future__ import annotations

import threading
import types
from dataclasses import dataclass
from typing import Dict, Tuple

from ..core import cache as _cache
from . import lowering

_LOCK = threading.Lock()

_counters: Dict[str, int] = {
    "lowered": 0,    # source emissions (one per template per process)
    "loaded": 0,     # exec-compilations of source into a module
    "binds": 0,      # leaf binds (thunk-table constructions)
    "fallbacks": 0,  # kernels routed back to the interpreter
}


@dataclass
class AotEntry:
    """One generated module: its source and the module object."""

    source: str
    module: types.ModuleType


def stats() -> Dict[str, int]:
    """A snapshot of the lifecycle counters."""
    with _LOCK:
        return dict(_counters)


def reset_stats() -> None:
    """Zero every lifecycle counter (test/bench isolation)."""
    with _LOCK:
        for k in _counters:
            _counters[k] = 0


def bump(*counters: str) -> None:
    """Increment lifecycle counters."""
    with _LOCK:
        for k in counters:
            _counters[k] += 1


def _build(key: Tuple[str, str]) -> AotEntry:
    source = lowering.emit_source(*key)
    name = "repro_codegen_" + "_".join(key)
    module = types.ModuleType(name)
    exec(compile(source, f"<repro.codegen:{name}>", "exec"), module.__dict__)
    bump("lowered", "loaded")
    return AotEntry(source, module)


def module_for(key: Tuple[str, str]) -> types.ModuleType:
    """The generated module of template ``key``, built on first use."""
    return _cache.aot_entry(key, _build).module
