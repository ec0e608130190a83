"""AOT module registry: lower, exec-load and dump bookkeeping.

The registry is the lifecycle layer between the lowering templates and the
kernel cache: ``aot_entry_for`` resolves a stable fingerprint to an
:class:`AotEntry` (lowering fresh source only on a miss), ``ensure_loaded``
``exec``-compiles an entry's source into a real module object exactly once,
and ``seed_from_store`` registers source re-hydrated from a packed artifact
without counting as lowering work — the warm-start contract asserted by
``tests/core/test_codegen_cache.py::TestStoreWarmStart``.  Counters for
every transition are exposed through :func:`repro.codegen.codegen_stats`.

Thread safety: the registry is shared by every session in the process, so
all counter/state mutations happen under the module ``_LOCK`` (enforced
statically by ``tools/lock_check.py``), and ``aot_entry_for`` is
*single-flight* per fingerprint — N threads missing on the same key elect
one lowering leader while the rest wait, so the ``lowered`` counter counts
distinct fingerprints even under a concurrent herd (the property the
serving stress suite asserts).
"""
from __future__ import annotations

import os
import threading
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..analysis import sanitizer as _sanitizer
from ..core import cache as _cache
from . import lowering

#: One lock for every piece of registry state: the lifecycle counters and
#: the single-flight table.  Reentrant so a locked helper may call another
#: (``bump`` inside a locked region).
_LOCK = threading.RLock()

#: lifecycle counters — ``lowered`` is the one the warm-start tests watch.
_counters: Dict[str, int] = {
    "lowered": 0,        # fresh source emissions (cache misses)
    "loaded": 0,         # exec-compilations of source into a module
    "binds": 0,          # leaf binds (thunk-table constructions)
    "fallbacks": 0,      # kernels routed back to the interpreter
    "store_seeded": 0,   # modules re-hydrated from a packed artifact
}

#: fingerprints with a lowering currently in flight -> completion event.
_inflight: Dict[str, threading.Event] = {}


@dataclass
class AotEntry:
    """One generated module: source + metadata + lazily exec'd module."""

    key: str
    kind: str
    fmt: str
    strategy: str
    source: str
    module: Optional[types.ModuleType] = None
    from_store: bool = False


def stats() -> Dict[str, int]:
    """A snapshot of the lifecycle counters."""
    with _LOCK:
        return dict(_counters)


def reset_stats() -> None:
    """Zero every lifecycle counter (test/bench isolation)."""
    with _LOCK:
        for k in _counters:
            _counters[k] = 0


def bump(counter: str) -> None:
    """Increment one lifecycle counter."""
    with _LOCK:
        _counters[counter] += 1


def aot_entry_for(key: str, kind: str, fmt: str, strategy: str) -> AotEntry:
    """The cached entry for ``key``, lowering fresh source on a miss.

    Single-flight under concurrency: when several threads miss on the same
    fingerprint, exactly one lowers (and pays the ``lowered`` count) while
    the rest block on its completion event and then hit the cache.  If the
    leader fails — or the cache layer is disabled, so its store was a no-op
    — waiters re-enter the election, preserving the uncached semantics of
    one lowering per call.
    """
    while True:
        entry = _cache.lookup_aot(key)
        if entry is not None:
            return entry
        with _LOCK:
            # Re-check under the lock: a leader may have stored between the
            # unlocked miss above and acquiring the lock.
            entry = _cache.lookup_aot(key)
            if entry is not None:
                return entry
            waiter = _inflight.get(key)
            if waiter is None:
                _inflight[key] = threading.Event()
                break
        waiter.wait()
    try:
        source = lowering.emit_source(kind, fmt, strategy)
        entry = AotEntry(key, kind, fmt, strategy, source)
        _maybe_dump(entry)
        with _LOCK:
            _counters["lowered"] += 1
            _cache.store_aot(key, entry, nbytes=len(source) + 512)
    finally:
        with _LOCK:
            _inflight.pop(key).set()
    return entry


def seed_from_store(
    key: str, meta: Dict[str, object], source: str, *, origin: object = None
) -> None:
    """Register source loaded from a packed artifact (zero lowering work).

    Store-seeded source is untrusted until proven otherwise: it is checked
    against the generated-module AST allowlist
    (:func:`repro.analysis.sanitizer.verify_aot_source`) *before* it is
    registered, so a tampered artifact raises a typed
    :class:`~repro.errors.SanitizerError` here instead of executing
    arbitrary code at the later ``ensure_loaded``.  ``REPRO_AOT_TRUST``
    skips the check; ``origin`` names the on-disk file in diagnostics.
    """
    if not _sanitizer.aot_trusted():
        _sanitizer.verify_aot_source(
            source, filename=str(origin) if origin is not None else f"aot:{key[:32]}"
        )
    with _LOCK:
        if _cache.lookup_aot(key) is not None:
            return
        entry = AotEntry(
            key,
            str(meta.get("kind", "")),
            str(meta.get("format", "")),
            str(meta.get("strategy", "")),
            source,
            from_store=True,
        )
        _cache.store_aot(key, entry, nbytes=len(source) + 512)
        _counters["store_seeded"] += 1


def ensure_loaded(entry: AotEntry) -> types.ModuleType:
    """``exec``-compile the entry's source into a module object, once.

    The check-then-exec is serialized under the module lock so two threads
    binding the same entry concurrently load one module object (the
    ``loaded`` counter stays per-entry exact).

    Store-seeded entries re-verify against the AST allowlist immediately
    before ``exec`` (defense in depth over the ``seed_from_store`` check —
    the entry may predate the sanitizer or have been constructed directly);
    locally lowered source is our own emitter's output and is trusted.
    """
    if entry.module is None:
        if entry.from_store and not _sanitizer.aot_trusted():
            _sanitizer.verify_aot_source(
                entry.source, filename=f"aot:{entry.key[:32]}"
            )
        with _LOCK:
            if entry.module is None:
                name = (
                    f"repro_codegen_{entry.kind}_{entry.fmt}_{entry.strategy}"
                    f"_{entry.key[:12]}"
                )
                module = types.ModuleType(name)
                module.__aot_key__ = entry.key
                code = compile(entry.source, f"<repro.codegen:{name}>", "exec")
                exec(code, module.__dict__)
                entry.module = module
                _counters["loaded"] += 1
    return entry.module


def _maybe_dump(entry: AotEntry) -> None:
    """Write freshly lowered source to ``$REPRO_CODEGEN_DUMP`` if set."""
    dump = os.environ.get("REPRO_CODEGEN_DUMP")
    if not dump:
        return
    dump_dir = Path(dump)
    dump_dir.mkdir(parents=True, exist_ok=True)
    fname = f"{entry.kind}_{entry.fmt}_{entry.strategy}_{entry.key[:16]}.py"
    (dump_dir / fname).write_text(entry.source)
