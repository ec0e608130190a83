"""Compile-once / run-many caches (the amortization layer of the paper).

SpDISTAL's headline wins come from paying the cost of sparse-tensor
partitioning once and amortizing it over the many executions of an
iterative workload (SpMV inside CG, MTTKRP inside ALS — paper §VI).  This
module provides the compiler-side layer of that amortization (the
runtime-side mapping-trace replay lives in :mod:`repro.legion.runtime`,
and each :class:`~repro.api.session.Session` keeps its own front-door
table and tuned winners under :func:`statement_key`).

* **Kernel cache** — :func:`repro.core.compile_kernel` is memoized behind
  :func:`lookup_kernel` / :func:`store_kernel`.  The key is a *canonical
  fingerprint* of the schedule (statement structure with tensors and index
  variables canonicalized by first appearance, loop order, provenance
  relations, distribution variables, piece counts, parallel units) plus
  each tensor's identity, shape, format, dtype and ``pattern_version``,
  plus a structural machine signature.  Rebuilding an identical schedule —
  even with fresh :class:`~repro.taco.index_vars.IndexVar` objects —
  therefore hits.  A schedule :func:`repro.api.auto_schedule` synthesized
  (and no builder call edited since) is keyed by its ``synthesis_key`` in
  place of the structure — the strategy, piece count or grid dims and
  parallel unit it was built from — so its key walks no relation and a
  warm compile never builds it.

  A compiled kernel keeps the coordinate-tree partitions it derived
  (:func:`repro.core.partitioner.partition_tensor`), so a hit reuses them
  and nothing else caches partitions.

Invalidation
------------
Keys embed ``Tensor.pattern_version``; a pattern bump self-invalidates all
dependent entries.  Explicit hooks are also provided: call
:func:`invalidate_tensor` after out-of-band structural surgery on a
tensor, or :func:`clear_caches` to drop everything (tests use this for
isolation).  The cache is a *size-aware* LRU: every entry is charged
an estimated byte cost (the pieces and partition subsets of the compiled
artifact) and the least-recently-used entries are evicted once the
byte budget (:func:`set_cache_budget`) is exceeded.  Entries
hold strong references to their tensors, which keeps ``id``-based keys
unambiguous (an id can only be reused after the entry — and thus the
reference — is evicted).

Persistence
-----------
:mod:`repro.core.store` serializes cache entries next to packed tensors so
a fresh process warm-starts to the amortized regime.
:func:`iter_kernel_entries` exposes the live kernel entries for export;
on import the store re-keys them under the new process's object identities
and calls :func:`store_kernel` as usual.

The :func:`caches_disabled` context manager forces the uncached paths for
the code the *calling thread* runs inside the block.  It is thread-local
— a nesting depth per thread, no shared flag to save and restore — so a
serving worker inside one leaves the other threads hitting and storing,
and overlapping blocks cannot leave the process disabled.

Thread safety
-------------
Every cache tier is safe for concurrent in-process use: each
:class:`_SizedLRU` serializes its own map/accounting mutations behind a
per-instance ``RLock`` (the in-process mirror of the cross-process
advisory ``flock`` the artifact store holds over ``index.json``).  The
discipline — every mutation of a shared cache structure happens
lexically inside a ``with <lock>:`` block — is enforced statically by
``tools/lock_check.py``, which runs in the tier-1 suite.  Cross-call races (two threads compiling
the same schedule and both storing) stay benign: puts are idempotent for
equal keys and byte accounting is exact either way.  *Deduplicating* that
duplicate work is the serving layer's job (:mod:`repro.api.serving`
single-flights compiles/autotunes per fingerprint).
"""
from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..legion.index_space import ArraySubset
from ..taco.expr import Access, Add, Assignment, Literal, Mul
from ..taco.schedule import FuseRel, PosRel, Schedule, SplitRel

__all__ = [
    "kernel_fingerprint",
    "statement_key",
    "lookup_kernel",
    "store_kernel",
    "iter_aot_entries",
    "iter_kernel_entries",
    "invalidate_tensor",
    "clear_caches",
    "cache_stats",
    "set_cache_budget",
    "cache_budgets",
    "caches_enabled",
    "caches_disabled",
]

MiB = 1024 * 1024
#: Default byte budgets.  These bound what the *caches* pin beyond the
#: tensors the user already holds: compiled-kernel scaffolding and the
#: partition subsets (index arrays for irregular colors) a kernel keeps.
_KERNEL_CACHE_BUDGET = 64 * MiB
#: Entry-count backstop so a flood of tiny entries cannot balloon the
#: key/bookkeeping overhead past the byte accounting.
_KERNEL_CACHE_MAX_ENTRIES = 512

#: per-thread nesting depth of :func:`caches_disabled` blocks.
_disabled_here = threading.local()


class Unfingerprintable(Exception):
    """Raised when a schedule contains content the fingerprint cannot
    canonicalize; the caller falls back to an uncached compile."""


class _SizedLRU:
    """A byte-budgeted LRU map with hit/miss/eviction counters.

    Every entry carries an estimated byte cost; :meth:`put` evicts from the
    least-recently-used end until the total fits ``budget_bytes`` (and the
    entry count fits ``max_entries``).  The entry being inserted is never
    evicted, so a single oversized entry still caches — run-many workloads
    over one huge tensor must not silently lose their only entry.

    Thread-safe: every method but :meth:`peek` (one atomic dict read)
    serializes on the instance ``RLock`` (a reentrant lock so eviction
    inside ``put`` may run arbitrary entry destructors that read the
    cache).  ``items`` snapshots under the lock and yields outside it, so
    export iteration never holds the lock across caller work.
    """

    def __init__(self, budget_bytes: int, max_entries: int):
        self._lock = threading.RLock()
        self.budget_bytes = int(budget_bytes)
        self.max_entries = int(max_entries)
        self._map: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            try:
                value, _ = self._map[key]
            except KeyError:
                self.misses += 1
                return None
            self._map.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """:meth:`get` without counting or LRU movement."""
        entry = self._map.get(key)
        return None if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        with self._lock:
            nbytes = max(int(nbytes), 1)
            old = self._map.pop(key, None)
            if old is not None:
                self.total_bytes -= old[1]
            self._map[key] = (value, nbytes)
            self.total_bytes += nbytes
            while len(self._map) > 1 and (
                self.total_bytes > self.budget_bytes
                or len(self._map) > self.max_entries
            ):
                _, (_, dropped) = self._map.popitem(last=False)
                self.total_bytes -= dropped
                self.evictions += 1

    def resize(self, budget_bytes: int) -> None:
        with self._lock:
            self.budget_bytes = int(budget_bytes)
            while len(self._map) > 1 and self.total_bytes > self.budget_bytes:
                _, (_, dropped) = self._map.popitem(last=False)
                self.total_bytes -= dropped
                self.evictions += 1

    def drop_if(self, pred) -> int:
        with self._lock:
            doomed = [k for k, (v, _) in self._map.items() if pred(k, v)]
            for k in doomed:
                self.total_bytes -= self._map.pop(k)[1]
            return len(doomed)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        with self._lock:
            snapshot = [(k, v) for k, (v, _) in self._map.items()]
        return iter(snapshot)

    def clear(self) -> None:
        with self._lock:
            self._map.clear()
            self.total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)


_kernel_cache = _SizedLRU(_KERNEL_CACHE_BUDGET, _KERNEL_CACHE_MAX_ENTRIES)


# --------------------------------------------------------------------------- #
# entry byte accounting
# --------------------------------------------------------------------------- #
def _subset_nbytes(subset) -> int:
    """Estimated bytes a partition color's subset pins beyond the tensor."""
    if subset is None:
        return 0
    if isinstance(subset, ArraySubset):
        return int(subset.indices().nbytes) + 64  # nnz: ok the array it holds, no copy
    return 64  # RectSubset / EMPTY: a handful of ints


def _legion_partition_nbytes(part) -> int:
    if part is None:
        return 0
    if part.bounds is not None:  # every piece a rect
        return 64 * part.n_colors + 64
    return sum(_subset_nbytes(s) for s in part.subsets.values()) + 64


def kernel_entry_nbytes(kernel) -> int:
    """Estimated bytes a compiled-kernel cache entry holds: its scaffolding,
    its pieces and the partitions it derived."""
    total = 1024  # schedule, plan, roles, closures
    total += 256 * len(getattr(kernel, "pieces", ()))
    for part in getattr(kernel, "parts", {}).values():
        total += 256  # dataclass scaffolding, colors list
        for p in (*part.level_positions, *part.level_pos_parts, part.vals_part):
            total += _legion_partition_nbytes(p)
    # An assembling kernel's plan (built on its first execute): a scatter
    # index per summed entry and at most as many merged coordinates.
    total += 16 * sum(a.tensor.nnz for a in getattr(kernel, "operands", ()))
    return total


# --------------------------------------------------------------------------- #
# enable / disable
# --------------------------------------------------------------------------- #
def caches_enabled() -> bool:
    """Whether lookups and stores on the calling thread reach the caches."""
    return not getattr(_disabled_here, "depth", 0)


@contextlib.contextmanager
def caches_disabled():
    """Force uncached compilation (seed behavior) for what the calling
    thread runs inside the block; other threads are unaffected."""
    _disabled_here.depth = getattr(_disabled_here, "depth", 0) + 1
    try:
        yield
    finally:
        _disabled_here.depth -= 1


def set_cache_budget(kernel_bytes: Optional[int] = None) -> None:
    """Set the byte budget of the kernel cache.

    Shrinking the budget evicts LRU entries immediately.  Pass ``None`` to
    leave it unchanged.  See ``docs/caching.md`` for tuning guidance.
    """
    if kernel_bytes is not None:
        _kernel_cache.resize(kernel_bytes)


def cache_budgets() -> Dict[str, int]:
    return {"kernel_bytes": _kernel_cache.budget_bytes}


# --------------------------------------------------------------------------- #
# canonical fingerprints
# --------------------------------------------------------------------------- #
class _Canon:
    """Canonicalizes tensors and index variables by first appearance, so
    structurally identical schedules built from fresh objects coincide."""

    def __init__(self):
        self.tensors: List[Any] = []
        self._tensor_tokens: Dict[int, int] = {}
        self._var_tokens: Dict[int, int] = {}

    def tensor(self, t) -> int:
        tok = self._tensor_tokens.get(id(t))
        if tok is None:
            tok = len(self.tensors)
            self._tensor_tokens[id(t)] = tok
            self.tensors.append(t)
        return tok

    def var(self, v) -> int:
        tok = self._var_tokens.get(id(v))
        if tok is None:
            tok = len(self._var_tokens)
            self._var_tokens[id(v)] = tok
        return tok

    def expr(self, e) -> Tuple:
        if isinstance(e, Access):
            return ("A", self.tensor(e.tensor), tuple(self.var(v) for v in e.indices))
        if isinstance(e, Mul):
            return ("*",) + tuple(self.expr(o) for o in e.operands)
        if isinstance(e, Add):
            return ("+",) + tuple(self.expr(o) for o in e.operands)
        if isinstance(e, Literal):
            return ("L", e.value)
        raise Unfingerprintable(f"cannot fingerprint {type(e).__name__}")


def _tensor_state(t) -> Tuple:
    return (t.pattern_version, t.shape, t.format.signature, t.dtype.str)


def _assembled_output_state(t) -> Tuple:
    """Tensor state of an *assembled* output (SpAdd-style unknown pattern).

    Executing such a statement installs a new level structure, and bumps
    the output's ``pattern_version``, whenever the merged pattern is not the
    one it holds — the version the kernel *produces*, not one it consumes.
    Keying the fingerprint on it would make ``A = B + C + D`` recompile (and
    re-record its mapping traces) after every such install — each
    iteration of ``A = B + A`` while A grows; the output pattern is
    versioned separately
    (``Tensor.assembly_version``) and excluded here.  Shape, format and
    dtype still participate: those the compiled kernel does assume.
    """
    return ("out", t.shape, t.format.signature, t.dtype.str)


def is_assembled_output(asg: Assignment) -> bool:
    """True when the statement assembles its sparse output's pattern from
    its operands': a sum of accesses aligned with a sparse LHS.  This is the single
    source of truth for the SpAdd shape — ``repro.core.kernelspec.classify``
    calls it to pick the spadd lowering, and :func:`kernel_fingerprint`
    calls it to exclude the LHS pattern version, so the two can never
    drift (a statement lowered as spadd is always fingerprinted as one)."""
    lhs, rhs = asg.lhs, asg.rhs
    if not isinstance(rhs, Add) or lhs.tensor.format.is_all_dense():
        return False
    ops = rhs.operands
    return len(ops) >= 2 and all(
        isinstance(o, Access) and o.indices == lhs.indices for o in ops
    )


def statement_key(asg: Assignment, machine) -> Tuple:
    """:func:`kernel_fingerprint` without the schedule (``Session.compile``'s
    front-door key, and the key a session keeps a tuned winner under).
    Raises :class:`Unfingerprintable` like it."""
    return _fingerprint(asg, machine, None)


def kernel_fingerprint(schedule: Schedule, machine) -> Tuple:
    """The canonical cache key of ``compile_kernel(schedule, machine)``:
    the canonical statement with the schedule's structure — or, for a
    synthesized schedule, its ``synthesis_key`` — the tensors' identities
    and states, and the machine signature.

    Raises :class:`Unfingerprintable` for schedule content outside the
    canonical forms (callers then compile uncached).
    """
    return _fingerprint(schedule.assignment, machine, schedule)


def _fingerprint(asg: Assignment, machine, schedule: Optional[Schedule]) -> Tuple:
    canon = _Canon()
    # A pipeline-synthesized statement carries an explicit kernel class
    # (repro.core.passes fusion); the marker keeps it from colliding with
    # a textually identical statement lowered through the generic engine.
    fused = getattr(asg, "fused_class", None)
    sig = (
        "=", canon.expr(asg.lhs), canon.expr(asg.rhs), asg.accumulate,
        None if fused is None else fused.kind,
    )
    if schedule is not None:
        # A synthesized schedule is keyed by what synthesized it: its
        # structure is a function of the statement and that key alone.
        synthesized = schedule.synthesis_key
        sig = (sig, synthesized) if synthesized is not None else \
            _schedule_signature(canon, sig, schedule)
    tensor_ids = tuple(id(t) for t in canon.tensors)
    assembled = None
    if is_assembled_output(asg):
        # The LHS pattern version is excluded for every assembled statement,
        # including the aliased forms (``A = B + A``, and the ``accumulate``
        # sugar): the assembly plan re-merges whenever the aliased operand's
        # version moved, and execution takes its values before an install
        # (see the assembly steps of ``CompiledKernel.launches``), so the
        # compiled kernel never reads through a stale structure and each
        # re-assembly can reuse the kernel and replay its mapping traces.
        assembled = asg.lhs.tensor
    tensor_states = tuple(
        _assembled_output_state(t) if t is assembled else _tensor_state(t)
        for t in canon.tensors
    )
    return (sig, tensor_ids, tensor_states, machine.signature)


def _schedule_signature(canon: _Canon, stmt: Tuple, schedule: Schedule) -> Tuple:
    rels = []
    for rel in schedule.relations:
        if isinstance(rel, SplitRel):
            rels.append(("split", canon.var(rel.parent), canon.var(rel.outer),
                         canon.var(rel.inner), rel.factor, rel.is_divide))
        elif isinstance(rel, FuseRel):
            rels.append(("fuse", canon.var(rel.a), canon.var(rel.b),
                         canon.var(rel.fused)))
        elif isinstance(rel, PosRel):
            rels.append(("pos", canon.var(rel.coord_var), canon.var(rel.pos_var),
                         canon.expr(rel.access)))
        else:
            raise Unfingerprintable(f"unknown relation {type(rel).__name__}")
    return (
        stmt,
        tuple(rels),
        tuple(canon.var(v) for v in schedule.loop_order),
        tuple(canon.var(v) for v in schedule.distributed),
        tuple((canon.var(v), u.value) for v, u in schedule.parallelized.items()),
        tuple(
            (canon.var(v), tuple(canon.tensor(t) for t in ts))
            for v, ts in schedule.communicated.items()
        ),
        tuple(
            (canon.expr(e), canon.var(i), canon.var(iw),
             canon.tensor(w) if w is not None else None)
            for e, i, iw, w in schedule.precomputed
        ),
    )


# --------------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------------- #
def lookup_kernel(key: Tuple):
    """Return the cached :class:`CompiledKernel` for ``key``, or None."""
    if not caches_enabled():
        return None
    entry = _kernel_cache.get(key)
    return None if entry is None else entry[0]


def peek_kernel(key: Tuple):
    """:func:`lookup_kernel` without counting or LRU movement."""
    entry = _kernel_cache.peek(key) if caches_enabled() else None
    return None if entry is None else entry[0]


def store_kernel(key: Tuple, kernel, tensors: List[Any]) -> None:
    """Store a compiled kernel; ``tensors`` pins the identities in the key."""
    if not caches_enabled():
        return
    kernel.cache_key = key
    _kernel_cache.put(key, (kernel, tuple(tensors)), kernel_entry_nbytes(kernel))


def iter_kernel_entries() -> Iterator[Tuple[Tuple, Any, Tuple]]:
    """Yield every live kernel entry as ``(key, kernel, pinned_tensors)``
    (LRU order, oldest first).  Used by :mod:`repro.core.store` to export
    the cache next to packed tensors."""
    for key, (kernel, tensors) in _kernel_cache.items():
        yield key, kernel, tensors


def iter_aot_entries() -> Iterator[Tuple[Tuple[str, str], Any]]:
    """Yields nothing: no leaf is generated.  perfbench's
    ``codegen.aot_source_bytes`` and ``analysis.sanitizer.verify_s`` rows
    walk it; retiring them deletes it."""
    return iter(())


# --------------------------------------------------------------------------- #
# invalidation hooks
# --------------------------------------------------------------------------- #
def invalidate_tensor(tensor) -> int:
    """Drop every cache entry that references ``tensor``.

    Pattern bumps already self-invalidate (keys embed the version); this is
    the explicit hook for out-of-band structural surgery.  Returns the
    number of entries dropped.
    """
    tid = id(tensor)
    return _kernel_cache.drop_if(lambda k, v: tid in k[1])


def clear_caches() -> None:
    """Drop all kernel entries (e.g. between tests)."""
    _kernel_cache.clear()


def cache_stats() -> Dict[str, int]:
    return {
        "kernel_entries": len(_kernel_cache),
        "kernel_hits": _kernel_cache.hits,
        "kernel_misses": _kernel_cache.misses,
        "kernel_bytes": _kernel_cache.total_bytes,
        "kernel_evictions": _kernel_cache.evictions,
        # read 0: perfbench's core.cache.partition_hit_ratio and
        # aot_hit_ratio rows read them, and retiring those deletes them
        "partition_hits": 0,
        "partition_misses": 0,
        "aot_entries": 0,
        "aot_hits": 0,
        "aot_misses": 0,
    }
