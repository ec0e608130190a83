"""Compile-once / run-many caches (the amortization layer of the paper).

SpDISTAL's headline wins come from paying the cost of sparse-tensor
partitioning once and amortizing it over the many executions of an
iterative workload (SpMV inside CG, MTTKRP inside ALS — paper §VI).  This
module provides the two compiler-side layers of that amortization (the
runtime-side mapping-trace replay lives in
:mod:`repro.legion.runtime`):

* **Kernel cache** — :func:`repro.core.compile_kernel` is memoized behind
  :func:`lookup_kernel` / :func:`store_kernel`.  The key is a *canonical
  fingerprint* of the schedule (statement structure with tensors and index
  variables canonicalized by first appearance, loop order, provenance
  relations, distribution variables, piece counts, parallel units) plus
  each tensor's identity, shape, format, dtype and ``pattern_version``,
  plus a structural machine signature.  Rebuilding an identical schedule —
  even with fresh :class:`~repro.taco.index_vars.IndexVar` objects —
  therefore hits.

* **Partition memo** — coordinate-tree partitions
  (:func:`repro.core.partitioner.partition_tensor`) and dense bound
  partitions are memoized per ``(tensor, pattern_version, level, kind,
  bounds)``.  Mutating a tensor's *values* does not change its
  ``pattern_version``, so re-compiles and re-executes over updated values
  reuse the partitions; re-packing (a structural change) bumps the version
  and the stale entries simply never hit again.

* **Decision table** — :meth:`repro.api.session.Session.autotune` records
  which schedule family won for a statement under
  :func:`decision_fingerprint` — a *stable* digest of the bare statement
  structure, each tensor's pattern stats (shape, format, dtype, nnz, row
  skew bucket — not its exact pattern) and the machine signature.  Later
  auto-scheduled compiles of the same statement family replay the winning
  strategy without a search, and because the keys carry no process-local
  ids the table persists verbatim through :mod:`repro.core.store`.

* **Generated-module table** — one generated leaf module per lowering
  template ``(iteration shape, strategy)``, built by :mod:`repro.codegen`
  through :func:`aot_entry`.  Code depends on nothing else, so the table
  holds at most the 11 templates the kernel table declares: a plain dict
  under a lock — no budget, no eviction, no persistence.

Invalidation
------------
Keys embed ``Tensor.pattern_version``; a pattern bump self-invalidates all
dependent entries.  Explicit hooks are also provided: call
:func:`invalidate_tensor` after out-of-band structural surgery on a
tensor, or :func:`clear_caches` to drop everything (tests use this for
isolation).  The three caches are *size-aware* LRUs: every entry is charged
an estimated byte cost (the partition subsets and plan statements it pins,
plus, for kernels, the pieces and partitions of the compiled artifact) and
the least-recently-used entries are evicted once the cache's byte budget
(:func:`set_cache_budget`) is exceeded.  Entries hold strong references to
their tensors, which keeps ``id``-based keys unambiguous (an id can only
be reused after the entry — and thus the reference — is evicted).

Persistence
-----------
:mod:`repro.core.store` serializes cache entries next to packed tensors so
a fresh process warm-starts to the amortized regime.
:func:`iter_kernel_entries` / :func:`iter_partition_entries` expose the
live entries for export; on import the store re-keys them under the new
process's object identities and calls :func:`store_kernel` /
:func:`store_partition` as usual.

Use :func:`set_cache_enabled` to force the uncached paths process-wide
(e.g. when benchmarking the seed behavior), or the :func:`caches_disabled`
context manager to force them for the code the *calling thread* runs
inside the block.  The context manager is thread-local — a nesting depth
per thread, no shared flag to save and restore — because
``compile_kernel(..., use_cache=False)`` enters it on whatever serving
worker happens to compile: other threads keep hitting and storing, and
overlapping blocks cannot leave the process disabled.

Thread safety
-------------
Every cache tier is safe for concurrent in-process use: each
:class:`_SizedLRU` serializes its own map/accounting mutations behind a
per-instance ``RLock`` (the in-process mirror of the cross-process
advisory ``flock`` the artifact store holds over ``index.json``), and the
generated-module table holds a module lock.  The discipline — every
mutation of a shared cache structure happens lexically inside a ``with
<lock>:`` block — is enforced statically by ``tools/lock_check.py``,
which runs in the tier-1 suite.  Cross-call races (two threads compiling
the same schedule and both storing) stay benign: puts are idempotent for
equal keys and byte accounting is exact either way.  *Deduplicating* that
duplicate work is the serving layer's job (:mod:`repro.api.serving`
single-flights compiles/autotunes per fingerprint).
"""
from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..legion.index_space import ArraySubset
from ..taco.expr import Access, Add, Assignment, Literal, Mul
from ..taco.schedule import FuseRel, PosRel, Schedule, SplitRel

__all__ = [
    "kernel_fingerprint",
    "lookup_kernel",
    "store_kernel",
    "lookup_partition",
    "store_partition",
    "partition_cache_key",
    "dense_partition_cache_key",
    "decision_fingerprint",
    "lookup_decision",
    "store_decision",
    "aot_entry",
    "iter_aot_entries",
    "iter_kernel_entries",
    "iter_partition_entries",
    "iter_decision_entries",
    "invalidate_tensor",
    "clear_caches",
    "cache_stats",
    "set_cache_budget",
    "cache_budgets",
    "set_cache_enabled",
    "caches_enabled",
    "caches_disabled",
]

MiB = 1024 * 1024
#: Default byte budgets.  These bound what the *caches* pin beyond the
#: tensors the user already holds: partition subsets (index arrays for
#: irregular colors), plan statements and compiled-kernel scaffolding.
_KERNEL_CACHE_BUDGET = 64 * MiB
_PARTITION_CACHE_BUDGET = 128 * MiB
#: Autotune decisions are a few hundred bytes each; 1 MiB holds thousands.
_DECISION_CACHE_BUDGET = 1 * MiB
#: Entry-count backstops so a flood of tiny entries cannot balloon the
#: key/bookkeeping overhead past the byte accounting.
_KERNEL_CACHE_MAX_ENTRIES = 512
_PARTITION_CACHE_MAX_ENTRIES = 4096
_DECISION_CACHE_MAX_ENTRIES = 4096

_enabled = True
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

    Thread-safe: every method serializes on the instance ``RLock`` (a
    reentrant lock so eviction inside ``put`` may run arbitrary entry
    destructors that read the cache).  ``items`` snapshots under the lock
    and yields outside it, so export iteration never holds the lock across
    caller work.
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
_partition_cache = _SizedLRU(_PARTITION_CACHE_BUDGET, _PARTITION_CACHE_MAX_ENTRIES)
_decision_cache = _SizedLRU(_DECISION_CACHE_BUDGET, _DECISION_CACHE_MAX_ENTRIES)

#: The generated-module table: template key -> entry.  ``_AOT_LOCK`` guards
#: it and its hit/miss counters; ``clear_caches`` drops it with the LRUs.
_AOT_LOCK = threading.RLock()
_aot_table: Dict[Tuple[str, str], Any] = {}
_aot_counters: Dict[str, int] = {"hits": 0, "misses": 0}


# --------------------------------------------------------------------------- #
# entry byte accounting
# --------------------------------------------------------------------------- #
def _subset_nbytes(subset) -> int:
    """Estimated bytes a partition color's subset pins beyond the tensor."""
    if subset is None:
        return 0
    if isinstance(subset, ArraySubset):
        return int(subset.indices().nbytes) + 64
    return 64  # RectSubset / EMPTY: a handful of ints


def _legion_partition_nbytes(part) -> int:
    if part is None:
        return 0
    return sum(_subset_nbytes(s) for s in part.subsets.values()) + 64


def partition_entry_nbytes(partition, plan_stmts=()) -> int:
    """Estimated bytes a :class:`TensorPartition` memo entry holds."""
    total = 256  # dataclass scaffolding, colors list
    for p in partition.level_positions:
        total += _legion_partition_nbytes(p)
    for p in partition.level_pos_parts:
        total += _legion_partition_nbytes(p)
    total += _legion_partition_nbytes(partition.vals_part)
    total += 128 * len(tuple(plan_stmts))
    return total


def kernel_entry_nbytes(kernel) -> int:
    """Estimated bytes a compiled-kernel cache entry holds.

    Partitions shared with the partition memo are charged to both caches;
    the double count is deliberate — either cache must stay within its own
    budget even if the other is cleared.
    """
    total = 1024  # schedule, plan, roles, closures
    total += 256 * len(getattr(kernel, "pieces", ()))
    for part in getattr(kernel, "parts", {}).values():
        total += partition_entry_nbytes(part)
    # An assembling kernel's plan (built on its first execute): a scatter
    # index per summed entry and at most as many merged coordinates.
    total += 16 * sum(a.tensor.nnz for a in getattr(kernel, "operands", ()))
    return total


# --------------------------------------------------------------------------- #
# enable / disable
# --------------------------------------------------------------------------- #
def set_cache_enabled(enabled: bool) -> None:
    global _enabled
    _enabled = bool(enabled)


def caches_enabled() -> bool:
    """Whether lookups and stores on the calling thread reach the caches."""
    return _enabled and not getattr(_disabled_here, "depth", 0)


@contextlib.contextmanager
def caches_disabled():
    """Force uncached compilation/partitioning (seed behavior) for what the
    calling thread runs inside the block; other threads are unaffected."""
    _disabled_here.depth = getattr(_disabled_here, "depth", 0) + 1
    try:
        yield
    finally:
        _disabled_here.depth -= 1


def set_cache_budget(
    kernel_bytes: Optional[int] = None,
    partition_bytes: Optional[int] = None,
    decision_bytes: Optional[int] = None,
) -> None:
    """Set the byte budgets of the kernel / partition / decision caches.

    Shrinking a budget evicts LRU entries immediately.  Pass ``None`` to
    leave a budget unchanged.  See ``docs/caching.md`` for tuning guidance.
    """
    if kernel_bytes is not None:
        _kernel_cache.resize(kernel_bytes)
    if partition_bytes is not None:
        _partition_cache.resize(partition_bytes)
    if decision_bytes is not None:
        _decision_cache.resize(decision_bytes)


def cache_budgets() -> Dict[str, int]:
    return {
        "kernel_bytes": _kernel_cache.budget_bytes,
        "partition_bytes": _partition_cache.budget_bytes,
        "decision_bytes": _decision_cache.budget_bytes,
    }


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


def _format_signature(fmt) -> Tuple:
    return (tuple(lf.is_compressed for lf in fmt.levels), fmt.mode_ordering)


def _tensor_state(t) -> Tuple:
    return (t.pattern_version, t.shape, _format_signature(t.format), t.dtype.str)


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
    return ("out", t.shape, _format_signature(t.format), t.dtype.str)


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


def kernel_fingerprint(schedule: Schedule, machine) -> Tuple:
    """The canonical cache key of ``compile_kernel(schedule, machine)``.

    Raises :class:`Unfingerprintable` for schedule content outside the
    canonical forms (callers then compile uncached).
    """
    canon = _Canon()
    asg: Assignment = schedule.assignment
    # A pipeline-synthesized statement carries an explicit kernel class
    # (repro.core.passes fusion); the marker keeps it from colliding with
    # a textually identical statement lowered through the generic engine.
    fused = getattr(asg, "fused_class", None)
    stmt = (
        "=", canon.expr(asg.lhs), canon.expr(asg.rhs), asg.accumulate,
        None if fused is None else fused.kind,
    )
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
    sched_sig = (
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
    tensor_ids = tuple(id(t) for t in canon.tensors)
    assembled = None
    if is_assembled_output(asg):
        # The LHS pattern version is excluded for every assembled statement,
        # including the aliased forms (``A = B + A``, and the ``accumulate``
        # sugar): the assembly plan re-merges whenever the aliased operand's
        # version moved, and execution takes its values before an install
        # (see ``CompiledKernel._execute_spadd``), so the compiled kernel
        # never reads through a stale structure and each re-assembly can
        # reuse the kernel and replay its mapping traces.
        assembled = asg.lhs.tensor
    tensor_states = tuple(
        _assembled_output_state(t) if t is assembled else _tensor_state(t)
        for t in canon.tensors
    )
    return (sched_sig, tensor_ids, tensor_states, machine.signature)


# --------------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------------- #
def lookup_kernel(key: Tuple):
    """Return the cached :class:`CompiledKernel` for ``key``, or None."""
    if not caches_enabled():
        return None
    entry = _kernel_cache.get(key)
    return None if entry is None else entry[0]


def store_kernel(key: Tuple, kernel, tensors: List[Any]) -> None:
    """Store a compiled kernel; ``tensors`` pins the identities in the key."""
    if not caches_enabled():
        return
    _kernel_cache.put(key, (kernel, tuple(tensors)), kernel_entry_nbytes(kernel))


def iter_kernel_entries() -> Iterator[Tuple[Tuple, Any, Tuple]]:
    """Yield every live kernel entry as ``(key, kernel, pinned_tensors)``
    (LRU order, oldest first).  Used by :mod:`repro.core.store` to export
    the cache next to packed tensors."""
    for key, (kernel, tensors) in _kernel_cache.items():
        yield key, kernel, tensors


# --------------------------------------------------------------------------- #
# partition memo
# --------------------------------------------------------------------------- #
def _sorted_items(d) -> Tuple:
    """Order-insensitive dict signature (falls back to insertion order for
    incomparable keys, which never occurs for homogeneous color dicts)."""
    try:
        return tuple(sorted(d.items()))
    except TypeError:
        return tuple(d.items())


def partition_cache_key(tensor, initial_level: int, kind: str, bounds) -> Tuple:
    return (
        id(tensor),
        tensor.pattern_version,
        "tree",
        initial_level,
        kind,
        _sorted_items(bounds),
    )


def dense_partition_cache_key(tensor, mode_bounds) -> Tuple:
    return (
        id(tensor),
        tensor.pattern_version,
        "dense",
        _sorted_items({c: _sorted_items(pm) for c, pm in mode_bounds.items()}),
    )


def lookup_partition(key: Tuple):
    """Return ``(TensorPartition, plan_stmts)`` for ``key``, or None."""
    if not caches_enabled():
        return None
    entry = _partition_cache.get(key)
    return None if entry is None else (entry[0], entry[1])


def store_partition(key: Tuple, partition, plan_stmts) -> None:
    if not caches_enabled():
        return
    stmts = tuple(plan_stmts)
    _partition_cache.put(
        key, (partition, stmts), partition_entry_nbytes(partition, stmts)
    )


def iter_partition_entries() -> Iterator[Tuple[Tuple, Any, Tuple]]:
    """Yield every live partition-memo entry as ``(key, partition,
    plan_stmts)`` (LRU order, oldest first)."""
    for key, (partition, stmts) in _partition_cache.items():
        yield key, partition, stmts


# --------------------------------------------------------------------------- #
# autotune decision table
# --------------------------------------------------------------------------- #
def _pattern_stats(t) -> Tuple:
    """Structural statistics of one tensor for the decision key.

    Distribution choice depends on the tensor *family*, not its exact
    non-zero pattern: the same statement over a re-packed matrix with the
    same shape, density and row skew should replay the tuned decision
    without a new search.  So the key deliberately excludes
    ``pattern_version`` and hashes coarse stats instead: shape, format,
    dtype, non-zero count, and a log2 *skew bucket* of the heaviest
    compressed segment relative to the mean (the statistic that separates
    rows-balanced from non-zeros-balanced mappings in the paper's Figs.
    10-12).
    """
    base = (tuple(t.shape), _format_signature(t.format), t.dtype.str, int(t.nnz))
    skew_bucket = 0
    for lvl in getattr(t, "levels", ()):
        if getattr(lvl, "pos", None) is None:
            continue
        seg = lvl.counts()  # children per parent; rect pos is inclusive
        total = int(seg.sum())
        if len(seg) and total > 0:
            ratio = float(seg.max()) * len(seg) / total
            skew_bucket = int(np.ceil(np.log2(max(ratio, 1.0))))
        break
    return base + (skew_bucket,)


def decision_fingerprint(assignment: Assignment, machine) -> str:
    """The stable (process-independent) key of one autotune decision.

    Canonicalizes the *bare statement* (no scheduling relations — the
    decision is precisely about which schedule family to synthesize), the
    per-tensor pattern stats of :func:`_pattern_stats` in canonical order,
    and the structural machine signature, then digests the result.  Two
    processes tuning the same statement shape over equal-stat tensors on
    equivalent machines agree on the key, which is what lets
    :mod:`repro.core.store` warm-start the table.  Raises
    :class:`Unfingerprintable` for expression content outside the canonical
    forms (callers then skip the table).
    """
    canon = _Canon()
    stmt = (
        "=",
        canon.expr(assignment.lhs),
        canon.expr(assignment.rhs),
        assignment.accumulate,
    )
    stats = tuple(_pattern_stats(t) for t in canon.tensors)
    blob = repr((stmt, stats, machine.signature)).encode()
    return "dt:" + hashlib.sha256(blob).hexdigest()


def has_decisions() -> bool:
    """True when the decision table holds any entry at all.

    The cheap pre-check for the auto-schedule hot path: computing a
    decision fingerprint walks each sparse tensor's ``pos`` array, which
    an iterative solver loop should not pay per statement when nothing
    was ever tuned (the common case).
    """
    return caches_enabled() and len(_decision_cache) > 0


def lookup_decision(key: str) -> Optional[Dict[str, Any]]:
    """The recorded autotune decision for ``key``, or None."""
    if not caches_enabled():
        return None
    return _decision_cache.get(key)


def store_decision(key: str, decision: Dict[str, Any]) -> None:
    """Record one autotune decision (a small JSON-able dict; at least a
    ``"strategy"`` entry).  Sized into the decision table's byte budget."""
    if not caches_enabled():
        return
    nbytes = len(key) + len(repr(decision)) + 64
    _decision_cache.put(key, dict(decision), nbytes)


def iter_decision_entries() -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield every live decision as ``(key, decision)`` (LRU order).  Keys
    are process-independent digests, so :mod:`repro.core.store` persists
    entries verbatim — no re-keying on load."""
    for key, decision in _decision_cache.items():
        yield key, dict(decision)


# --------------------------------------------------------------------------- #
# generated-module table
# --------------------------------------------------------------------------- #
def aot_entry(key: Tuple[str, str], build: Callable[[Tuple], Any]):
    """The :class:`~repro.codegen.registry.AotEntry` of template ``key``,
    calling ``build(key)`` on a miss.  The build runs under the table lock, so
    a herd missing on one key builds it exactly once and every thread gets
    the same entry.  Not gated on :func:`caches_enabled`: a module is code,
    not an amortized analysis, and is the same however often it is built."""
    with _AOT_LOCK:
        entry = _aot_table.get(key)
        if entry is None:
            _aot_counters["misses"] += 1
            entry = _aot_table[key] = build(key)
        else:
            _aot_counters["hits"] += 1
        return entry


def iter_aot_entries() -> Iterator[Tuple[Tuple[str, str], Any]]:
    """Yield every generated module built so far as ``(template key,
    entry)``; ``entry.source`` is the module's text."""
    with _AOT_LOCK:
        snapshot = list(_aot_table.items())
    return iter(snapshot)


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
    n = _partition_cache.drop_if(lambda k, v: k[0] == tid)
    n += _kernel_cache.drop_if(lambda k, v: tid in k[1])
    return n


def clear_caches() -> None:
    """Drop all kernel, partition and decision entries and every generated
    module (e.g. between tests)."""
    _kernel_cache.clear()
    _partition_cache.clear()
    _decision_cache.clear()
    with _AOT_LOCK:
        _aot_table.clear()


def cache_stats() -> Dict[str, int]:
    return {
        "kernel_entries": len(_kernel_cache),
        "kernel_hits": _kernel_cache.hits,
        "kernel_misses": _kernel_cache.misses,
        "kernel_bytes": _kernel_cache.total_bytes,
        "kernel_evictions": _kernel_cache.evictions,
        "partition_entries": len(_partition_cache),
        "partition_hits": _partition_cache.hits,
        "partition_misses": _partition_cache.misses,
        "partition_bytes": _partition_cache.total_bytes,
        "partition_evictions": _partition_cache.evictions,
        "decision_entries": len(_decision_cache),
        "decision_hits": _decision_cache.hits,
        "decision_misses": _decision_cache.misses,
        "decision_bytes": _decision_cache.total_bytes,
        "decision_evictions": _decision_cache.evictions,
        "aot_entries": len(_aot_table),
        "aot_hits": _aot_counters["hits"],
        "aot_misses": _aot_counters["misses"],
    }
