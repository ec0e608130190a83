"""The Session: one object that owns the whole SpDISTAL execution context.

The low-level API asks every caller to assemble a ``Machine``, a
``Runtime`` and (optionally) an ``ArtifactStore`` by hand — four imports
of ceremony per statement.  A :class:`Session` folds all of
that behind one context manager::

    import repro

    with repro.session(nodes=4) as s:
        B = s.tensor("B", scipy_matrix, repro.CSR)
        c = s.tensor("c", dense_vector)
        a = repro.einsum("ij,j->i", B, c, session=s)

The session owns the machine (built from ``nodes=``/``gpus=`` or passed
in), the runtime (mapping traces accumulate across every statement the
session executes) and an optional persistent artifact store for
cross-process warm starts.  The compilation caches are process-wide and
no session resizes them (``repro.core.set_cache_budget`` does).
Explicit schedules remain a per-statement *override* — anywhere the
session accepts a statement it also accepts a hand-built
:class:`~repro.taco.schedule.Schedule`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..analysis.costmodel import CostEstimate
from ..core import cache as _cache
from ..core.compiler import CompiledKernel, ExecutionResult, compile_statement
from ..core.passes import _keep_sets
from ..core.program import CompiledProgram, ProgramResult, compile_program
from ..core.store_index import ArtifactStore, content_key
from ..errors import OOMError, ScheduleError
from ..legion.machine import Machine, NodeSpec
from ..legion.network import Network
from ..legion.runtime import Runtime
from ..taco.expr import Assignment
from ..taco.formats import Format
from ..taco.schedule import Schedule
from ..taco.tensor import Tensor
from .autoschedule import _as_assignment, auto_schedule, candidate_strategies

__all__ = ["Session", "session", "AutotuneResult"]

Schedulable = Union[Schedule, Assignment, Tensor]


@dataclass
class AutotuneResult:
    """The outcome of one :meth:`Session.autotune` call.

    ``strategy`` names the winning schedule family, ``kernel`` is its
    compiled form (also held by the kernel cache), ``candidates`` holds
    every strategy's :class:`~repro.analysis.CostEstimate` (empty when the
    session's own tuned winner answered), and ``from_cache`` says whether
    the search was skipped.
    """

    strategy: str
    kernel: CompiledKernel
    candidates: List[CostEstimate] = field(default_factory=list)
    from_cache: bool = False

    @property
    def simulated_seconds(self) -> float:
        """The winner's predicted seconds (NaN on a from-cache replay)."""
        for c in self.candidates:
            if c.strategy == self.strategy:
                return c.seconds
        return float("nan")


class Session:
    """Owns machine, runtime and the optional artifact store.

    Usable as a context manager (``with repro.session(nodes=4) as s:``);
    entering and exiting are cheap.  The compilation caches are
    process-wide and a session changes nothing about them — size them
    with :func:`repro.core.set_cache_budget`.  All work submitted through
    one session executes on one runtime, so mapping traces recorded by
    statement N replay for statement N+k — the compile-once / run-many
    layers span the session.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        *,
        nodes: Optional[int] = None,
        gpus: Optional[int] = None,
        node: Optional[NodeSpec] = None,
        network: Optional[Network] = None,
        runtime: Optional[Runtime] = None,
        store: Optional[Union[str, Path, ArtifactStore]] = None,
    ):
        if runtime is not None:
            # Adopt an existing runtime (e.g. one restored from the
            # artifact store, mapping traces included); the session's
            # machine is the runtime's, and the runtime keeps the network
            # it was built with — passing either here would be silently
            # ignored, so it is an error, like the machine-family conflict.
            conflicts = {
                "machine": machine, "nodes": nodes, "gpus": gpus,
                "node": node, "network": network,
            }
            clashing = [k for k, v in conflicts.items() if v is not None]
            if clashing:
                raise ValueError(
                    f"runtime= already carries {', '.join(clashing)}; "
                    "pass either runtime= or those options, not both"
                )
            self.machine = runtime.machine
            self.runtime = runtime
        else:
            if machine is not None and (nodes is not None or gpus is not None):
                raise ValueError("pass either machine= or nodes=/gpus=, not both")
            if machine is None:
                spec = node if node is not None else NodeSpec()
                if gpus is not None:
                    machine = Machine.gpu(gpus, spec)
                else:
                    machine = Machine.cpu(nodes if nodes is not None else 1, spec)
            self.machine = machine
            self.runtime = Runtime(machine, network)
        if store is None or isinstance(store, ArtifactStore):
            self.store: Optional[ArtifactStore] = store
        else:
            self.store = ArtifactStore(store)
        self._pending = None  # implicit Program fed by define()
        #: Content-keyed packing memo (see :meth:`packed_operand`): digest
        #: of the raw operand → the packed Tensor, so repeated calls over
        #: equal raw data reuse one tensor *identity* and the kernel cache,
        #: whose fingerprints are identity-keyed, hits.  An LRU of 256
        #: entries, like the front-door table below, cleared by :meth:`close`.
        self._packed_memo = _cache._SizedLRU(_cache.MiB, 256)
        #: einsum output-tensor memo: statement signature → (operand
        #: tensors, output tensor).  Holding the operands pins their ids
        #: so a recycled id can never alias a stale key; 256 entries too.
        self._einsum_out_memo = _cache._SizedLRU(_cache.MiB, 256)
        #: The :class:`ExecutionResult` of the session's most recent
        #: single-statement execution (``execute``/``einsum``).
        self.last_result: Optional[ExecutionResult] = None
        #: :meth:`compile`'s front-door table (256 entries): key →
        #: (kernel-cache keys, reused_from, passes, origin); pins no tensor.
        #: :meth:`autotune` keeps its winners here too, under the bare
        #: :func:`~repro.core.cache.statement_key` (a 4-tuple; a compile's
        #: key is a 7-tuple) → the winner's kernel-cache key.
        self._frontdoor = _cache._SizedLRU(_cache.MiB, 256)
        #: Whether :meth:`autotune` ever recorded a winner here: an
        #: untuned session's compiles compute no statement key for it.
        self._tuned = False

    # ------------------------------------------------------------------ #
    # context management
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """End the session (idempotent): drop its front-door table and its
        einsum memos.  A session holds no process-wide state, and none
        holds its runtime (a cached kernel remembers the runtimes it placed
        on weakly), so the runtime goes with the session; ``with`` blocks
        and ``Server.close()`` end their sessions here."""
        for table in (self._frontdoor, self._packed_memo, self._einsum_out_memo):
            table.clear()
        self._tuned = False

    # ------------------------------------------------------------------ #
    # tensor construction sugar
    # ------------------------------------------------------------------ #
    def tensor(self, name: str, data, format: Optional[Format] = None) -> Tensor:
        """Pack ``data`` into a named tensor: accepts a SciPy sparse
        matrix or a NumPy array / array-like.  With no ``format`` a SciPy
        sparse matrix packs sparse (CSC for ``csc_matrix``, CSR otherwise
        — :meth:`Tensor.scipy_format`) and an array packs dense.  An
        already packed
        :class:`Tensor` passes through unchanged (its existing name is
        kept); asking for a *different* format than the packed one is an
        error rather than a silent no-op — repack explicitly via
        ``Tensor.from_coo(...)`` to convert."""
        if isinstance(data, Tensor):
            if format is not None and format != data.format:
                raise ValueError(
                    f"{data.name} is already packed as {data.format.name}; "
                    f"it cannot pass through as {format.name} — repack it "
                    "to convert formats"
                )
            return data
        if hasattr(data, "tocoo"):  # scipy sparse
            return Tensor.from_scipy(name, data, format)
        return Tensor.from_dense(name, np.asarray(data), format)

    def packed_operand(self, name: str, data,
                       format: Optional[Format] = None) -> Tensor:
        """Like :meth:`tensor`, but memoized by raw-operand *content*.

        Two calls with equal raw operands — same name, format, shape,
        dtype and bytes — return the *same* packed :class:`Tensor`
        object.  Every amortization layer downstream keys on tensor
        identity (kernel fingerprints, mapping traces), so this is what lets a repeated ``einsum`` over the same
        raw arrays compile **zero** new kernels.  Operands whose content
        cannot be digested (already packed tensors pass through; exotic
        array-likes fall back) just pack fresh, exactly as
        :meth:`tensor` would.
        """
        if isinstance(data, Tensor):
            return self.tensor(name, data, format)
        key = self._content_key(name, data, format)
        if key is None:
            return self.tensor(name, data, format)
        hit = self._packed_memo.get(key)
        if hit is not None:
            return hit
        t = self.tensor(name, data, format)
        self._packed_memo.put(key, t, 1)
        return t

    @staticmethod
    def _content_key(name: str, data, format: Optional[Format]) -> Optional[str]:
        """A content digest of a raw operand, or None when undigestable.

        SciPy matrices use the store index's operand digest (name +
        the format they pack into + CSR arrays); dense arrays hash name +
        format + shape + dtype + bytes.
        """
        if hasattr(data, "tocoo"):  # scipy sparse
            if format is None:
                format = Tensor.scipy_format(data)
            return "sp:" + content_key(name, format, data)
        try:
            arr = np.asarray(data)
        except Exception:
            return None
        if arr.dtype.hasobject:
            return None
        h = hashlib.sha256()
        h.update(repr((
            name, format.name if format is not None else None,
            arr.shape, arr.dtype.str,
        )).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
        return "np:" + h.hexdigest()

    def from_coo(self, name: str, coords, vals, shape,
                 format: Optional[Format] = None) -> Tensor:
        """Pack COO coordinates/values (see :meth:`Tensor.from_coo`)."""
        return Tensor.from_coo(name, coords, vals, shape, format)

    def zeros(self, name: str, shape: Sequence[int],
              format: Optional[Format] = None, dtype=np.float64) -> Tensor:
        """An output tensor (see :meth:`Tensor.zeros`)."""
        return Tensor.zeros(name, shape, format, dtype)

    # ------------------------------------------------------------------ #
    # scheduling / compilation
    # ------------------------------------------------------------------ #
    def schedule_for(self, target: Schedulable, **kw) -> Schedule:
        """The schedule the session will use for ``target``: an explicit
        :class:`Schedule` passes through; anything else is auto-scheduled
        for the session's machine (see :func:`repro.api.auto_schedule`).

        When this session's :meth:`autotune` picked a winner for the
        statement in its current state (same tensors, patterns and
        machine), that strategy is synthesized instead of the paper's
        static default, while the kernel cache still holds the winner.
        """
        if isinstance(target, Schedule):
            return target
        asg = _as_assignment(target)
        won = None if "strategy" in kw else self._winner(asg)
        return self._synthesize(asg, won, **kw)

    def _synthesize(self, asg: Assignment, won: Optional[CompiledKernel],
                    **kw) -> Schedule:
        if won is not None:
            try:
                return auto_schedule(asg, self.machine, strategy=won.strategy, **kw)
            except ScheduleError:
                # The recorded winner cannot be built under these
                # options (e.g. a tuned 'grid' with a non-square
                # pieces= override): a tuned session must never turn
                # a previously valid call into an error — fall back
                # to the static default synthesis.
                pass
        return auto_schedule(asg, self.machine, **kw)

    def _winner(self, asg: Assignment) -> Optional[CompiledKernel]:
        """The kernel :meth:`autotune` picked for ``asg`` in its current
        state, while the kernel cache holds it (the front door's rule: a
        live kernel pins its tensors, so no recycled ``id()`` matches)."""
        if not self._tuned:
            return None  # untuned session: skip the statement key
        try:
            kernel_key = self._frontdoor.peek(
                _cache.statement_key(asg, self.machine))
        except _cache.Unfingerprintable:
            return None
        return None if kernel_key is None else _cache.peek_kernel(kernel_key)

    def _remember(self, asg: Assignment, winner: CompiledKernel) -> None:
        """Record ``winner`` as ``asg``'s tuned kernel under the
        statement's current key."""
        if winner.cache_key is None:
            return  # uncached: nothing a replay could find
        try:
            key = _cache.statement_key(asg, self.machine)
        except _cache.Unfingerprintable:
            return
        self._frontdoor.put(key, winner.cache_key, 256)
        self._tuned = True

    def compile(self, *targets: Schedulable, use_cache: bool = True,
                cse: bool = True, fold: bool = True, dse: bool = True,
                fuse: bool = True, keep=None) -> CompiledProgram:
        """Compile one or more statements together as a program.

        Each target is a :class:`Schedule` (explicit mapping), an
        :class:`Assignment`, or a :class:`Tensor` carrying one (both
        auto-scheduled).  The pass pipeline (:mod:`repro.core.passes`)
        runs first — ``fold``/``dse``/``fuse`` disable individual passes,
        ``keep=`` pins tensors that must stay materialized.  Shared
        operands' partitions are derived once across the program, and
        with ``cse`` (default) identical repeated statements execute once
        per pass (see :func:`repro.core.program.compile_program`).

        A repeated call is one lookup in the session's front-door table
        (``docs/caching.md``); an evicted kernel misses it.
        """
        flags = dict(cse=cse, fold=fold, dse=dse, fuse=fuse, keep=keep)
        plans = []  # (target, assignment, tuned winner or None)
        for t in targets:
            explicit = isinstance(t, Schedule)
            asg = t.assignment if explicit else _as_assignment(t)
            plans.append((t, asg, None if explicit else self._winner(asg)))
        key = use_cache and _cache.caches_enabled() and self._frontdoor_key(
            plans, flags)
        hit = key and self._frontdoor_hit(key)
        if hit:
            return hit
        tensors = [t for _, asg, _ in plans for t in asg.tensors()]
        versions = [t.pattern_version for t in tensors]
        cp = compile_program(
            [t if isinstance(t, Schedule) else self._synthesize(asg, won)
             for t, asg, won in plans],
            self.machine, use_cache=use_cache, **flags,
        )
        primaries = tuple(ck.cache_key for ck in cp.kernels)
        if key and None not in primaries:
            # Compiling may adopt an input's pattern into an output (a
            # version bump): record under the post-compile key, and keep
            # each tuned winner under its statement's new key too.
            if versions != [t.pattern_version for t in tensors]:
                key = self._frontdoor_key(plans, flags)
                for _, asg, won in plans:
                    if won is not None:
                        self._remember(asg, won)
            self._frontdoor.put(key, (primaries, tuple(cp.reused_from), tuple(
                cp.passes), tuple(cp.origin)), 256 * len(primaries))
        return cp

    def _frontdoor_key(self, plans, flags) -> Optional[tuple]:
        try:
            parts = tuple(
                _cache.kernel_fingerprint(t, self.machine)
                if isinstance(t, Schedule)
                else (_cache.statement_key(asg, self.machine),
                      won and won.strategy)
                for t, asg, won in plans
            )
        except _cache.Unfingerprintable:
            return None
        # Pass records and keep= by name read tensor names.
        names = () if len(plans) < 2 else tuple(
            t.name for _, asg, _ in plans for t in asg.tensors())
        keep = tuple(map(frozenset, _keep_sets(flags["keep"])))
        return (parts, flags["cse"], flags["fold"], flags["dse"],
                flags["fuse"], keep, names)

    def _frontdoor_hit(self, key) -> Optional[CompiledProgram]:
        entry = self._frontdoor.get(key)
        if entry is None:
            return None
        primaries, reused_from, passes, origin = entry
        kernels = [_cache.peek_kernel(k) for k in primaries]
        if None in kernels:
            return None
        for k in primaries:
            _cache.lookup_kernel(k)  # the hit compile_statement would count
        return CompiledProgram(
            kernels, self.machine, reused_from, passes=passes, origin=origin
        )

    def compile_kernel(self, target: Schedulable, *,
                       use_cache: bool = True) -> CompiledKernel:
        """Compile a single statement to its :class:`CompiledKernel` (an
        explicit :class:`Schedule` skips the multi-statement passes)."""
        if isinstance(target, Schedule):
            return compile_statement(target, self.machine, use_cache=use_cache)
        return self.compile(target, use_cache=use_cache).kernels[0]

    def execute(self, target) -> ExecutionResult:
        """Compile (if needed) and run one statement on the session runtime.

        ``target`` may be anything :meth:`compile` accepts, or an already
        compiled :class:`CompiledKernel`.  Returns the execution result
        (also kept as :attr:`last_result`).
        """
        if isinstance(target, CompiledKernel):
            ck = target
        else:
            ck = self.compile_kernel(target)
        res = ck.execute(self.runtime)
        self.last_result = res
        return res

    # ------------------------------------------------------------------ #
    # autotuning
    # ------------------------------------------------------------------ #
    def autotune(
        self,
        target,
        *,
        strategies: Optional[Sequence[str]] = None,
        warm: bool = True,
    ):
        """Search the schedule-family space for ``target`` and keep the winner.

        ``target`` is an :class:`~repro.taco.expr.Assignment`, a tensor
        carrying one, or a :class:`~repro.api.program.Program` (each
        auto-scheduled statement is tuned in order; a list of results comes
        back).  Every candidate strategy — the paper's default for the
        statement's kind/machine, the alternative of rows/non-zeros, and
        the 2-D ``grid`` split for SpMM on square machine grids — is
        compiled through the kernel cache and priced by the static cost
        model (:func:`repro.analysis.predict_cost`) under the session's
        network, without executing.  The schedule and data distribution
        fix every simulated second, and for the specialized kernels the
        prediction equals an isolated trial's simulated seconds exactly,
        so the search is the model's argmin: the first strictly cheaper
        candidate that fits in memory, in pool order, so ties keep the
        paper's default.

        The winner's :class:`CompiledKernel` stays in the kernel cache, and
        the session keeps it as the statement's tuned winner under the
        statement's exact key (its tensors, their patterns and the
        machine) — later :meth:`execute`/``einsum`` calls on this session
        synthesize the winning strategy directly, and a repeat
        ``autotune`` of the same state answers with no search.  Another
        session, another tensor or a changed pattern searches afresh.
        ``strategies=`` restricts the pool for a one-off *measurement*:
        the constrained search neither answers from nor records a tuned
        winner, so it cannot become the session's policy.  With ``warm``
        (default) the winner executes once on the *session* runtime —
        searched or answered — so its mapping trace is recorded (or
        replayed) where subsequent executions use it; the result lands in
        :attr:`last_result`.  Nothing else executes.
        """
        from .program import Program

        if isinstance(target, Program):
            return [
                self.autotune(stmt.assignment, strategies=strategies, warm=warm)
                for stmt in target.statements
                if stmt.explicit_schedule is None
            ]
        asg = _as_assignment(target)
        # An explicit strategies= pool is a one-off measurement: it neither
        # answers from the tuned winner (which may be a strategy the caller
        # excluded) nor records one.
        if strategies is None and self._winner(asg) is not None:
            kernel = self.compile_kernel(asg)
            result = AutotuneResult(
                strategy=kernel.strategy, kernel=kernel, from_cache=True)
        else:
            result = self._search(asg, strategies)
        if warm:
            # Record the winner's mapping trace on the session runtime (or
            # replay a stored one) so the next execute replays instead of
            # re-analyzing.
            self.last_result = result.kernel.execute(self.runtime)
        return result

    def _search(self, asg: Assignment,
                strategies: Optional[Sequence[str]]) -> AutotuneResult:
        """Price every candidate of the pool; a full pool's cheapest
        becomes the session's tuned winner."""
        from ..analysis.costmodel import predict_cost

        pool = (
            list(strategies)
            if strategies is not None
            else candidate_strategies(asg, self.machine)
        )
        if not pool:
            raise ValueError("autotune needs at least one candidate strategy")
        candidates: List[CostEstimate] = []
        best: Optional[CostEstimate] = None
        winner: Optional[CompiledKernel] = None
        for strategy in pool:
            try:
                sched = auto_schedule(asg, self.machine, strategy=strategy)
                ck = compile_program([sched], self.machine).kernels[0]
            except ScheduleError:
                # An inapplicable candidate (e.g. 'nonzeros' with no single
                # compressed operand) just drops out of the pool.
                continue
            est = predict_cost(
                ck, network=self.runtime.network, runtime=self.runtime
            )
            candidates.append(est)
            # Strict improvement only: a tie keeps the earlier candidate,
            # and the pool lists the paper's default first.
            if est.ok and (best is None or est.seconds < best.seconds):
                best, winner = est, ck
        if best is None:
            raise OOMError(
                0, float("inf"), 0.0,
                what="autotune: every candidate strategy is predicted to OOM",
            )
        # A restricted pool measures, it does not set policy: a one-off
        # ``strategies=['nonzeros']`` probe can neither overwrite nor seed
        # what later executes replay.  The key is taken after the search:
        # a candidate compile may adopt a pattern into a sparse output.
        if strategies is None:
            self._remember(asg, winner)
        return AutotuneResult(
            strategy=best.strategy, kernel=winner, candidates=candidates)

    # ------------------------------------------------------------------ #
    # lazy programs
    # ------------------------------------------------------------------ #
    def program(self) -> "Program":
        """A new lazy multi-statement :class:`~repro.api.program.Program`
        bound to this session (usable as a ``with`` block that captures
        assignments)."""
        from .program import Program

        return Program(self)

    def define(self, target: Schedulable, *, schedule: Optional[Schedule] = None):
        """Record a statement into the session's implicit pending program.

        Returns the program :class:`~repro.api.program.Statement` handle
        (``.use_schedule(...)`` overrides the auto-schedule).  Run the
        accumulated statements with :meth:`run`.
        """
        if self._pending is None:
            self._pending = self.program()
        return self._pending.define(target, schedule=schedule)

    def run(self, program=None) -> ProgramResult:
        """Compile and execute a program (default: the statements recorded
        by :meth:`define`, which are then cleared)."""
        if program is None:
            program = self._pending
            self._pending = None
        if program is None:
            raise ValueError("no pending statements; call define() first")
        return program.run()

    # ------------------------------------------------------------------ #
    # persistence (optional artifact store)
    # ------------------------------------------------------------------ #
    def _require_store(self) -> ArtifactStore:
        if self.store is None:
            raise ValueError(
                "this session has no artifact store; pass store=<dir> to "
                "repro.session(...)"
            )
        return self.store

    def put(self, tensor: Tensor, *, keys: Sequence[str] = (), **kw) -> Path:
        """Publish a packed tensor (plus the cache entries referencing it)
        to the session's artifact store; see :meth:`ArtifactStore.put`."""
        return self._require_store().put(
            tensor, keys=keys, runtime=kw.pop("runtime", self.runtime), **kw
        )

    def load(self, key: str, **kw):
        """Load the newest artifact for ``key`` from the session's store
        (keywords pass through, e.g. ``mmap=True``)."""
        return self._require_store().load(key, **kw)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """One amortization report: compiler cache counters
        (:func:`repro.core.cache.cache_stats`) plus the runtime's
        mapping-trace counters (:meth:`Runtime.stats`)."""
        out = dict(_cache.cache_stats())
        out.update(self.runtime.stats())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Session({self.machine!r}, store="
            f"{self.store.root if self.store else None})"
        )


def session(
    machine: Optional[Machine] = None,
    *,
    nodes: Optional[int] = None,
    gpus: Optional[int] = None,
    **kw,
) -> Session:
    """Open a :class:`Session` — the primary entry point of the high-level
    API.  ``repro.session(nodes=4)`` builds a 4-node CPU machine;
    ``repro.session(gpus=8)`` a GPU machine; pass ``machine=`` for full
    control and ``store=<dir>`` to enable the persistent artifact store.
    Designed for ``with`` use, but valid without."""
    return Session(machine, nodes=nodes, gpus=gpus, **kw)
