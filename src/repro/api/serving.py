"""Multi-tenant serving: N logical tenants over one warm compile substrate.

SpDISTAL's value proposition is compile-once / run-many: schedule
synthesis, autotuning and mapping-trace replay amortize across executions.
A single :class:`~repro.api.session.Session` reaps that for one caller;
this module multiplexes *many* callers — logical tenants issuing
einsum-style requests concurrently — over a pool of pre-warmed runtimes
that share the process-wide kernel cache, partition memo and decision
table and the bind counters (all thread-safe; see the thread-safety notes
in :mod:`repro.core.cache` and :mod:`repro.codegen`)::

    import repro

    with repro.serve(nodes=4, workers=4) as srv:
        srv.put_tensor("B", scipy_matrix, repro.CSR)
        srv.put_tensor("c", dense_vector)
        fut = srv.submit("ij,j->i", "B", "c", tenant="alice")
        result = fut.result()          # ServeResult: value + latency + key

Three mechanisms make the multiplexing safe and cheap:

* **Single-flight compile/tune** — requests are canonicalized to a
  *request key* (normalized subscripts + catalog operand names + tuning
  mode).  The first thread to miss becomes the build leader: it compiles
  (and, in tuned mode, runs the full :meth:`Session.autotune` search)
  exactly once while every concurrent identical request waits on the
  leader's event and then shares the built entry.  N tenants asking for
  the same SpMV compile and tune **once** — the dedup the stress suite
  asserts via ``Server.compiles`` and the cache counters.

* **Per-entry execution serialization** — each distinct request signature
  owns one output tensor and one compiled kernel; executions of that
  signature serialize on the entry lock (responses copy the output
  array out before releasing), so results are bit-identical to serial
  execution while *different* signatures run in parallel across the
  worker pool.

* **Tenant byte budgets with admission control** — every tenant carries a
  compile-cache budget; the build leader's tenant is charged the
  estimated bytes its new kernel pins in the shared caches
  (:func:`repro.core.cache.kernel_entry_nbytes` — a function of that
  kernel alone, so concurrent builds by other tenants never leak into
  the charge).  A tenant at or over budget is refused at admission
  (:class:`~repro.errors.TenantBudgetError`) until the operator raises
  its budget — cache hits cost nothing, so steady-state tenants keep
  flowing while a tenant flooding distinct compiles is shed.

The layer's contracts — compile/tune work deduplicated to one build per
distinct request under a concurrent herd, results bit-identical to serial
execution, nothing shed under an unbudgeted load — are asserted by
``tests/serving/test_stress.py`` and ``tests/serving/test_server.py``;
its latency and throughput are ``perfbench``'s ``serve_p50_s`` /
``api.serving.*`` rows (``python3 perfbench/run.py --workload
small_launch``; see ``docs/serving.md``).
"""
from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import cache as _cache
from ..errors import ServingError, TenantBudgetError
from ..legion.machine import Machine
from ..taco.expr import Assignment
from ..taco.formats import Format
from ..taco.tensor import Tensor
from .einsum import _parse_spec, build_assignment
from .session import Session

__all__ = ["Server", "ServeResult", "TenantStats", "serve"]

_SHUTDOWN = object()


@dataclass
class TenantStats:
    """Admission-control accounting for one logical tenant."""

    name: str
    budget_bytes: Optional[int] = None  # None: unlimited
    charged_bytes: int = 0  # estimated cache bytes this tenant's compiles pin
    admitted: int = 0
    rejected: int = 0
    completed: int = 0

    @property
    def over_budget(self) -> bool:
        return (self.budget_bytes is not None
                and self.charged_bytes >= self.budget_bytes)


@dataclass
class ServeResult:
    """One served request: the value plus its latency breakdown."""

    value: np.ndarray  #: a private copy of the output (dense rendering)
    tenant: str
    key: Tuple  #: the canonical request key the entry is shared under
    latency_s: float  #: submit → response (queueing + compile wait + run)
    execute_s: float  #: the execution slice alone
    compiled: bool  #: True when *this* request led the single-flight build
    strategy: Optional[str] = None  #: tuned winner (tuned entries only)


@dataclass
class _Entry:
    """One distinct request signature's shared compile state."""

    key: Tuple
    assignment: Assignment
    out: Tensor
    kernel: Any
    strategy: Optional[str] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    executions: int = 0


class _Flight:
    """The single-flight cell one build leader publishes through."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[_Entry] = None
        self.error: Optional[BaseException] = None


@dataclass
class _Request:
    key: Tuple
    spec: str
    operands: Tuple[str, ...]
    tenant: str
    tune: bool
    out_format: Optional[Format]
    future: Future
    submitted: float


class Server:
    """A threaded request scheduler over a pool of pre-warmed runtimes.

    ``workers`` sessions are built eagerly (each owns its runtime — the
    pre-warmed pool) against one shared :class:`Machine`, so every kernel
    fingerprint agrees across the pool and the process-wide caches serve
    all of them.  Requests go through :meth:`submit`, which returns a
    :class:`concurrent.futures.Future` resolving to a :class:`ServeResult`.

    Dispatch is *key-affine*: each request key hashes to one owning
    worker, so executions of one signature — which must serialize anyway
    (they share the signature's output tensor) — queue on their owner
    while distinct signatures run on different workers, instead of
    convoying the whole pool on a per-entry lock.

    The server is a context manager; :meth:`close` drains the workers.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        *,
        nodes: Optional[int] = None,
        gpus: Optional[int] = None,
        workers: int = 4,
        backend: Optional[str] = None,
        tune: bool = False,
        trials: int = 2,
        default_budget_bytes: Optional[int] = None,
        tenant_budgets: Optional[Dict[str, Optional[int]]] = None,
        store=None,
    ):
        if workers < 1:
            raise ValueError(f"a server needs at least one worker, got {workers}")
        if machine is None:
            machine = (Machine.gpu(gpus) if gpus is not None
                       else Machine.cpu(nodes if nodes is not None else 1))
        elif nodes is not None or gpus is not None:
            raise ValueError("pass either machine= or nodes=/gpus=, not both")
        self.machine = machine
        self.tune = bool(tune)
        self.trials = int(trials)
        self.default_budget_bytes = default_budget_bytes
        self._lock = threading.RLock()
        self._catalog: Dict[str, Tensor] = {}
        self._entries: Dict[Tuple, _Entry] = {}
        self._building: Dict[Tuple, _Flight] = {}
        self._tenants: Dict[str, TenantStats] = {}
        for name, budget in (tenant_budgets or {}).items():
            self._tenants[name] = TenantStats(name, budget_bytes=budget)
        self._closed = False
        self.compiles = 0  # single-flight builds (== distinct entries)
        # The pre-warmed pool: one session (machine + runtime + optional
        # store handle) per worker, all over the same Machine object so
        # structural signatures — and therefore cache keys — coincide.
        self._sessions = [
            Session(machine=self.machine, backend=backend, store=store)
            for _ in range(workers)
        ]
        # Key-affinity dispatch: every request key hashes to one owning
        # worker (its own queue), so executions of one signature — which
        # must serialize anyway, they share the signature's output tensor —
        # line up on their owner instead of convoying idle workers on the
        # entry lock, while distinct signatures spread across the pool.
        self._queues: List["SimpleQueue[Any]"] = [
            SimpleQueue() for _ in self._sessions
        ]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(s, q), name=f"repro-serve-{i}",
                daemon=True,
            )
            for i, (s, q) in enumerate(zip(self._sessions, self._queues))
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting work, drain the queue, and join the pool
        (idempotent).  Pending futures complete before workers exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for q in self._queues:
            q.put(_SHUTDOWN)
        for t in self._threads:
            t.join()
        for s in self._sessions:
            s.close()

    # ------------------------------------------------------------------ #
    # catalog
    # ------------------------------------------------------------------ #
    def put_tensor(self, name: str, data, format: Optional[Format] = None
                   ) -> Tensor:
        """Register a shared operand under ``name`` (packed via
        :meth:`Session.tensor` semantics).  Requests reference catalog
        tensors by name, which is what lets identical requests from
        different tenants share one compile.  Re-registering a name with a
        different object is an error — tenants already hold entries
        compiled against the old structure."""
        with self._lock:
            existing = self._catalog.get(name)
            if existing is not None:
                raise ServingError(
                    f"catalog tensor {name!r} is already registered; "
                    "serve a new version under a new name"
                )
            t = self._sessions[0].tensor(name, data, format)
            self._catalog[name] = t
            return t

    def catalog(self) -> List[str]:
        """The registered catalog tensor names (sorted)."""
        with self._lock:
            return sorted(self._catalog)

    def _resolve(self, token: str) -> Tensor:
        t = self._catalog.get(token)
        if t is None:
            raise ServingError(
                f"unknown catalog tensor {token!r}; register it with "
                f"put_tensor() first (catalog: {self.catalog()})"
            )
        return t

    # ------------------------------------------------------------------ #
    # tenants / admission control
    # ------------------------------------------------------------------ #
    def tenant(self, name: str) -> TenantStats:
        """The (auto-created) accounting record for tenant ``name``."""
        with self._lock:
            t = self._tenants.get(name)
            if t is None:
                t = self._tenants[name] = TenantStats(
                    name, budget_bytes=self.default_budget_bytes
                )
            return t

    def set_tenant_budget(self, name: str, budget_bytes: Optional[int]) -> None:
        """Set (or lift, with ``None``) one tenant's compile byte budget."""
        with self._lock:
            self.tenant(name).budget_bytes = budget_bytes

    def tenant_stats(self) -> Dict[str, TenantStats]:
        """A snapshot of every tenant's accounting record."""
        with self._lock:
            return {
                k: TenantStats(v.name, v.budget_bytes, v.charged_bytes,
                               v.admitted, v.rejected, v.completed)
                for k, v in self._tenants.items()
            }

    def _admit(self, tenant: str, key: Tuple) -> TenantStats:
        """Admission control: an over-budget tenant may only ride warm
        entries.  A request whose signature is already built (or building
        on someone else's charge) costs nothing and is always admitted;
        one that would lead a fresh compile/tune is refused."""
        with self._lock:
            t = self.tenant(tenant)
            warm = key in self._entries or key in self._building
            if t.over_budget and not warm:
                t.rejected += 1
                raise TenantBudgetError(tenant, t.charged_bytes,
                                        t.budget_bytes or 0)
            t.admitted += 1
            return t

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: str,
        *operands: Union[str, Tensor],
        tenant: str = "default",
        tune: Optional[bool] = None,
        out_format: Optional[Format] = None,
    ) -> "Future[ServeResult]":
        """Enqueue one einsum-style request for ``tenant``; returns a future.

        ``operands`` name catalog tensors (strings) or pass
        :class:`Tensor` objects, which are registered under their own
        names on first use.  ``tune`` (default: the server's mode) routes
        the build through :meth:`Session.autotune` — searched once per
        statement family, then replayed.  ``out_format`` requests a
        formatted output (e.g. ``repro.CSR`` for SDDMM's sampled output).
        Admission control runs here: a tenant over its compile budget gets
        :class:`~repro.errors.TenantBudgetError` instead of a future —
        unless the signature is already warm (built or building), which
        costs the tenant nothing and is always admitted.
        """
        with self._lock:
            if self._closed:
                raise ServingError("cannot submit to a closed server")
        tokens = []
        for op in operands:
            if isinstance(op, Tensor):
                with self._lock:
                    held = self._catalog.get(op.name)
                    if held is None:
                        self._catalog[op.name] = op
                    elif held is not op:
                        raise ServingError(
                            f"operand tensor {op.name!r} collides with a "
                            "different catalog tensor of the same name"
                        )
                tokens.append(op.name)
            else:
                self._resolve(op)  # fail fast on unknown names
                tokens.append(op)
        do_tune = self.tune if tune is None else bool(tune)
        norm = spec.replace(" ", "")
        _parse_spec(norm, len(tokens))  # fail fast on malformed subscripts
        key = (norm, tuple(tokens), do_tune,
               out_format.name if out_format is not None else None)
        self._admit(tenant, key)
        fut: "Future[ServeResult]" = Future()
        owner = hash(key) % len(self._queues)
        self._queues[owner].put(_Request(
            key=key, spec=norm, operands=tuple(tokens), tenant=tenant,
            tune=do_tune, out_format=out_format, future=fut,
            submitted=time.perf_counter(),
        ))
        return fut

    def submit_program(
        self,
        requests: Sequence[Tuple],
        *,
        tenant: str = "default",
        **kw,
    ) -> List["Future[ServeResult]"]:
        """Submit a multi-statement program as an ordered request batch:
        each item is ``(spec, *operand_names)``.  Statements share the
        single-flight entries like any other request, so two tenants
        submitting the same program compile it once."""
        return [self.submit(item[0], *item[1:], tenant=tenant, **kw)
                for item in requests]

    def warm(self, requests: Sequence[Tuple], *, tenant: str = "__warm__"
             ) -> None:
        """Pre-build entries for ``requests`` (blocking): the operator's
        warm-up hook so first tenant requests land on a hot substrate."""
        for fut in self.submit_program(requests, tenant=tenant):
            fut.result()

    # ------------------------------------------------------------------ #
    # worker loop
    # ------------------------------------------------------------------ #
    def _worker(self, session: Session, queue: "SimpleQueue[Any]") -> None:
        while True:
            item = queue.get()
            if item is _SHUTDOWN:
                return
            req: _Request = item
            if not req.future.set_running_or_notify_cancel():
                continue
            try:
                req.future.set_result(self._serve(session, req))
            except BaseException as e:  # noqa: BLE001 - futures carry errors
                req.future.set_exception(e)

    def _serve(self, session: Session, req: _Request) -> ServeResult:
        entry, led = self._entry_for(session, req)
        t0 = time.perf_counter()
        with entry.lock:
            session.execute(entry.kernel)
            value = np.array(entry.out.to_dense(), copy=True)
            entry.executions += 1
        t1 = time.perf_counter()
        with self._lock:
            self.tenant(req.tenant).completed += 1
        return ServeResult(
            value=value,
            tenant=req.tenant,
            key=req.key,
            latency_s=t1 - req.submitted,
            execute_s=t1 - t0,
            compiled=led,
            strategy=entry.strategy,
        )

    # ------------------------------------------------------------------ #
    # single-flight build
    # ------------------------------------------------------------------ #
    def _entry_for(self, session: Session, req: _Request
                   ) -> Tuple[_Entry, bool]:
        """The shared entry for ``req.key``: built once by an elected
        leader; every concurrent identical request waits and shares it.
        Returns ``(entry, led)`` where ``led`` marks the leader."""
        while True:
            with self._lock:
                entry = self._entries.get(req.key)
                if entry is not None:
                    return entry, False
                flight = self._building.get(req.key)
                if flight is None:
                    flight = self._building[req.key] = _Flight()
                    break
            flight.done.wait()
            if flight.entry is not None:
                return flight.entry, False
            # Leader failed: loop to elect a new one (its error was
            # delivered to its own future; ours retries the build).
        try:
            entry = self._build_entry(session, req)
            with self._lock:
                self._entries[req.key] = entry
                self.compiles += 1
                self._charge(req.tenant, entry)
            flight.entry = entry
            return entry, True
        except BaseException as e:  # noqa: BLE001 - published to waiters
            flight.error = e
            raise
        finally:
            with self._lock:
                del self._building[req.key]
            flight.done.set()

    def _build_entry(self, session: Session, req: _Request) -> _Entry:
        tensors = [self._resolve(tok) for tok in req.operands]
        asg = build_assignment(
            _parse_spec(req.spec, len(tensors)), tensors,
            lambda shape: Tensor.zeros(
                f"serve_out_{len(self._entries)}", shape, req.out_format
            ),
            error=ServingError,
        )

        strategy = None
        if req.tune:
            res = session.autotune(asg, trials=self.trials, warm=False)
            kernel, strategy = res.kernel, res.strategy
        else:
            kernel = session.compile_kernel(asg)
        return _Entry(
            key=req.key, assignment=asg, out=asg.lhs.tensor, kernel=kernel,
            strategy=strategy,
        )

    def _charge(self, tenant: str, entry: _Entry) -> None:
        # Caller holds self._lock.  Only the build leader's tenant pays:
        # under single-flight the work happened once, so the charge lands
        # once — followers (and later hits) ride free, which is exactly
        # the cross-tenant amortization the serving layer sells.  The charge
        # is a function of the built kernel alone, never a process-global
        # counter's delta (another tenant's concurrent build would land in it).
        self.tenant(tenant).charged_bytes += _cache.kernel_entry_nbytes(
            entry.kernel)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """One serving report: entry/compile counts, per-entry execution
        totals, tenant accounting, and the shared-cache counters."""
        with self._lock:
            entries = {
                "/".join([k[0], *k[1]]): e.executions
                for k, e in self._entries.items()
            }
            return {
                "workers": len(self._sessions),
                "entries": len(self._entries),
                "compiles": self.compiles,
                "executions": entries,
                "tenants": {
                    k: {
                        "budget_bytes": v.budget_bytes,
                        "charged_bytes": v.charged_bytes,
                        "admitted": v.admitted,
                        "rejected": v.rejected,
                        "completed": v.completed,
                    }
                    for k, v in self._tenants.items()
                },
                "cache": _cache.cache_stats(),
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Server({self.machine!r}, workers={len(self._sessions)}, "
                f"entries={len(self._entries)})")


def serve(
    machine: Optional[Machine] = None,
    *,
    nodes: Optional[int] = None,
    gpus: Optional[int] = None,
    workers: int = 4,
    **kw,
) -> Server:
    """Open a multi-tenant :class:`Server` — the serving-layer entry point,
    mirroring :func:`repro.session` (``repro.serve(nodes=4, workers=4)``).
    Designed for ``with`` use; ``close()`` drains the worker pool."""
    return Server(machine, nodes=nodes, gpus=gpus, workers=workers, **kw)
