"""Persistent artifact store: packed tensors + their amortization state.

SpDISTAL's compile-once / run-many model (see :mod:`repro.core.cache` and
:mod:`repro.legion.runtime`) amortizes partitioning, compilation and
mapping analysis across executions — but only within one process.  The
paper's workflow is *pack once, run many kernels over it across sessions*:
the packed tensor is the expensive, reusable artifact, the way TACO-family
compilers persist format-specialized artifacts (Chou et al.).  This module
extends the amortization across processes by serializing, next to the
packed tensor:

* the **companion tensors** of every cached kernel over it (cache keys
  embed object identities, so the whole statement's tensors travel
  together),
* the **kernel-cache entries** (the compiled kernels themselves, minus
  their leaf closures, which rebuild lazily),
* the **partition-memo entries** (coordinate-tree partitions + recorded
  plan statements), and
* the **runtimes** those kernels executed on, with their recorded mapping
  traces, home placements and symbolic residency state.

An artifact is a directory:

``payload.pkl``
    One pickle of the object graph above.  Shared structure (a ``crd``
    region adopted by two tensors, a runtime shared by two kernels) is
    preserved exactly.  Tensor level arrays above ``sidecar_threshold``
    bytes are *not* inside the pickle — they are replaced by references
    into ``regions/``.

``regions/r<uid>.npy``
    Raw NumPy sidecars holding the big level arrays (``pos``/``crd``/
    ``vals``).  :func:`load_packed` loads them eagerly by default, or as
    read-only memory maps with ``mmap=True`` (``np.load(mmap_mode="r")``)
    so artifacts larger than RAM warm-start lazily; the first mutation
    promotes a mapped region to a private copy and bumps the owning
    tensors' ``pattern_version`` (see :class:`repro.legion.region.Region`).

``manifest.json``
    Human-readable metadata keyed on the *stable* schedule fingerprint
    (the canonical fingerprint of :func:`repro.core.cache.kernel_fingerprint`
    minus the process-local tensor ids, hashed), each tensor's
    ``pattern_version``, and the structural machine signature — plus the
    SHA-256 of the payload and of every sidecar, which is what the
    content-addressed index (:mod:`repro.core.store_index`) dedups on.
    Read this to inspect an artifact without unpickling it;
    :func:`load_packed` checks the payload's digest against it before a
    byte is unpickled; sidecars stay unhashed on load (so mapping them
    stays lazy) and are re-hashed offline by
    :meth:`repro.core.store_index.ArtifactStore.verify`.

An artifact carries data and analyses, never code: generated leaf modules
are rebuilt from their lowering templates by whichever process binds them
(:mod:`repro.codegen`), so nothing read from an artifact is compiled.

``load_packed`` re-seeds the process-local caches under the *new* object
identities (fingerprints are recomputed over the unpickled tensors, trace
keys are re-anchored on the unpickled partitions), so a fresh process that
rebuilds the same schedule over the loaded tensors hits the kernel cache
on its first compile and replays mapping traces on its first execute —
steady-state cost from execution one, with bit-identical simulated
metrics.  See ``docs/caching.md`` for the contract,
``tests/integration/test_warmstart.py`` for its cross-process check and
``perfbench``'s ``warmstart_s`` / ``core.store.*`` rows for the
measurement.

Only load artifacts you wrote yourself: this is ``pickle`` underneath,
with all of pickle's trust assumptions.
"""
from __future__ import annotations

import hashlib
import json
import pickle
import time

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import StoreError, StoreFormatError
from ..legion.index_space import IndexSpace
from ..legion.region import Region
from ..legion.runtime import Privilege
from ..taco.tensor import Tensor
from . import cache as _cache

__all__ = [
    "STORE_FORMAT_VERSION",
    "PackedArtifact",
    "save_packed",
    "load_packed",
    "read_manifest",
    "stable_fingerprint",
    "file_sha256",
]

#: v4: artifacts carry no generated code.  v5: a tensor pickles the parts
#: of its statement, not an ``Assignment``.  v6: a ``LevelFormat`` pickles
#: the level class it names, not a ``compressed`` flag.  Any other version
#: is refused with :class:`~repro.errors.StoreFormatError`, never migrated.
STORE_FORMAT_VERSION = 6
PAYLOAD_NAME = "payload.pkl"
MANIFEST_NAME = "manifest.json"
REGIONS_DIR = "regions"
#: Level arrays at or above this many bytes leave the pickle for ``.npy``
#: sidecars (mmap-able on load); smaller ones stay inline.
SIDECAR_THRESHOLD = 4096

#: Keys every manifest must carry, with their required types —
#: validated *before* any payload byte is unpickled.
_MANIFEST_SCHEMA = {
    "format_version": int,
    "payload": str,
    "payload_bytes": int,
    "payload_sha256": str,
    "tensor": dict,
    "companions": list,
    "kernels": list,
    "regions": list,
}


def file_sha256(path: Union[str, Path]) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _SidecarRef:
    """Pickle placeholder for a region array stored as a ``.npy`` sidecar."""

    __slots__ = ("file",)

    def __init__(self, file: str):
        self.file = file

    def __getstate__(self):
        return self.file

    def __setstate__(self, state):
        self.file = state


def stable_fingerprint(schedule, machine) -> str:
    """A process-independent digest of a kernel cache key.

    :func:`repro.core.cache.kernel_fingerprint` embeds ``id(tensor)``
    values, which are meaningless across processes; this drops them and
    hashes the canonical schedule signature, the tensor states
    (pattern versions, shapes, formats, dtypes) and the machine signature.
    Two processes compiling the same statement over equal-state tensors
    agree on it — it is what the manifest keys kernel entries on.
    """
    sched_sig, _ids, tensor_states, msig = _cache.kernel_fingerprint(
        schedule, machine
    )
    blob = repr((sched_sig, tensor_states, msig)).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class PackedArtifact:
    """Everything :func:`load_packed` restored from one artifact."""

    tensor: Tensor
    companions: Dict[str, Tensor] = field(default_factory=dict)
    kernels: List[Any] = field(default_factory=list)
    runtimes: List[Any] = field(default_factory=list)
    manifest: Dict[str, Any] = field(default_factory=dict)

    def runtime(self):
        """The restored runtime (the first, which is the common case of a
        single shared runtime), or None if none was stored."""
        return self.runtimes[0] if self.runtimes else None

    def all_tensors(self) -> List[Tensor]:
        return [self.tensor] + list(self.companions.values())

    def region_residency(self) -> Dict[str, int]:
        """Byte accounting of the loaded region data: ``mapped`` counts
        bytes still served lazily from read-only mmaps, ``resident`` counts
        bytes materialized in process RAM.  The sum is the artifact's total
        region footprint; with ``mmap=True`` only write-privileged (or
        explicitly promoted) tensors contribute to ``resident``."""
        mapped = resident = 0
        seen = set()
        for t in self.all_tensors():
            for region in t.regions():
                if id(region) in seen:
                    continue
                seen.add(id(region))
                if region.is_mapped:
                    mapped += region.data.nbytes
                else:
                    resident += region.data.nbytes
        return {"mapped": mapped, "resident": resident}


# --------------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------------- #
def _tensor_meta(tensor: Tensor) -> Dict[str, Any]:
    return {
        "name": tensor.name,
        "shape": list(tensor.shape),
        "format": tensor.format.name,
        "dtype": tensor.dtype.str,
        "pattern_version": tensor.pattern_version,
        "assembly_version": tensor.assembly_version,
        "nnz": int(tensor.nnz),
        "nbytes": int(tensor.nbytes),
    }


def save_packed(
    path: Union[str, Path],
    tensor: Tensor,
    *,
    include_caches: bool = True,
    runtime=None,
    sidecar_threshold: int = SIDECAR_THRESHOLD,
) -> Path:
    """Persist ``tensor`` (and, by default, its amortization state) to the
    artifact directory ``path``.

    With ``include_caches`` every live kernel-cache entry whose statement
    involves ``tensor`` is exported, together with the companion tensors it
    pins, the partition-memo entries of all those tensors, and the
    runtimes the kernels executed on (traces included).  Pass an explicit
    ``runtime`` to persist one that is not attached to any cached kernel.

    Level arrays at or above ``sidecar_threshold`` bytes are written as raw
    ``regions/r<uid>.npy`` sidecars instead of travelling inside the pickle
    (pass ``0`` to sidecar everything, a negative value to inline
    everything); ``load_packed(..., mmap=True)`` then maps them lazily.
    Returns the artifact directory path.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise StoreError(f"{path}: artifact path exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)

    kernel_entries: List[Tuple[Any, Tuple]] = []  # (kernel, pinned tensors)
    if include_caches:
        for _key, kernel, tensors in _cache.iter_kernel_entries():
            if any(t is tensor for t in tensors):
                kernel_entries.append((kernel, tensors))

    tensor_set: List[Tensor] = [tensor]
    for _kernel, tensors in kernel_entries:
        for t in tensors:
            if not any(t is s for s in tensor_set):
                tensor_set.append(t)

    partition_entries: List[Tuple[Tensor, Tuple, Any, Tuple]] = []
    if include_caches:
        for key, part, stmts in _cache.iter_partition_entries():
            owner = part.tensor
            if any(owner is t for t in tensor_set):
                # key[0] is id(owner); store the tail and re-key on load.
                partition_entries.append((owner, key[1:], part, stmts))

    runtimes: List[Any] = []
    for kernel, _tensors in kernel_entries:
        rt = getattr(kernel, "_runtime", None)
        if rt is not None and not any(rt is r for r in runtimes):
            runtimes.append(rt)
    if runtime is not None and not any(runtime is r for r in runtimes):
        runtimes.append(runtime)

    # Advance-counter watermark: every region uid the payload can mention
    # must be covered, or a fresh region in the loading process could
    # collide with a pickled one.  Beyond the tensors' own regions, copy
    # traces can reference regions that were only ever staged via
    # copy_subset (and later dropped from residency), so trace keys and
    # residency snapshots are scanned too.
    max_region_uid = -1
    max_ispace_uid = -1
    for t in tensor_set:
        for region in t.regions():
            max_region_uid = max(max_region_uid, region.uid)
            max_ispace_uid = max(max_ispace_uid, region.ispace.uid)
    for rt in runtimes:
        for uid_map in (rt._home, rt._residency):
            for uid in uid_map:
                max_region_uid = max(max_region_uid, uid)
        for key, trace in rt._traces.items():
            for reqsig in key[3]:
                max_region_uid = max(max_region_uid, reqsig[0])
            for uid in trace.residency_after:
                max_region_uid = max(max_region_uid, uid)
        for key, trace in rt._copy_traces.items():
            max_region_uid = max(max_region_uid, key[1])
            for uid in trace.residency_after:
                max_region_uid = max(max_region_uid, uid)
            if trace.pinned:
                region = trace.pinned[0]
                max_region_uid = max(max_region_uid, region.uid)
                max_ispace_uid = max(max_ispace_uid, region.ispace.uid)

    # Autotune decisions travel whole: keys are process-independent digests
    # (no tensor ids to re-anchor) and entries are a few hundred bytes, so
    # filtering by tensor would buy nothing and could strand a decision
    # whose statement family the loading process re-creates.
    decision_entries: List[Tuple[str, Dict[str, Any]]] = []
    if include_caches:
        decision_entries = list(_cache.iter_decision_entries())

    payload = {
        "format_version": STORE_FORMAT_VERSION,
        "tensor": tensor,
        "companions": [t for t in tensor_set if t is not tensor],
        "kernels": kernel_entries,
        "partitions": partition_entries,
        "decisions": decision_entries,
        "runtimes": runtimes,
        "max_region_uid": max_region_uid,
        "max_ispace_uid": max_ispace_uid,
    }

    # Sidecar extraction: big level arrays leave the pickle for raw .npy
    # files.  The arrays are swapped for references only for the duration
    # of the dump — the live tensors are untouched afterwards.
    sidecars: List[Tuple[Region, Any, str]] = []  # (region, array, file)
    regions_meta: List[Dict[str, Any]] = []
    if sidecar_threshold >= 0:
        seen = set()
        regions_dir = path / REGIONS_DIR
        for t in tensor_set:
            for region in t.regions():
                if id(region) in seen:
                    continue
                seen.add(id(region))
                arr = region.data
                if arr.nbytes < sidecar_threshold:
                    continue
                regions_dir.mkdir(exist_ok=True)
                fname = f"{REGIONS_DIR}/r{region.uid}.npy"
                np.save(path / fname, np.asarray(arr))
                sidecars.append((region, arr, fname))
        for region, _arr, fname in sidecars:
            regions_meta.append(
                {
                    "file": fname,
                    "region": region.name,
                    "bytes": int((path / fname).stat().st_size),
                    "sha256": file_sha256(path / fname),
                }
            )

    payload_path = path / PAYLOAD_NAME
    try:
        for region, _arr, fname in sidecars:
            region.data = _SidecarRef(fname)
        with open(payload_path, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for region, arr, _fname in sidecars:
            region.data = arr

    kernels_meta = []
    for kernel, tensors in kernel_entries:
        try:
            fp = stable_fingerprint(kernel.schedule, kernel.machine)
        except _cache.Unfingerprintable:  # pragma: no cover - cached => fingerprintable
            fp = None
        kernels_meta.append(
            {
                "fingerprint": fp,
                "kind": kernel.kind,
                "strategy": kernel.strategy,
                "pieces": len(kernel.pieces),
                "machine": list(kernel.machine.signature),
                "tensors": [t.name for t in tensors],
            }
        )
    payload_sha = file_sha256(payload_path)
    content = hashlib.sha256(payload_sha.encode())
    for meta in sorted(regions_meta, key=lambda m: m["file"]):
        content.update(meta["sha256"].encode())
    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "payload": PAYLOAD_NAME,
        "payload_bytes": payload_path.stat().st_size,
        "payload_sha256": payload_sha,
        "content_hash": content.hexdigest(),
        "tensor": _tensor_meta(tensor),
        "companions": [_tensor_meta(t) for t in tensor_set if t is not tensor],
        "kernels": kernels_meta,
        "regions": regions_meta,
        "partition_entries": len(partition_entries),
        "decision_entries": len(decision_entries),
        "runtimes": len(runtimes),
        "trace_count": sum(
            len(rt._traces) + len(rt._copy_traces) for rt in runtimes
        ),
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return path


# --------------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------------- #
def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate an artifact's JSON manifest (no unpickling).

    Validation happens *before* anything is unpickled: the format version
    must match and the required keys must be present with the right types,
    so truncated or foreign files fail with a typed
    :class:`~repro.errors.StoreFormatError` naming the path and the
    expected/found versions — never a raw ``KeyError``.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise StoreError(f"{path}: no {MANIFEST_NAME} found")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise StoreFormatError(manifest_path, f"corrupt manifest: {e}")
    if not isinstance(manifest, dict):
        raise StoreFormatError(manifest_path, "manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != STORE_FORMAT_VERSION:
        raise StoreFormatError(
            manifest_path,
            "unsupported store format version",
            expected=STORE_FORMAT_VERSION,
            found=version,
        )
    missing = [
        key
        for key, typ in _MANIFEST_SCHEMA.items()
        if not isinstance(manifest.get(key), typ)
    ]
    if missing:
        raise StoreFormatError(
            manifest_path,
            f"manifest missing or mistyped required keys: {', '.join(missing)}",
        )
    for counter in ("pattern_version", "assembly_version"):
        if not isinstance(manifest["tensor"].get(counter), int):
            raise StoreFormatError(
                manifest_path, f"manifest tensor entry lacks {counter}"
            )
    return manifest


def _resolve_sidecars(path: Path, tensors: List[Tensor], mmap: bool) -> None:
    """Replace every :class:`_SidecarRef` left in the unpickled regions with
    its array — eagerly loaded, or a read-only memory map with ``mmap``.
    Shared regions resolve once (pickle preserved the sharing)."""
    for t in tensors:
        for region in t.regions():
            ref = region.data
            if not isinstance(ref, _SidecarRef):
                continue
            sidecar = path / ref.file
            if not sidecar.exists():
                raise StoreError(
                    f"{path}: payload references a missing sidecar {ref.file}"
                )
            if mmap:
                region.data = np.load(sidecar, mmap_mode="r")
            else:
                region.data = np.load(sidecar)


def load_packed(
    path: Union[str, Path],
    *,
    restore_caches: bool = True,
    mmap: bool = False,
    writable: Tuple[str, ...] = (),
) -> PackedArtifact:
    """Load an artifact directory written by :func:`save_packed`.

    Re-seeds the kernel cache and partition memo under the loaded objects'
    identities (skipped when ``restore_caches`` is false or caching is
    globally disabled), advances the region/index-space uid counters past
    the loaded uids, and returns a :class:`PackedArtifact`.  A fresh
    process that rebuilds the saved schedule over the returned tensors
    compiles to a cache hit and replays the stored mapping traces on its
    first execute.

    With ``mmap`` the region sidecars are *not* read into RAM: each becomes
    a read-only ``np.load(mmap_mode="r")`` map, paged in lazily, with
    copy-on-write promotion (and a ``pattern_version`` bump) on first
    mutation.  Tensors that any stored kernel holds write privileges on,
    plus any named in ``writable``, are promoted immediately — *before* the
    caches are re-seeded — so the warm-start cache-hit contract survives
    the promotion bumps.  To mutate other tensors' data directly, name them
    in ``writable`` or call ``tensor.ensure_writable()`` (which costs the
    cached kernels over that tensor).
    """
    path = Path(path)
    manifest = read_manifest(path)
    payload_path = path / manifest["payload"]
    if not payload_path.exists():
        raise StoreError(f"{payload_path}: manifest names a missing payload")
    found = file_sha256(payload_path)
    if found != manifest["payload_sha256"]:
        raise StoreError(
            f"{payload_path}: corrupt payload: sha256 {found} does not match "
            f"the {manifest['payload_sha256']} its manifest declares"
        )
    try:
        with open(payload_path, "rb") as f:
            payload = pickle.load(f)
    except Exception as e:
        # pickle surfaces corruption as UnpicklingError, EOFError,
        # AttributeError/ImportError (missing classes), ... — fold them all
        # into the module's documented error type.
        raise StoreError(f"{payload_path}: corrupt payload: {e}") from e
    if not isinstance(payload, dict):
        raise StoreError(f"{payload_path}: payload is not an artifact dict")
    if payload.get("format_version") != manifest["format_version"]:
        raise StoreFormatError(
            path,
            "payload format version does not match manifest",
            expected=manifest["format_version"],
            found=payload.get("format_version"),
        )
    for key in ("tensor", "companions", "kernels", "runtimes"):
        if key not in payload:
            raise StoreError(f"{payload_path}: payload lacks the {key!r} entry")

    tensor: Tensor = payload["tensor"]
    declared = manifest["tensor"]
    for counter in ("pattern_version", "assembly_version"):
        if declared.get(counter) != getattr(tensor, counter):
            raise StoreError(
                f"{path}: manifest {counter} {declared.get(counter)!r} does "
                f"not match payload {getattr(tensor, counter)!r} "
                "(stale manifest next to a rewritten payload?)"
            )

    all_tensors: List[Tensor] = [tensor] + list(payload.get("companions", ()))
    _resolve_sidecars(path, all_tensors, mmap)

    Region.advance_uid_counter(payload.get("max_region_uid", -1))
    IndexSpace.advance_uid_counter(payload.get("max_ispace_uid", -1))

    if mmap:
        # Promotion hooks: the first mutation of a mapped region bumps the
        # owning tensors' pattern_version, invalidating any cache entry
        # whose leaf captured the mapped buffer.
        for t in all_tensors:
            for region in t.regions():
                if region.is_mapped:
                    region.add_promote_hook(t._bump_pattern_version)
        # Promote known write targets *before* re-seeding the caches, so
        # the re-seeded fingerprints already embed the bumped versions and
        # the first compile still hits.
        by_name = {t.name: t for t in all_tensors}
        for name in writable:
            if name not in by_name:
                raise StoreError(
                    f"{path}: writable names unknown tensor {name!r} "
                    f"(artifact holds {sorted(by_name)})"
                )
            by_name[name].ensure_writable()
        for kernel, tensors in payload.get("kernels", ()):
            for t in tensors:
                priv = kernel.privileges.get(id(t))
                if priv is not None and priv != Privilege.READ_ONLY:
                    t.ensure_writable()

    kernels = []
    if restore_caches and _cache.caches_enabled():
        for key, decision in payload.get("decisions", ()):
            _cache.store_decision(key, decision)
        for owner, key_tail, part, stmts in payload.get("partitions", ()):
            _cache.store_partition((id(owner),) + tuple(key_tail), part, stmts)
        for kernel, tensors in payload.get("kernels", ()):
            try:
                key = _cache.kernel_fingerprint(kernel.schedule, kernel.machine)
            except _cache.Unfingerprintable:  # pragma: no cover
                continue
            _cache.store_kernel(key, kernel, tensors)
            kernels.append(kernel)
    else:
        kernels = [kernel for kernel, _ in payload.get("kernels", ())]

    return PackedArtifact(
        tensor=tensor,
        companions={t.name: t for t in payload.get("companions", ())},
        kernels=kernels,
        runtimes=list(payload.get("runtimes", ())),
        manifest=manifest,
    )
