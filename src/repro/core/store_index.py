"""Content-addressed artifact index with compaction/GC.

:mod:`repro.core.store` writes one artifact per directory; a production
deployment serving many tensors and schedules needs more: finding "the
latest artifact for this schedule" without scanning directories, not
storing the same payload twice, and bounding the disk a store directory
consumes.  This module layers all three over ``save_packed``/``load_packed``
without changing the artifact format — the storage-layout-behind-a-stable-
interface discipline of the format abstractions the paper builds on
(Chou et al.).

A store root looks like::

    store/
    ├── index.json            # the content-addressed index (this module)
    ├── artifacts/
    │   └── a000001/          # ordinary save_packed artifacts
    │       ├── manifest.json
    │       ├── payload.pkl   # hard link into objects/ when deduped
    │       └── regions/r7.npy
    └── objects/
        └── <sha256>          # one blob per distinct payload/sidecar

* **Index** — ``index.json`` maps *keys* to artifact lists (oldest →
  newest).  Every artifact is indexed under ``fp:<stable fingerprint>``
  for each kernel it carries (the schedule fingerprint + tensor pattern
  versions + machine signature digest of :func:`repro.core.store.stable_fingerprint`)
  and under ``tensor:<name>``; callers add their own keys (the figure
  drivers key packed operands on a content digest of the source data).
  :meth:`ArtifactStore.resolve` returns the newest artifact for a key in
  one dictionary lookup.

* **Dedup** — payloads and sidecars are content-addressed: each file is
  hard-linked to ``objects/<sha256>`` (falling back to plain copies on
  filesystems without links), so saving identical content twice stores it
  once.  A ``put`` whose whole content hash matches an existing artifact
  reuses that artifact outright and just extends its keys.

* **GC/compaction** — :meth:`ArtifactStore.gc` applies reference-counted
  retention: ``keep_latest=N`` keeps each key's newest N artifacts (an
  artifact survives while *any* key retains it), ``max_bytes`` then evicts
  least-recently-used artifacts until the store fits the budget — the
  newest artifact is never evicted, mirroring the in-memory byte-budgeted
  LRUs of :mod:`repro.core.cache`.  Objects are removed when their
  reference count reaches zero, and orphaned files (from crashes between
  a save and an index write) are swept.

Mapped regions of an artifact removed by GC keep working in processes
that already loaded them: the inode survives until the last open map
closes (POSIX unlink semantics).
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from ..errors import StoreError, StoreFormatError
from .store import (
    MANIFEST_NAME,
    PackedArtifact,
    file_sha256,
    load_packed,
    read_manifest,
    save_packed,
    stable_fingerprint,
)

__all__ = [
    "INDEX_FORMAT_VERSION",
    "ArtifactStore",
    "GCStats",
    "content_key",
    "fingerprint_key",
    "gc_artifacts",
]

INDEX_NAME = "index.json"
LOCK_NAME = "index.lock"
INDEX_FORMAT_VERSION = 1
ARTIFACTS_DIR = "artifacts"
OBJECTS_DIR = "objects"


def fingerprint_key(schedule, machine) -> str:
    """The index key of a schedule/machine pair (see ``stable_fingerprint``)."""
    return f"fp:{stable_fingerprint(schedule, machine)}"


def content_key(name: str, fmt, mat) -> str:
    """Content digest of one raw SciPy operand (tensor name + format + CSR
    arrays): the caller-side index key packed operands are stored under."""
    csr = mat.tocsr()
    h = hashlib.sha256()
    h.update(repr((name, fmt.name if fmt is not None else None,
                   csr.shape)).encode())
    h.update(np.ascontiguousarray(csr.indptr).tobytes())
    h.update(np.ascontiguousarray(csr.indices).tobytes())
    h.update(np.ascontiguousarray(csr.data).tobytes())
    return h.hexdigest()


@dataclass
class GCStats:
    """What one :meth:`ArtifactStore.gc` pass did."""

    scanned: int = 0
    removed_artifacts: int = 0
    removed_objects: int = 0
    swept_orphans: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def bytes_freed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


class ArtifactStore:
    """A content-addressed, garbage-collected directory of artifacts."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.artifacts_dir = self.root / ARTIFACTS_DIR
        self.objects_dir = self.root / OBJECTS_DIR
        # In-process serialization of the index read-modify-write, taken
        # *before* the cross-process flock in _locked: N serving threads
        # sharing one ArtifactStore queue here instead of each burning a
        # file descriptor + flock round trip, and platforms without fcntl
        # still get single-writer behavior within the process.  Reentrant
        # because locked entry points never call each other today but the
        # discipline should not break if one ever does.
        self._tlock = threading.RLock()

    # ------------------------------------------------------------------ #
    # index I/O
    # ------------------------------------------------------------------ #
    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive advisory lock over the index read-modify-write.

        ``index.json`` updates are read → mutate → atomic-replace; two
        writers interleaving those steps would silently drop one writer's
        artifacts (its additions vanish from the replaced index while its
        files remain on disk as "orphans" the next gc sweeps away).  Every
        mutating entry point (``put``, ``gc``, ``load``'s last-used touch)
        therefore serializes on a POSIX ``flock`` over a sidecar lock file
        — the lock file, not ``index.json`` itself, because the atomic
        ``os.replace`` swaps the index inode out from under a lock held on
        it.  In-process threads serialize on ``self._tlock`` first (the
        RLock mirror of the flock discipline — see the thread-safety note
        in :mod:`repro.core.cache`); on platforms without ``fcntl`` the
        file lock degrades to a no-op and the thread lock alone preserves
        single-writer behavior within the process.
        """
        with self._tlock:
            if fcntl is None:  # pragma: no cover - non-POSIX fallback
                yield
                return
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.lock_path, "a+b") as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def _fresh_index(self) -> Dict[str, Any]:
        return {
            "format_version": INDEX_FORMAT_VERSION,
            "seq": 0,
            "artifacts": {},
            "keys": {},
            "objects": {},
        }

    def read_index(self) -> Dict[str, Any]:
        if not self.index_path.exists():
            return self._fresh_index()
        try:
            idx = json.loads(self.index_path.read_text())
        except ValueError as e:
            raise StoreFormatError(self.index_path, f"corrupt store index: {e}")
        version = idx.get("format_version") if isinstance(idx, dict) else None
        if version != INDEX_FORMAT_VERSION:
            raise StoreFormatError(
                self.index_path,
                "unsupported store index version",
                expected=INDEX_FORMAT_VERSION,
                found=version,
            )
        return idx

    def _write_index(self, idx: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(idx, indent=2, sort_keys=True))
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------------ #
    # publish
    # ------------------------------------------------------------------ #
    def _dedup_file(self, idx: Dict[str, Any], path: Path, sha: str,
                    nbytes: int) -> None:
        """Content-address one artifact file into ``objects/<sha>``."""
        blob = self.objects_dir / sha
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        try:
            if blob.exists():
                if not os.path.samefile(path, blob):
                    path.unlink()
                    os.link(blob, path)
            else:
                os.link(path, blob)
        except OSError:
            # No hard links on this filesystem: keep content-addressing
            # (the blob is authoritative for integrity checks) without the
            # space saving — and restore the artifact file if the link
            # attempt already unlinked it.
            if not blob.exists():
                shutil.copy2(path, blob)
            elif not path.exists():
                shutil.copy2(blob, path)
        entry = idx["objects"].setdefault(sha, {"bytes": int(nbytes), "refs": 0})
        entry["refs"] += 1

    def put(
        self,
        tensor,
        *,
        keys: Sequence[str] = (),
        include_caches: bool = True,
        runtime=None,
        **save_kw,
    ) -> Path:
        """Save ``tensor`` as a new indexed artifact; returns its directory.

        The artifact is indexed under ``fp:<stable fingerprint>`` of every
        cached kernel it carries, ``tensor:<name>``, and each extra key in
        ``keys``.  If an artifact with an identical content hash already
        exists, no new artifact is created — the existing one gains the new
        keys and becomes each key's latest entry (the dedup hit).

        Safe under concurrent writers: the whole read-modify-write (index
        read, sequence allocation, artifact save, dedup, index replace)
        holds the store's advisory file lock (see :meth:`_locked`).
        """
        with self._locked():
            return self._put_locked(
                tensor, keys=keys, include_caches=include_caches,
                runtime=runtime, **save_kw,
            )

    def _put_locked(
        self,
        tensor,
        *,
        keys: Sequence[str] = (),
        include_caches: bool = True,
        runtime=None,
        **save_kw,
    ) -> Path:
        idx = self.read_index()
        seq = idx["seq"] + 1
        aid = f"a{seq:06d}"
        art_dir = self.artifacts_dir / aid
        save_packed(art_dir, tensor, include_caches=include_caches,
                    runtime=runtime, **save_kw)
        manifest = read_manifest(art_dir)

        all_keys = [f"tensor:{manifest['tensor']['name']}"]
        for k in manifest["kernels"]:
            if k.get("fingerprint"):
                all_keys.append(f"fp:{k['fingerprint']}")
        for k in keys:
            if k not in all_keys:
                all_keys.append(str(k))

        content_hash = manifest["content_hash"]
        existing = next(
            (a for a, meta in idx["artifacts"].items()
             if meta["content_hash"] == content_hash),
            None,
        )
        if existing is not None:
            shutil.rmtree(art_dir)
            meta = idx["artifacts"][existing]
            for key in all_keys:
                if key not in meta["keys"]:
                    meta["keys"].append(key)
                entries = idx["keys"].setdefault(key, [])
                if existing in entries:
                    entries.remove(existing)
                entries.append(existing)  # newest-last for this key again
            meta["last_used"] = time.time()
            self._write_index(idx)
            return self.root / meta["dir"]

        files = [(art_dir / manifest["payload"],
                  manifest["payload_sha256"], manifest["payload_bytes"])]
        for rmeta in manifest["regions"]:
            files.append((art_dir / rmeta["file"], rmeta["sha256"],
                          rmeta["bytes"]))
        objects = []
        for path, sha, nbytes in files:
            self._dedup_file(idx, path, sha, nbytes)
            objects.append(sha)

        idx["seq"] = seq
        idx["artifacts"][aid] = {
            "dir": f"{ARTIFACTS_DIR}/{aid}",
            "seq": seq,
            "created": time.time(),
            "last_used": time.time(),
            "bytes": sum(int(n) for _, _, n in files),
            "manifest_bytes": (art_dir / MANIFEST_NAME).stat().st_size,
            "content_hash": content_hash,
            "keys": all_keys,
            "objects": objects,
        }
        for key in all_keys:
            idx["keys"].setdefault(key, []).append(aid)
        self._write_index(idx)
        return art_dir

    # ------------------------------------------------------------------ #
    # resolve / load
    # ------------------------------------------------------------------ #
    def resolve(self, key: str) -> Optional[Path]:
        """The newest artifact directory indexed under ``key`` (one index
        lookup, no directory scanning), or None."""
        idx = self.read_index()
        entries = idx["keys"].get(key, ())
        if not entries:
            return None
        return self.root / idx["artifacts"][entries[-1]]["dir"]

    def load(self, key: str, **load_kw) -> PackedArtifact:
        """``load_packed`` the newest artifact for ``key`` (keyword
        arguments pass through, e.g. ``mmap=True``) and mark it used."""
        # The whole resolve → read → last-used touch holds the lock: a
        # concurrent gc could otherwise rmtree the resolved artifact while
        # its files are being read (mapped regions opened here survive a
        # later gc via POSIX unlink semantics — only the read window needs
        # protecting).
        with self._locked():
            path = self.resolve(key)
            if path is None:
                raise StoreError(
                    f"{self.root}: no artifact indexed under {key!r}"
                )
            art = load_packed(path, **load_kw)
            idx = self.read_index()
            entries = idx["keys"].get(key, ())
            if entries and entries[-1] in idx["artifacts"]:
                idx["artifacts"][entries[-1]]["last_used"] = time.time()
                self._write_index(idx)
        return art

    def load_latest(self, schedule, machine, **load_kw) -> PackedArtifact:
        """The newest artifact for this schedule/machine pair."""
        return self.load(fingerprint_key(schedule, machine), **load_kw)

    def entries(self, key: Optional[str] = None) -> List[Dict[str, Any]]:
        """Index metadata of every artifact (newest last), optionally
        restricted to one key."""
        idx = self.read_index()
        if key is not None:
            aids = idx["keys"].get(key, ())
        else:
            aids = sorted(idx["artifacts"], key=lambda a: idx["artifacts"][a]["seq"])
        return [dict(idx["artifacts"][a], id=a) for a in aids]

    def total_bytes(self, idx: Optional[Dict[str, Any]] = None) -> int:
        """Store footprint: unique object bytes plus manifests."""
        idx = idx or self.read_index()
        return sum(int(o["bytes"]) for o in idx["objects"].values()) + sum(
            int(a.get("manifest_bytes", 0)) for a in idx["artifacts"].values()
        )

    # ------------------------------------------------------------------ #
    # GC / compaction
    # ------------------------------------------------------------------ #
    def gc(
        self,
        *,
        keep_latest: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GCStats:
        """Reference-counted retention + byte-budgeted eviction.

        ``keep_latest=N`` keeps each key's newest N artifacts; an artifact
        is removed only when no key retains it.  ``max_bytes`` then evicts
        the least-recently-used survivors until the store footprint fits —
        except the newest artifact, which is never evicted (the in-memory
        LRU rule: the entry being inserted always caches).  Orphaned
        directories and blobs are swept either way.

        Holds the store's advisory file lock for the whole pass, so a
        concurrent ``put`` can neither lose its index entry to the sweep
        nor have its half-written artifact collected as an orphan.
        """
        with self._locked():
            return self._gc_locked(keep_latest=keep_latest, max_bytes=max_bytes)

    def _gc_locked(
        self,
        *,
        keep_latest: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GCStats:
        idx = self.read_index()
        stats = GCStats(scanned=len(idx["artifacts"]),
                        bytes_before=self.total_bytes(idx))

        doomed: set = set()
        if keep_latest is not None:
            if keep_latest < 1:
                raise StoreError("gc: keep_latest must be >= 1")
            retained: set = set()
            for entries in idx["keys"].values():
                retained.update(entries[-keep_latest:])
            doomed = set(idx["artifacts"]) - retained

        if max_bytes is not None:
            newest = max(
                (a for a in idx["artifacts"] if a not in doomed),
                key=lambda a: idx["artifacts"][a]["seq"],
                default=None,
            )
            by_lru = sorted(
                (a for a in idx["artifacts"]
                 if a not in doomed and a != newest),
                key=lambda a: (idx["artifacts"][a]["last_used"],
                               idx["artifacts"][a]["seq"]),
            )
            # Running decrement: evicting a victim frees its manifest plus
            # every object it was the last live referrer of.
            live_refs: Dict[str, int] = {}
            for aid, meta in idx["artifacts"].items():
                if aid not in doomed:
                    for sha in meta["objects"]:
                        live_refs[sha] = live_refs.get(sha, 0) + 1
            live_total = self._live_bytes(idx, doomed)
            for victim in by_lru:
                if live_total <= max_bytes:
                    break
                meta = idx["artifacts"][victim]
                live_total -= int(meta.get("manifest_bytes", 0))
                for sha in meta["objects"]:
                    live_refs[sha] -= 1
                    if live_refs[sha] == 0 and sha in idx["objects"]:
                        live_total -= int(idx["objects"][sha]["bytes"])
                doomed.add(victim)

        for aid in doomed:
            meta = idx["artifacts"].pop(aid)
            art_dir = self.root / meta["dir"]
            if art_dir.exists():
                shutil.rmtree(art_dir)
            stats.removed_artifacts += 1
            for sha in meta["objects"]:
                obj = idx["objects"].get(sha)
                if obj is None:
                    continue
                obj["refs"] -= 1
                if obj["refs"] <= 0:
                    del idx["objects"][sha]
                    blob = self.objects_dir / sha
                    if blob.exists():
                        blob.unlink()
                    stats.removed_objects += 1
        for key in list(idx["keys"]):
            idx["keys"][key] = [a for a in idx["keys"][key] if a not in doomed]
            if not idx["keys"][key]:
                del idx["keys"][key]

        stats.swept_orphans = self._sweep_orphans(idx)
        stats.bytes_after = self.total_bytes(idx)
        self._write_index(idx)
        return stats

    def _live_bytes(self, idx: Dict[str, Any], doomed: set) -> int:
        live_objects: Dict[str, int] = {}
        manifests = 0
        for aid, meta in idx["artifacts"].items():
            if aid in doomed:
                continue
            manifests += int(meta.get("manifest_bytes", 0))
            for sha in meta["objects"]:
                obj = idx["objects"].get(sha)
                if obj is not None:
                    live_objects[sha] = int(obj["bytes"])
        return sum(live_objects.values()) + manifests

    def _iter_orphans(self, idx: Dict[str, Any]):
        """Yield ``(kind, path)`` for on-disk artifacts/blobs the index does
        not know about (leftovers of a crash between a save and the index
        write).  The single definition of "orphan" — gc deletes them,
        verify reports them."""
        known_dirs = {meta["dir"] for meta in idx["artifacts"].values()}
        if self.artifacts_dir.is_dir():
            for entry in self.artifacts_dir.iterdir():
                if f"{ARTIFACTS_DIR}/{entry.name}" not in known_dirs:
                    yield "artifact", entry
        if self.objects_dir.is_dir():
            for blob in self.objects_dir.iterdir():
                if blob.name not in idx["objects"]:
                    yield "object", blob

    def _sweep_orphans(self, idx: Dict[str, Any]) -> int:
        swept = 0
        for _kind, path in self._iter_orphans(idx):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
            swept += 1
        return swept

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def verify(self) -> List[str]:
        """Check store integrity; returns a list of problems (empty = OK).

        Every key entry must resolve to an indexed artifact; every indexed
        artifact must exist on disk with a valid manifest and its declared
        content hash; its payload and every region sidecar are re-hashed
        and must match the SHA-256 the manifest records (sizes alone would
        miss a flipped byte); every object reference must resolve to a blob
        of the declared size with an accurate reference count; and no
        orphaned blobs or artifact directories may remain.
        """
        problems: List[str] = []
        try:
            idx = self.read_index()
        except StoreError as e:
            return [str(e)]
        for key, entries in idx["keys"].items():
            for aid in entries:
                if aid not in idx["artifacts"]:
                    problems.append(f"key {key!r} references unknown artifact {aid}")
        counted: Dict[str, int] = {}
        for aid, meta in idx["artifacts"].items():
            art_dir = self.root / meta["dir"]
            try:
                manifest = read_manifest(art_dir)
            except StoreError as e:
                problems.append(f"artifact {aid}: {e}")
                continue
            if manifest["content_hash"] != meta["content_hash"]:
                problems.append(f"artifact {aid}: content hash drifted")
            files = [("payload", manifest["payload"], manifest["payload_sha256"])]
            files += [("sidecar", r["file"], r["sha256"])
                      for r in manifest["regions"]]
            for what, fname, declared in files:
                if not (art_dir / fname).exists():
                    problems.append(f"artifact {aid}: missing {what} {fname}")
                elif file_sha256(art_dir / fname) != declared:
                    problems.append(
                        f"artifact {aid}: {what} {fname} does not match its "
                        "manifest sha256"
                    )
            for sha in meta["objects"]:
                counted[sha] = counted.get(sha, 0) + 1
                obj = idx["objects"].get(sha)
                if obj is None:
                    problems.append(f"artifact {aid}: object {sha[:12]} not indexed")
                    continue
                blob = self.objects_dir / sha
                if not blob.exists():
                    problems.append(f"object {sha[:12]}: blob missing")
                elif blob.stat().st_size != obj["bytes"]:
                    problems.append(f"object {sha[:12]}: blob size mismatch")
        for sha, obj in idx["objects"].items():
            if obj["refs"] != counted.get(sha, 0):
                problems.append(
                    f"object {sha[:12]}: refcount {obj['refs']} != "
                    f"{counted.get(sha, 0)} references"
                )
        for kind, path in self._iter_orphans(idx):
            if kind == "artifact":
                problems.append(f"orphaned artifact directory {path.name}")
            else:
                problems.append(f"orphaned object {path.name[:12]}")
        return problems


def gc_artifacts(
    root: Union[str, Path],
    *,
    keep_latest: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> GCStats:
    """Compact the artifact store at ``root``; see :meth:`ArtifactStore.gc`."""
    return ArtifactStore(root).gc(keep_latest=keep_latest, max_bytes=max_bytes)
