"""Content-addressed artifact index: dedup, retention, GC, integrity."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import clear_caches, compile_kernel, load_packed
from repro.core.store_index import ArtifactStore, fingerprint_key, gc_artifacts
from repro.errors import StoreError
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 60, 48, 4


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_tensor(name="B", seed=7):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.1, random_state=rng, format="csr")
    return Tensor.from_scipy(name, A, CSR)


def spmv_schedule(B, c, a):
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    return (a.schedule().divide(i, io, ii, PIECES).distribute(io)
            .communicate([a, B, c], io))


class TestPutResolve:
    def test_put_indexes_and_resolves_latest(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        B = make_tensor()
        path = store.put(B, include_caches=False, keys=["custom:one"])
        assert path.is_dir()
        assert store.resolve("tensor:B") == path
        assert store.resolve("custom:one") == path
        assert store.resolve("missing") is None
        art = store.load("tensor:B")
        assert np.array_equal(art.tensor.to_dense(), B.to_dense())

    def test_latest_wins_per_key(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(make_tensor(seed=1), include_caches=False, keys=["k"])
        p2 = store.put(make_tensor(seed=2), include_caches=False, keys=["k"])
        assert store.resolve("k") == p2
        assert len(store.entries("k")) == 2

    def test_resolve_by_schedule_fingerprint(self, tmp_path):
        """load_packed resolves 'latest artifact for this schedule' via one
        index lookup — no directory scanning."""
        store = ArtifactStore(tmp_path / "store")
        B = make_tensor()
        rng = np.random.default_rng(3)
        c = Tensor.from_dense("c", rng.random(M))
        a = Tensor.zeros("a", (N,))
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        ck = compile_kernel(spmv_schedule(B, c, a), machine)
        ck.execute(rt)
        store.put(B)  # auto-keyed on the kernel's stable fingerprint
        key = fingerprint_key(spmv_schedule(B, c, a), machine)
        assert store.resolve(key) is not None
        clear_caches()
        art = store.load_latest(spmv_schedule(B, c, a), machine)
        assert "B" in {t.name for t in art.all_tensors()}
        assert art.kernels  # cache re-seeded from the resolved artifact

    def test_load_unknown_key_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreError, match="no artifact indexed"):
            store.load("nope")


class TestDedup:
    def test_identical_content_reuses_artifact(self, tmp_path):
        """A put whose content hash already exists creates no new artifact:
        the existing one gains the new keys (the dedup hit)."""
        store = ArtifactStore(tmp_path / "store")
        B = make_tensor()
        p1 = store.put(B, include_caches=False, keys=["k1"])
        p2 = store.put(B, include_caches=False, keys=["k2"])
        assert p1 == p2
        assert store.resolve("k1") == p1 and store.resolve("k2") == p1
        assert len(store.entries()) == 1

    def test_dedup_without_hard_links_keeps_artifact_files(self, tmp_path,
                                                           monkeypatch):
        """On filesystems without hard links the blob is copied and the
        artifact keeps (or gets back) its own file — dedup degradation must
        never lose a payload or sidecar."""
        import os as _os

        def no_link(*_a, **_k):
            raise OSError("links not supported")

        monkeypatch.setattr(_os, "link", no_link)
        store = ArtifactStore(tmp_path / "store")
        rng = np.random.default_rng(5)
        A = sp.random(N, M, density=0.1, random_state=rng, format="csr")
        store.put(Tensor.from_scipy("B", A, CSR), include_caches=False,
                  sidecar_threshold=0)
        store.put(Tensor.from_scipy("B", A, CSR), include_caches=False,
                  sidecar_threshold=0)  # same region content: blobs collide
        assert store.verify() == []
        for entry in store.entries():
            art = load_packed(tmp_path / "store" / entry["dir"])
            assert np.array_equal(art.tensor.to_dense(), A.toarray())

    def test_shared_sidecars_stored_once(self, tmp_path):
        """Two artifacts with distinct payloads but identical region data
        share the sidecar blobs by content hash."""
        store = ArtifactStore(tmp_path / "store")
        rng = np.random.default_rng(5)
        A = sp.random(N, M, density=0.1, random_state=rng, format="csr")
        B1 = Tensor.from_scipy("B", A, CSR)
        B2 = Tensor.from_scipy("B", A, CSR)  # equal data, new uids/pickle
        store.put(B1, include_caches=False, sidecar_threshold=0)
        store.put(B2, include_caches=False, sidecar_threshold=0)
        idx = store.read_index()
        assert len(idx["artifacts"]) == 2
        shared = [o for o in idx["objects"].values() if o["refs"] == 2]
        assert shared  # pos/crd/vals blobs are shared
        assert store.verify() == []


class TestGC:
    def test_keep_latest_retention(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        paths = [store.put(make_tensor(seed=s), include_caches=False, keys=["k"])
                 for s in range(3)]
        stats = store.gc(keep_latest=2)
        assert stats.removed_artifacts == 1
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()
        assert store.resolve("k") == paths[2]
        assert store.verify() == []

    def test_artifact_survives_while_any_key_retains_it(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        shared = store.put(make_tensor(seed=1), include_caches=False,
                           keys=["a", "b"])
        store.put(make_tensor(seed=2), include_caches=False, keys=["a"])
        store.gc(keep_latest=1)  # newest under "a" is #2; under "b" is #1
        assert shared.exists()
        assert store.resolve("b") == shared

    def test_max_bytes_bounds_store(self, tmp_path):
        """gc(max_bytes=...) bounds a directory that previously grew without
        limit, evicting LRU artifacts but never the newest."""
        store = ArtifactStore(tmp_path / "store")
        newest = None
        for s in range(4):
            newest = store.put(make_tensor(name=f"B{s}", seed=s),
                               include_caches=False)
        before = store.total_bytes()
        budget = before // 3
        stats = store.gc(max_bytes=budget)
        assert stats.removed_artifacts >= 1
        assert stats.bytes_after < stats.bytes_before
        # Bounded by the budget — unless only the never-evicted newest
        # artifact remains and it alone exceeds it (the LRU rule).
        assert stats.bytes_after <= budget or len(store.entries()) == 1
        assert newest.exists()  # the newest artifact is never evicted
        assert store.verify() == []

    def test_gc_removes_orphaned_payloads_and_blobs(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(make_tensor(seed=1), include_caches=False, keys=["k"])
        store.put(make_tensor(seed=2), include_caches=False, keys=["k"])
        # A crash between save and index write leaves an orphan dir.
        orphan = store.artifacts_dir / "a999999"
        orphan.mkdir()
        (orphan / "junk.pkl").write_bytes(b"x")
        stats = store.gc(keep_latest=1)
        assert not orphan.exists()
        assert stats.swept_orphans >= 1
        # No object blob survives without a referencing artifact.
        idx = store.read_index()
        on_disk = {p.name for p in store.objects_dir.iterdir()}
        assert on_disk == set(idx["objects"])
        assert store.verify() == []

    def test_module_level_gc_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for s in range(3):
            store.put(make_tensor(seed=s), include_caches=False, keys=["k"])
        stats = gc_artifacts(tmp_path / "store", keep_latest=1)
        assert stats.removed_artifacts == 2
        assert len(store.entries()) == 1

    def test_keep_latest_zero_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreError, match="keep_latest"):
            store.gc(keep_latest=0)


class TestVerify:
    def test_verify_detects_missing_blob(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(make_tensor(), include_caches=False, sidecar_threshold=0)
        blob = next(store.objects_dir.iterdir())
        blob.unlink()
        problems = store.verify()
        assert any("blob missing" in p or "missing sidecar" in p
                   or "missing payload" in p for p in problems)

    @pytest.mark.parametrize("victim", ["payload.pkl", "regions/*.npy"])
    def test_verify_detects_one_flipped_byte(self, tmp_path, victim):
        """Same size, same pickle/npy validity — only a re-hash can tell."""
        store = ArtifactStore(tmp_path / "store")
        art_dir = store.put(make_tensor(), include_caches=False,
                            sidecar_threshold=0)
        target = sorted(art_dir.glob(victim))[0]
        data = bytearray(target.read_bytes())
        data[-1] ^= 1
        target.write_bytes(data)
        (problem,) = store.verify()
        assert target.name in problem and "manifest sha256" in problem

    def test_verify_detects_orphan_blob(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(make_tensor(), include_caches=False)
        (store.objects_dir / ("0" * 64)).write_bytes(b"junk")
        assert any("orphaned object" in p for p in store.verify())

    def test_verify_clean_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(make_tensor(), include_caches=False)
        assert store.verify() == []
