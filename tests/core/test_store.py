"""Persistent artifact store: manifest, round trip, cache re-seeding."""
import hashlib
import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    cache_stats,
    clear_caches,
    compile_kernel,
    load_packed,
    read_manifest,
    save_packed,
)
from repro.core.store import MANIFEST_NAME, STORE_FORMAT_VERSION
from repro.errors import StoreError, StoreFormatError
from repro.legion import IndexSpace, Machine, Region, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 80, 64, 4


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_workload(seed=7):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.1, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", rng.random(M))
    a = Tensor.zeros("a", (N,))
    return A, B, c, a


def spmv_schedule(B, c, a):
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    return (a.schedule().divide(i, io, ii, PIECES).distribute(io)
            .communicate([a, B, c], io))


def warm(B, c, a, machine, rt, iterations=2):
    sims = []
    for _ in range(iterations):
        ck = compile_kernel(spmv_schedule(B, c, a), machine)
        res = ck.execute(rt)
        sims.append(res.metrics.simulated_seconds(rt.network))
    return sims


class TestManifest:
    def test_manifest_describes_artifact(self, tmp_path):
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        warm(B, c, a, machine, rt)
        path = save_packed(tmp_path / "art", B)
        m = read_manifest(path)
        assert m["format_version"] == STORE_FORMAT_VERSION
        assert m["tensor"]["name"] == "B"
        assert m["tensor"]["format"] == "CSR"
        assert m["tensor"]["pattern_version"] == B.pattern_version
        assert {t["name"] for t in m["companions"]} == {"a", "c"}
        assert len(m["kernels"]) == 1
        k = m["kernels"][0]
        assert k["kind"] == "spmv" and k["pieces"] == PIECES
        assert isinstance(k["fingerprint"], str) and len(k["fingerprint"]) == 64
        assert m["partition_entries"] > 0
        assert m["runtimes"] == 1 and m["trace_count"] >= 1

    def test_stable_fingerprint_is_process_independent_shape(self, tmp_path):
        """Two equal-state workloads agree on the manifest fingerprint even
        though their tensors are distinct objects (ids differ)."""
        from repro.core import stable_fingerprint

        _, B1, c1, a1 = make_workload()
        _, B2, c2, a2 = make_workload()
        machine = Machine.cpu(PIECES)
        assert stable_fingerprint(spmv_schedule(B1, c1, a1), machine) == \
               stable_fingerprint(spmv_schedule(B2, c2, a2), machine)

    def test_include_caches_false_stores_tensor_only(self, tmp_path):
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        warm(B, c, a, machine, Runtime(machine))
        path = save_packed(tmp_path / "bare", B, include_caches=False)
        m = read_manifest(path)
        assert m["kernels"] == [] and m["partition_entries"] == 0
        clear_caches()
        art = load_packed(path)
        assert art.tensor.name == "B" and art.kernels == []

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest"):
            read_manifest(tmp_path / "nowhere")

    # 3: the last code-carrying one; 4: tensors pickled a whole Assignment;
    # 5: level formats pickled a ``compressed`` flag, not their level class
    @pytest.mark.parametrize("found", [99, 3, 4, 5])
    def test_unsupported_version_raises(self, tmp_path, found, monkeypatch):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        m = json.loads((path / MANIFEST_NAME).read_text())
        m["format_version"] = found
        (path / MANIFEST_NAME).write_text(json.dumps(m))
        # refused from the manifest alone: the payload is never unpickled
        monkeypatch.setattr("pickle.loads", None)
        monkeypatch.setattr("pickle.load", None)
        with pytest.raises(StoreFormatError, match="version") as exc:
            load_packed(path)
        assert (exc.value.expected, exc.value.found) == (6, found)

    def test_stale_manifest_vs_payload_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        m = json.loads((path / MANIFEST_NAME).read_text())
        m["tensor"]["pattern_version"] += 1
        (path / MANIFEST_NAME).write_text(json.dumps(m))
        with pytest.raises(StoreError, match="pattern_version"):
            load_packed(path)

    @pytest.mark.parametrize("damage", ["truncated", "one flipped bit"])
    def test_corrupt_payload_raises_store_error(self, tmp_path, damage):
        from repro.core.store import PAYLOAD_NAME

        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=-1)  # values inline in the pickle
        payload = path / PAYLOAD_NAME
        data = bytearray(payload.read_bytes())
        if damage == "truncated":
            data = data[: len(data) // 2]
        else:
            # the lowest mantissa bit of one stored value: still a valid
            # pickle of a valid tensor — only the digest can tell
            data[data.index(B.vals.data.tobytes())] ^= 1
        payload.write_bytes(data)
        with pytest.raises(StoreError, match="corrupt payload") as exc:
            load_packed(path)
        declared = read_manifest(path)["payload_sha256"]
        assert str(payload) in str(exc.value) and declared in str(exc.value)
        assert hashlib.sha256(data).hexdigest() in str(exc.value)


class TestRoundTrip:
    def test_loaded_tensor_matches(self, tmp_path):
        A, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        t = Tensor.load(path)
        assert t is not B
        assert t.shape == B.shape and t.nnz == B.nnz
        assert np.array_equal(t.to_dense(), A.toarray())

    def test_loaded_format_equals_the_one_saved(self, tmp_path):
        _, B, _, _ = make_workload()
        t = load_packed(save_packed(tmp_path / "art", B, include_caches=False)).tensor
        assert t.format is not CSR  # pickle made new objects ...
        assert t.format == CSR and hash(t.format) == hash(CSR)  # ... of equal value

    def test_warm_start_hits_all_layers(self, tmp_path):
        """After load (fresh caches, fresh objects) the first compile hits
        the kernel cache, partitions never re-derive, and the first execute
        replays the stored mapping trace with bit-identical metrics."""
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        sims = warm(B, c, a, machine, rt, iterations=2)
        path = save_packed(tmp_path / "art", B)

        clear_caches()  # a fresh process's cache state
        art = load_packed(path)
        B2, c2, a2 = art.tensor, art.companions["c"], art.companions["a"]
        rt2 = art.runtime()
        assert rt2 is not None and rt2 is not rt
        assert rt2.trace_hits == 0 and rt2.trace_records == 0
        before = cache_stats()
        ck = compile_kernel(spmv_schedule(B2, c2, a2), machine)
        after = cache_stats()
        assert after["kernel_hits"] - before["kernel_hits"] == 1
        assert after["partition_misses"] == before["partition_misses"]
        res = ck.execute(rt2)
        assert rt2.trace_hits == 1 and rt2.trace_records == 0
        assert res.metrics.simulated_seconds(rt2.network) == sims[-1]
        assert np.array_equal(a2.vals.data, a.vals.data)

    def test_loaded_regions_do_not_collide_with_fresh_ones(self, tmp_path):
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        warm(B, c, a, machine, Runtime(machine))
        path = save_packed(tmp_path / "art", B)
        clear_caches()
        art = load_packed(path)
        loaded_uids = {
            r.uid
            for t in art.all_tensors()
            for r in ([lvl.pos for lvl in t.levels if not lvl.is_dense]
                      + [lvl.crd for lvl in t.levels if not lvl.is_dense]
                      + ([t.vals] if t.vals is not None else []))
        }
        fresh = Region(IndexSpace(4))
        assert fresh.uid not in loaded_uids
        assert fresh.uid > max(loaded_uids)

    def test_runtime_pickle_roundtrip_replays(self):
        """A pickled runtime re-anchors its trace keys on the unpickled
        partitions and replays without re-recording."""
        from repro.legion import (
            Partition, Privilege, Rect, RectSubset, RegionReq, Work,
            equal_partition,
        )

        rt = Runtime(Machine.cpu(2))
        r = Region(IndexSpace(8))
        home = Partition(r.ispace, {0: RectSubset(Rect(0, 5)),
                                    1: RectSubset(Rect(6, 7))})
        rt.place(r, home)
        req = equal_partition(r.ispace, 2)
        reqs = [RegionReq(r, req, Privilege.READ_ONLY)]
        s1 = rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs)
        assert rt.trace_records == 1

        # Pickle runtime and requirements together so the partition objects
        # in the trace keys and in the reqs stay one object graph.
        rt2, reqs2 = pickle.loads(pickle.dumps((rt, reqs)))
        rt2.reset_residency()
        s2 = rt2.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs2)
        assert rt2.trace_hits == 1 and rt2.trace_records == 0
        assert s2.comm_bytes() == s1.comm_bytes() > 0

    def test_copy_trace_only_regions_counted_in_uid_watermark(self, tmp_path):
        """A region staged only via copy_subset (never placed as a tensor
        home) still advances the uid counter on load — a fresh region must
        not collide with a stale copy-trace key."""
        from repro.legion import Rect, RectSubset

        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        warm(B, c, a, machine, rt)
        scratch = Region(IndexSpace(16), name="scratch")  # never place()-d
        step = rt.metrics.new_step("copy")
        rt.copy_subset(step, scratch, RectSubset(Rect(0, 7)), 1)
        rt.reset_residency()  # scratch leaves _residency; only the trace
        assert rt._copy_traces  # ...still references it
        assert scratch.uid not in rt._home and scratch.uid not in rt._residency
        path = save_packed(tmp_path / "art", B, runtime=rt)
        # The saved watermark must cover the trace-only region: a fresh
        # process advances its uid counter past it on load, so no new
        # region can collide with the stale copy-trace key.
        from repro.core.store import PAYLOAD_NAME

        payload = pickle.loads((path / PAYLOAD_NAME).read_bytes())
        assert payload["max_region_uid"] >= scratch.uid
        clear_caches()
        load_packed(path)
        fresh = Region(IndexSpace(4))
        assert fresh.uid > scratch.uid

    def test_save_over_file_path_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        blocker = tmp_path / "art"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError, match="not a directory"):
            save_packed(blocker, B)
