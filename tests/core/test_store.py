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


def spmv_schedule(B, c, a, streamed=()):
    """Rows; ``streamed`` tensors are also communicated at the inner row
    loop (streamed in rounds)."""
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    s = (a.schedule().divide(i, io, ii, PIECES).distribute(io)
         .communicate([a, B, c], io))
    return s.communicate(list(streamed), ii) if streamed else s


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
        assert "partition_entries" not in m
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
        assert m["kernels"] == []
        clear_caches()
        art = load_packed(path)
        assert art.tensor.name == "B" and art.kernels == []

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest"):
            read_manifest(tmp_path / "nowhere")

    # 3: the last code-carrying one; 4: tensors pickled a whole Assignment;
    # 5: level formats pickled a ``compressed`` flag, not their level class;
    # 6: residency tables pickled without their piece index;
    # 7: launch-trace keys carried a scratch slot;
    # 8: homes pickled one dedup set, partitions no bounds arrays;
    # 9: partitions pickled every piece, residency indexes lists of keys;
    # 10: homes pickled as lists or placement columns, tables per-processor lists;
    # 11: runtimes pickled a step log, a replay switch and copy traces;
    # 12: artifacts carried partition-memo entries;
    # 13: synthesized schedules' kernels were keyed by their structure;
    # 14: kernels pickled the runtime they last ran on;
    # 15: payloads paired each saved kernel with the runtimes it was placed on;
    # 16: trace keys and kernels named partitions and tensors by identity;
    # 17: a kernel could stream what its key does not say;
    # 18: payloads carried the process-wide autotune decision table
    @pytest.mark.parametrize("found", [99, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18])
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
        assert (exc.value.expected, exc.value.found) == (19, found)

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
        res = ck.execute(rt2)
        assert rt2.trace_hits == 1 and rt2.trace_records == 0
        assert res.metrics.simulated_seconds(rt2.network) == sims[-1]
        assert np.array_equal(a2.vals.data, a.vals.data)

    def test_a_stored_kernel_carries_its_own_partitions(self, tmp_path, monkeypatch):
        """The payload holds no partition entries: each stored kernel keeps
        the partitions it derived, over the loaded tensors, and the warm
        compile that hits it derives none."""
        from repro.core import partitioner
        from repro.core.store import PAYLOAD_NAME

        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        warm(B, c, a, machine, Runtime(machine), iterations=1)
        path = save_packed(tmp_path / "art", B)
        assert "partitions" not in pickle.loads((path / PAYLOAD_NAME).read_bytes())
        clear_caches()
        art = load_packed(path)
        (kernel,) = art.kernels
        B2 = art.tensor
        assert kernel.parts[B2].tensor is B2
        monkeypatch.setattr(partitioner, "partition_tensor",
                            lambda *a, **k: pytest.fail("re-derived"))
        ck = compile_kernel(spmv_schedule(B2, art.companions["c"], art.companions["a"]),
                            machine)
        assert ck is kernel

    def test_a_streamed_kernel_reads_its_tables_through_the_loaded_tensors(self):
        """A kernel keys its partitions, privileges and streamed set on its
        tensors, so a pickled one reads all three through the unpickled
        tensors, and runs as the saved one does."""
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(spmv_schedule(B, c, a, streamed=[c]), machine, use_cache=False)
        ck2, tensors = pickle.loads(pickle.dumps((ck, (B, c, a))))
        B2, c2, a2 = tensors
        assert list(ck2.parts) == [a2, B2, c2] and all(
            ck2.parts[t].tensor is t for t in tensors)
        assert ck2.privileges == dict(zip(tensors, map(ck.privileges.get, (B, c, a))))
        assert ck2._streamed == {c2}
        runs = [k.execute(Runtime(machine)) for k in (ck, ck2)]
        assert [s.comm_events for s in runs[1].metrics.steps] == \
            [s.comm_events for s in runs[0].metrics.steps]
        assert any(e.reason == f"stream {c2.vals.name}"
                   for s in runs[1].metrics.steps for e in s.comm_events)
        assert np.array_equal(a2.vals.data, a.vals.data)

    @pytest.mark.parametrize("strategy,machine", [
        ("rows", Machine.cpu(PIECES)), ("nonzeros", Machine.cpu(PIECES)),
        ("rows", Machine.gpu(PIECES)),
    ], ids=["rows-cpu", "nonzeros-cpu", "rows-gpu"])
    def test_a_synthesized_kernel_keeps_its_synthesis_key(
            self, tmp_path, strategy, machine):
        """A kernel compiled from an ``auto_schedule`` schedule, saved and
        loaded, re-keys to exactly the key a fresh ``auto_schedule`` over
        the loaded tensors computes, and the manifest names it by that key:
        the first warm compile is one hit on the stored kernel."""
        from repro.api import auto_schedule
        from repro.core import kernel_fingerprint, stable_fingerprint

        def synthesized(B, c, a):
            i, j = index_vars("i j")
            a[i] = B[i, j] * c[j]
            return auto_schedule(a, machine, strategy=strategy)

        _, B, c, a = make_workload()
        compile_kernel(synthesized(B, c, a), machine).execute(Runtime(machine))
        path = save_packed(tmp_path / "art", B)
        clear_caches()
        art = load_packed(path)
        (kernel,) = art.kernels
        fresh = synthesized(art.tensor, art.companions["c"], art.companions["a"])
        assert fresh.synthesis_key == kernel.schedule.synthesis_key
        assert kernel.cache_key == kernel_fingerprint(fresh, machine)
        assert read_manifest(path)["kernels"][0]["fingerprint"] == \
            stable_fingerprint(fresh, machine)
        before = cache_stats()
        assert compile_kernel(fresh, machine) is kernel
        assert cache_stats()["kernel_hits"] - before["kernel_hits"] == 1
        assert "loop_order" not in vars(fresh)  # the hit built nothing

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
        """A pickled runtime's trace keys name partitions by content, so it
        replays over partitions unpickled apart from it without
        re-recording."""
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
        s1 = rt.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs)
        assert rt.trace_records == 1

        rt2, reqs2 = pickle.loads(pickle.dumps(rt)), pickle.loads(pickle.dumps(reqs))
        rt2.reset_residency()
        s2 = rt2.index_launch("t", [0, 1], lambda: [Work(1, 1)] * 2, reqs2)
        assert rt2.trace_hits == 1 and rt2.trace_records == 0
        assert s2.comm_bytes() == s1.comm_bytes() > 0

    def test_trace_regions_counted_in_uid_watermark(self, tmp_path):
        """A region only a launch trace names (written, never placed) still
        advances the uid counter on load: a fresh region must not collide
        with a stale trace key."""
        from repro.core.store import PAYLOAD_NAME
        from repro.legion import Privilege, RegionReq, Work, equal_partition

        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        warm(B, c, a, machine, rt)
        scratch = Region(IndexSpace(16), name="scratch")  # never place()-d
        rt.index_launch("t", list(range(PIECES)), lambda: [Work(1, 1)] * PIECES,
                        [RegionReq(scratch, equal_partition(scratch.ispace, PIECES),
                                   Privilege.WRITE_DISCARD)])
        rt.reset_residency()  # scratch leaves _residency; only the trace names it
        assert scratch.uid not in rt._home and scratch.uid not in rt._residency
        named = {sig[0] for key in rt._traces for sig in key[3]}
        named |= {uid for t in rt._traces.values() for uid in t.residency_after}
        assert scratch.uid in named
        path = save_packed(tmp_path / "art", B, runtime=rt)
        payload = pickle.loads((path / PAYLOAD_NAME).read_bytes())
        assert payload["max_region_uid"] >= max(named)
        clear_caches()
        load_packed(path)
        assert Region(IndexSpace(4)).uid > max(named)

    def test_a_runtime_pickles_no_step_log(self, tmp_path):
        """A saved runtime carries its traces and residency, no step log,
        replay switch or copy traces, and its loaded launches return their
        steps as a fresh runtime's do."""
        from repro.core.store import PAYLOAD_NAME

        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        sims = warm(B, c, a, machine, rt)
        path = save_packed(tmp_path / "art", B, runtime=rt)
        payload = pickle.loads((path / PAYLOAD_NAME).read_bytes())
        (saved,) = payload["runtimes"]
        state = saved.__dict__
        for gone in ("metrics", "metrics_limit", "trace_replay", "_copy_traces"):
            assert gone not in state
        assert state["_traces"]
        clear_caches()
        art = load_packed(path)
        rt2 = art.runtime()
        ck = compile_kernel(spmv_schedule(art.tensor, art.companions["c"],
                                          art.companions["a"]), machine)
        res = ck.execute(rt2)
        assert not hasattr(rt2, "metrics")
        assert rt2.trace_hits == 1
        assert res.metrics.simulated_seconds(rt2.network) == sims[-1]

    def test_save_over_file_path_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        blocker = tmp_path / "art"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError, match="not a directory"):
            save_packed(blocker, B)


class TestTheStoreKeepsFacts:
    """What a runtime knows about whole partitions (``_Residency.whole``)
    names their pieces by content, so it pickles with its runtime and holds
    where that loads; what a rect computed once (``volume``, ``empty``)
    stays in the process."""

    def test_a_placed_runtime_pickles_its_facts(self):
        from repro.legion import equal_partition

        rt = Runtime(Machine.cpu(PIECES))
        r, s = Region(IndexSpace(16)), Region(IndexSpace(16))
        rt.place(r, equal_partition(r.ispace, PIECES))
        rt.place_replicated(s)
        rt.reset_residency()
        facts = {uid: res.whole for uid, res in rt._residency.items()}
        assert all(facts.values())
        loaded = pickle.loads(pickle.dumps(rt))
        assert {uid: res.whole for uid, res in loaded._residency.items()} == facts
        assert STORE_FORMAT_VERSION == 19

    def test_a_rect_pickles_the_same_with_or_without_its_cached_volume(self):
        from repro.legion import Rect

        fresh = pickle.dumps(Rect((0, 2), (5, 7)))
        r = Rect((0, 2), (5, 7))
        assert (r.volume, r.empty) == (36, False) and "volume" in vars(r)
        assert pickle.dumps(r) == fresh
        back = pickle.loads(fresh)
        assert back == r and hash(back) == hash(r) and "volume" not in vars(back)

    def test_homes_pickle_as_their_table(self):
        """A region's homes are a residency table that pickles with its
        runtime, a first placement's still as columns: the loaded runtime
        deduplicates a later placement against them as the saving one does."""
        from repro.legion import equal_partition

        rt = Runtime(Machine.cpu(PIECES))
        r, s = Region(IndexSpace(16)), Region(IndexSpace(16))
        part = equal_partition(r.ispace, PIECES)
        rt.place(r, part)
        rt.place(s, part)
        rt.place(r, equal_partition(r.ispace, PIECES))  # the same bounds: recognized whole
        assert len(rt._home[r.uid].pieces()) == PIECES
        rt.place(r, equal_partition(r.ispace, 2 * PIECES))  # new pieces, homed one by one
        assert len(rt._home[r.uid].pieces()) == 3 * PIECES
        assert rt._home[s.uid]._unmade is part
        loaded = pickle.loads(pickle.dumps(rt))
        assert loaded._home.keys() == rt._home.keys()
        assert loaded._home[s.uid]._unmade is not None  # pickled unmade
        for x in (rt, loaded):
            x.place(s, equal_partition(s.ispace, 2 * PIECES))
        assert [(type(h), h, p) for h, p in loaded._home[s.uid].pieces()] == \
               [(type(h), h, p) for h, p in rt._home[s.uid].pieces()]
        assert len(rt._home[s.uid].pieces()) == 3 * PIECES

    def test_a_trace_over_an_index_list_and_the_facts_survive_the_store(self, tmp_path):
        """SpTTV over a DDC tensor split by non-zeros launches over an
        index-list partition (of ``T.pos2``).  Its trace and the runtime's
        facts survive ``save_packed`` / ``load_packed``, so the first
        execute after the load replays."""
        from repro.api import auto_schedule
        from repro.taco import DDC

        rng = np.random.default_rng(3)
        shape, nnz = (24, 12, 8), 300
        machine = Machine.cpu(PIECES)

        def statement(T, c, A):
            i, j, k = index_vars("i j k")
            A[i, j] = T[i, j, k] * c[k]
            return auto_schedule(A, machine, strategy="nonzeros")

        T = Tensor.from_coo("T", [rng.integers(0, n, nnz) for n in shape],
                            rng.random(nnz), shape, DDC)
        c, A = Tensor.from_dense("c", rng.random(shape[2])), Tensor.zeros("A", shape[:2])
        ck = compile_kernel(statement(T, c, A), machine)
        rt = Runtime(machine)
        ck.execute(rt)
        (launch,) = ck.launches()
        assert any(req.partition is not None and req.partition.bounds is None
                   for req in launch.reqs)
        facts = {uid: res.whole for uid, res in rt._residency.items()}
        path = save_packed(tmp_path / "art", T)
        clear_caches()
        art = load_packed(path)
        rt2 = art.runtime()
        assert {uid: res.whole for uid, res in rt2._residency.items()} == facts
        ck2 = compile_kernel(statement(art.tensor, art.companions["c"],
                                       art.companions["A"]), machine)
        ck2.execute(rt2)
        assert (rt2.trace_records, rt2.trace_hits) == (0, 1)

    def test_a_loaded_runtime_replays_then_records_at_home(
            self, tmp_path, monkeypatch):
        """The first recording over the placement is at home; a loaded
        runtime holds the saving runtime's facts, so after its replay the
        next recording is at home too: it stages nothing, and books the
        events the first did."""
        from repro.legion import runtime as runtime_mod

        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        recorded = compile_kernel(spmv_schedule(B, c, a), machine).execute(rt)
        path = save_packed(tmp_path / "art", B)
        clear_caches()
        art = load_packed(path)
        B2, c2, a2 = art.tensor, art.companions["c"], art.companions["a"]
        rt2 = art.runtime()
        ck = compile_kernel(spmv_schedule(B2, c2, a2), machine)
        staged = []
        real = runtime_mod._Residency.missing_subset
        monkeypatch.setattr(runtime_mod._Residency, "missing_subset",
                            lambda *args: staged.append(1) or real(*args))
        replayed = ck.execute(rt2)
        assert rt2.trace_hits == 1 and not staged
        rt2._traces.clear()  # the loaded traces: without them the next execute records
        again = ck.execute(rt2)
        assert rt2.trace_records == 1 and not staged
        for res in (replayed, again):
            assert [s.comm_events for s in res.metrics.steps] == \
                   [s.comm_events for s in recorded.metrics.steps]
            assert res.simulated_seconds == recorded.simulated_seconds
