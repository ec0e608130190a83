"""mmap-backed region sidecars: lazy loading, copy-on-write promotion."""
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
from repro.core.store import REGIONS_DIR
from repro.errors import StoreError, StoreFormatError
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 80, 64, 4


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_workload(seed=7, n=N, m=M):
    rng = np.random.default_rng(seed)
    A = sp.random(n, m, density=0.1, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", rng.random(m))
    a = Tensor.zeros("a", (n,))
    return A, B, c, a


def spmv_schedule(B, c, a, pieces=PIECES):
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    return (a.schedule().divide(i, io, ii, pieces).distribute(io)
            .communicate([a, B, c], io))


class TestSidecars:
    def test_sidecars_written_and_listed(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        m = read_manifest(path)
        assert m["regions"]  # pos, crd, vals left the pickle
        for rmeta in m["regions"]:
            assert (path / rmeta["file"]).exists()
            assert rmeta["file"].startswith(REGIONS_DIR)
            assert len(rmeta["sha256"]) == 64
        assert "content_hash" in m and "payload_sha256" in m

    def test_eager_load_roundtrip(self, tmp_path):
        A, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path).tensor
        assert np.array_equal(t.to_dense(), A.toarray())
        for region in t.regions():
            assert region.data.flags.writeable
            assert not region.is_mapped

    def test_negative_threshold_inlines_everything(self, tmp_path):
        A, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=-1)
        assert read_manifest(path)["regions"] == []
        t = load_packed(path, mmap=True).tensor
        assert np.array_equal(t.to_dense(), A.toarray())

    def test_missing_sidecar_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        next((path / REGIONS_DIR).iterdir()).unlink()
        with pytest.raises(StoreError, match="missing sidecar"):
            load_packed(path, mmap=True)

    def test_save_does_not_disturb_live_tensor(self, tmp_path):
        """Sidecar extraction swaps arrays only for the duration of the
        pickle — the saved tensor keeps its real arrays afterwards."""
        A, B, _, _ = make_workload()
        save_packed(tmp_path / "art", B, include_caches=False,
                    sidecar_threshold=0)
        for region in B.regions():
            assert isinstance(region.data, np.ndarray)
        assert np.array_equal(B.to_dense(), A.toarray())


class TestMmap:
    def test_mmap_load_is_lazy_and_readonly(self, tmp_path):
        A, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path, mmap=True).tensor
        mapped = [r for r in t.regions() if r.is_mapped]
        assert mapped  # pos/crd/vals all served from the map
        for region in mapped:
            assert isinstance(region.data, np.memmap)
            assert not region.data.flags.writeable
        # reads work without promotion
        assert np.array_equal(t.to_dense(), A.toarray())
        assert all(r.is_mapped for r in mapped)

    def test_promotion_bumps_pattern_version(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path, mmap=True).tensor
        v0 = t.pattern_version
        region = t.vals
        assert region.is_mapped
        # region-method write promotes automatically...
        region.fill(1.0)
        assert not region.is_mapped and region.data.flags.writeable
        # ...and the owning tensor's pattern_version was bumped.
        assert t.pattern_version > v0

    def test_ensure_writable_promotes_all_regions(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path, mmap=True).tensor
        v0 = t.pattern_version
        promoted = t.ensure_writable()
        assert promoted >= 3  # pos, crd, vals
        assert all(not r.is_mapped for r in t.regions())
        assert t.pattern_version == v0 + promoted
        t.vals.data[...] = 2.0  # raw NumPy writes now succeed

    def test_raw_write_to_mapped_region_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path, mmap=True).tensor
        with pytest.raises(ValueError, match="read-only"):
            t.vals.data[...] = 1.0

    def test_promotion_is_idempotent(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        t = load_packed(path, mmap=True).tensor
        assert t.vals.promote() is True
        v1 = t.pattern_version
        assert t.vals.promote() is False  # already writable: no hook refire
        assert t.pattern_version == v1


class TestMmapWarmStart:
    def warm(self, B, c, a, machine, rt, iterations=2):
        sims = []
        for _ in range(iterations):
            ck = compile_kernel(spmv_schedule(B, c, a), machine)
            res = ck.execute(rt)
            sims.append(res.metrics.simulated_seconds(rt.network))
        return sims

    def test_mmap_warm_start_reaches_steady_state_under_ram_budget(
        self, tmp_path
    ):
        """The acceptance scenario: an artifact whose region data exceeds a
        simulated RAM budget loads via mmap, keeps the big read-only
        operands out of RAM, and still reaches cached steady state on the
        first execute (kernel hit, trace replay, bit-identical metrics)."""
        _, B, c, a = make_workload(n=2000, m=1600)
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        sims = self.warm(B, c, a, machine, rt)
        total_region_bytes = sum(
            r.data.nbytes for t in (B, c, a) for r in t.regions()
        )
        ram_budget = total_region_bytes // 4  # the simulated RAM budget
        path = save_packed(tmp_path / "art", B, sidecar_threshold=0)

        clear_caches()  # the fresh process's cache state
        art = load_packed(path, mmap=True)
        residency = art.region_residency()
        # The artifact exceeds the budget, but only write-privileged
        # regions (the output vector) were materialized.
        assert residency["mapped"] + residency["resident"] > ram_budget
        assert residency["resident"] <= ram_budget
        assert residency["mapped"] > residency["resident"]

        B2, c2, a2 = art.tensor, art.companions["c"], art.companions["a"]
        assert any(r.is_mapped for r in B2.regions())
        assert not any(r.is_mapped for r in a2.regions())  # promoted output
        rt2 = art.runtime()
        before = cache_stats()
        ck = compile_kernel(spmv_schedule(B2, c2, a2), machine)
        after = cache_stats()
        assert after["kernel_hits"] - before["kernel_hits"] == 1
        res = ck.execute(rt2)
        assert rt2.trace_hits >= 1 and rt2.trace_records == 0
        assert res.metrics.simulated_seconds(rt2.network) == sims[-1]
        assert np.array_equal(a2.vals.data, a.vals.data)

    def test_writable_names_promote_before_cache_reseed(self, tmp_path):
        """Tensors named in ``writable`` are promoted before the caches are
        re-seeded, so their version bumps cannot break the first-compile
        cache hit — and their data is directly writable for value updates
        between iterations."""
        _, B, c, a = make_workload()
        machine = Machine.cpu(PIECES)
        rt = Runtime(machine)
        self.warm(B, c, a, machine, rt)
        path = save_packed(tmp_path / "art", B, sidecar_threshold=0)
        clear_caches()
        art = load_packed(path, mmap=True, writable=["c"])
        c2 = art.companions["c"]
        assert not any(r.is_mapped for r in c2.regions())
        c2.vals.data[...] = 0.5  # the iterative-loop value update
        before = cache_stats()
        compile_kernel(spmv_schedule(art.tensor, c2, art.companions["a"]),
                       machine)
        assert cache_stats()["kernel_hits"] - before["kernel_hits"] == 1

    def test_unknown_writable_name_raises(self, tmp_path):
        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False,
                           sidecar_threshold=0)
        with pytest.raises(StoreError, match="unknown tensor"):
            load_packed(path, mmap=True, writable=["nope"])

    def test_fresh_kernel_writing_into_mapped_tensor_promotes(self, tmp_path):
        """A kernel compiled *after* the load (so load_packed knew no write
        privileges for it) still promotes its write targets before the leaf
        captures their arrays — instead of crashing on the read-only map."""
        rng = np.random.default_rng(13)
        a = Tensor.from_dense("a", rng.random(N))
        path = save_packed(tmp_path / "art", a, include_caches=False,
                           sidecar_threshold=0)
        a2 = load_packed(path, mmap=True).tensor
        assert any(r.is_mapped for r in a2.regions())
        v0 = a2.pattern_version
        A, B, c, _ = make_workload(seed=21)
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(spmv_schedule(B, c, a2), machine)
        ck.execute(Runtime(machine))
        assert not any(r.is_mapped for r in a2.regions())
        assert a2.pattern_version > v0
        assert np.allclose(a2.vals.data, A @ c.vals.data)


class TestManifestValidation:
    def test_missing_required_key_is_typed_error(self, tmp_path):
        import json

        from repro.core.store import MANIFEST_NAME

        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        m = json.loads((path / MANIFEST_NAME).read_text())
        del m["tensor"]
        (path / MANIFEST_NAME).write_text(json.dumps(m))
        with pytest.raises(StoreFormatError, match="required keys: tensor"):
            load_packed(path)

    def test_version_mismatch_reports_expected_and_found(self, tmp_path):
        import json

        from repro.core.store import MANIFEST_NAME, STORE_FORMAT_VERSION

        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        m = json.loads((path / MANIFEST_NAME).read_text())
        m["format_version"] = 1
        (path / MANIFEST_NAME).write_text(json.dumps(m))
        with pytest.raises(StoreFormatError) as err:
            load_packed(path)
        assert err.value.expected == STORE_FORMAT_VERSION
        assert err.value.found == 1
        assert str(path) in str(err.value)

    def test_truncated_manifest_is_typed_error(self, tmp_path):
        from repro.core.store import MANIFEST_NAME

        _, B, _, _ = make_workload()
        path = save_packed(tmp_path / "art", B, include_caches=False)
        text = (path / MANIFEST_NAME).read_text()
        (path / MANIFEST_NAME).write_text(text[: len(text) // 2])
        with pytest.raises(StoreFormatError, match="corrupt manifest"):
            load_packed(path)
