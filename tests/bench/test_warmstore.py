"""Packed-operand warm store: memo reuse, store round trip, equivalence."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench import warmstore
from repro.bench.figures import fig10
from repro.bench.models import default_config
from repro.core import clear_caches
from repro.taco import CSR, Tensor


@pytest.fixture(autouse=True)
def isolated_warmstore():
    warmstore.set_warm_store(None)
    warmstore.set_warm_memo_enabled(True)
    warmstore.clear_warm_memo()
    clear_caches()
    yield
    warmstore.set_warm_store(None)
    warmstore.set_warm_memo_enabled(True)
    warmstore.clear_warm_memo()
    clear_caches()


def mat(seed=1):
    rng = np.random.default_rng(seed)
    return sp.random(40, 30, density=0.1, random_state=rng, format="csr")


def test_memo_reuses_one_packed_tensor_per_content():
    A = mat()
    t1 = warmstore.packed_operand("B", A, CSR)
    t2 = warmstore.packed_operand("B", A.copy(), CSR)  # equal content
    assert t1 is t2
    t3 = warmstore.packed_operand("B", mat(seed=2), CSR)
    assert t3 is not t1


def test_tensor_passthrough():
    t = Tensor.from_scipy("B", mat(), CSR)
    assert warmstore.packed_operand("B", t, CSR) is t


def test_memo_disabled_repacks_every_call():
    warmstore.set_warm_memo_enabled(False)
    A = mat()
    t1 = warmstore.packed_operand("B", A, CSR)
    t2 = warmstore.packed_operand("B", A, CSR)
    assert t1 is not t2


def test_store_round_trip_across_simulated_processes(tmp_path):
    """With the persistent store enabled, a cleared memo (the fresh-process
    stand-in) loads the packed structure instead of re-packing — values
    identical to a from-scratch pack."""
    A = mat(seed=7)
    store = warmstore.set_warm_store(tmp_path / "store")
    cold = warmstore.packed_operand("B", A, CSR)
    assert len(store.entries()) == 1

    warmstore.clear_warm_memo()
    warm = warmstore.packed_operand("B", A, CSR)
    assert warm is not cold  # loaded, not memo-hit
    assert len(store.entries()) == 1  # dedup: no second artifact
    assert np.array_equal(warm.to_dense(), cold.to_dense())
    u, c = cold.to_coo()[0], warm.to_coo()[0]
    assert all(np.array_equal(x, y) for x, y in zip(u, c))
    assert store.verify() == []


def test_content_key_distinguishes_name_and_format():
    A = mat()
    k1 = warmstore.content_key("B", CSR, A)
    k2 = warmstore.content_key("C", CSR, A)
    k3 = warmstore.content_key("B", CSR, mat(seed=3))
    assert len({k1, k2, k3}) == 3
    assert warmstore.content_key("B", CSR, A.copy()) == k1


def test_warm_started_figure_series_equals_rebuilt_series(tmp_path):
    """One fig10 sweep run with operands re-packed per trial (the seed
    behavior) and again with operands loaded from the warm store gives the
    identical series, and the store stays intact through a compaction."""
    cfg = default_config(dataset_scale=0.1)

    def series():
        clear_caches()
        return fig10("spmv", cfg, node_counts=(1, 2),
                     datasets=["arabic-2005"]).data["series"]

    warmstore.set_warm_memo_enabled(False)
    rebuilt = series()

    warmstore.set_warm_memo_enabled(True)
    store = warmstore.set_warm_store(tmp_path / "store")
    series()  # prime: publishes the packed operands
    warmstore.clear_warm_memo()  # the fresh-process stand-in
    warm = series()

    assert store.entries()  # the sweep's operands went through the store
    assert warm == rebuilt
    assert store.verify() == []
    store.gc(keep_latest=1)
    assert store.verify() == []
