"""Property tests for the byte-budgeted LRU behind every cache tier.

``repro.core.cache._SizedLRU`` carries the process-wide kernel cache — the
state the multi-tenant serving layer shares across tenants — and each
session's front-door table, so its documented
semantics are pinned here against a straight-line reference model under
randomized operation interleavings:

* **exact accounting** — ``total_bytes`` equals the sum of the live
  entries' charged sizes after *any* sequence of operations;
* **budget respected** — ``total_bytes <= budget_bytes`` and
  ``len <= max_entries`` after every operation, except the documented
  single-oversized-entry case (``len == 1``);
* **recency honored** — evictions remove exactly the least-recently-used
  entries (``get``/re-``put`` refresh recency), verified by comparing
  the full surviving key order against the model;
* **counters monotone** — ``hits``/``misses``/``evictions`` never
  decrease, under serial interleavings and under a thread herd.

Runs under `hypothesis` when importable (randomized + shrinking); always
also runs a seeded-random sweep so the properties hold even where
hypothesis is absent.
"""
import random
import threading
from collections import OrderedDict

import pytest

from repro.core.cache import _SizedLRU

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False


# --------------------------------------------------------------------- #
# the reference model: the documented semantics, minus the lock
# --------------------------------------------------------------------- #
class ModelLRU:
    def __init__(self, budget_bytes, max_entries):
        self.budget_bytes = budget_bytes
        self.max_entries = max_entries
        self.map = OrderedDict()  # key -> (value, nbytes)
        self.total = 0
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        if key not in self.map:
            self.misses += 1
            return None
        self.map.move_to_end(key)
        self.hits += 1
        return self.map[key][0]

    def put(self, key, value, nbytes):
        nbytes = max(int(nbytes), 1)
        if key in self.map:
            self.total -= self.map.pop(key)[1]
        self.map[key] = (value, nbytes)
        self.total += nbytes
        while len(self.map) > 1 and (self.total > self.budget_bytes
                                     or len(self.map) > self.max_entries):
            _, (_, dropped) = self.map.popitem(last=False)
            self.total -= dropped
            self.evictions += 1

    def resize(self, budget_bytes):
        self.budget_bytes = int(budget_bytes)
        while len(self.map) > 1 and self.total > self.budget_bytes:
            _, (_, dropped) = self.map.popitem(last=False)
            self.total -= dropped
            self.evictions += 1

    def clear(self):
        self.map.clear()
        self.total = 0


def apply_op(lru, model, op):
    """One operation against both implementations; returns paired results."""
    kind = op[0]
    if kind == "put":
        _, key, nbytes = op
        lru.put(key, f"v{key}", nbytes)
        model.put(key, f"v{key}", nbytes)
        return None, None
    if kind == "get":
        return lru.get(op[1]), model.get(op[1])
    if kind == "resize":
        lru.resize(op[1])
        model.resize(op[1])
        return None, None
    if kind == "clear":
        lru.clear()
        model.clear()
        return None, None
    raise AssertionError(op)


def check_invariants(lru, model, counters_before):
    # exact accounting: total_bytes == sum of live entries' charges
    charged = sum(nb for _, (_, nb) in lru._map.items())
    assert lru.total_bytes == charged
    # budget respected (single-oversized-entry exception)
    assert lru.total_bytes <= lru.budget_bytes or len(lru) == 1
    assert len(lru) <= lru.max_entries or len(lru) == 1
    # recency honored: the survivors and their LRU order match the model
    assert list(lru._map.keys()) == list(model.map.keys())
    assert lru.total_bytes == model.total
    # counters exact vs the model, and monotone vs the previous step
    assert (lru.hits, lru.misses, lru.evictions) == (
        model.hits, model.misses, model.evictions)
    h0, m0, e0 = counters_before
    assert lru.hits >= h0 and lru.misses >= m0 and lru.evictions >= e0


def run_interleaving(ops, budget, max_entries):
    lru = _SizedLRU(budget_bytes=budget, max_entries=max_entries)
    model = ModelLRU(budget, max_entries)
    for op in ops:
        before = (lru.hits, lru.misses, lru.evictions)
        got, want = apply_op(lru, model, op)
        assert got == want, f"{op}: {got!r} != model {want!r}"
        check_invariants(lru, model, before)


# --------------------------------------------------------------------- #
# operation generators: one for hypothesis, one seeded fallback
# --------------------------------------------------------------------- #
def random_ops(rng, n_ops, key_space=12, max_nbytes=400):
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        key = rng.randrange(key_space)
        if r < 0.55:
            ops.append(("put", key, rng.randrange(0, max_nbytes)))
        elif r < 0.90:
            ops.append(("get", key))
        elif r < 0.97:
            ops.append(("resize", rng.randrange(1, 1200)))
        else:
            ops.append(("clear",))
    return ops


if HAVE_HYPOTHESIS:
    _op = st.one_of(
        st.tuples(st.just("put"), st.integers(0, 11), st.integers(0, 400)),
        st.tuples(st.just("get"), st.integers(0, 11)),
        st.tuples(st.just("resize"), st.integers(1, 1200)),
        st.tuples(st.just("clear")),
    )

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_op, max_size=60),
           budget=st.integers(1, 1000),
           max_entries=st.integers(1, 8))
    def test_lru_matches_model_hypothesis(ops, budget, max_entries):
        run_interleaving(ops, budget, max_entries)
else:  # pragma: no cover - environment-dependent
    def test_lru_matches_model_hypothesis():
        pytest.skip("hypothesis not importable; seeded sweep still runs")


def test_lru_matches_model_seeded_sweep():
    # The hypothesis-free floor: 300 random interleavings from fixed seeds.
    for seed in range(300):
        rng = random.Random(seed)
        budget = rng.randrange(1, 1000)
        max_entries = rng.randrange(1, 8)
        run_interleaving(random_ops(rng, 60), budget, max_entries)


# --------------------------------------------------------------------- #
# targeted edge properties
# --------------------------------------------------------------------- #
def test_single_oversized_entry_still_caches():
    lru = _SizedLRU(budget_bytes=10, max_entries=4)
    lru.put("huge", "v", nbytes=10_000)
    assert lru.get("huge") == "v"
    assert len(lru) == 1 and lru.total_bytes == 10_000
    # the next put displaces it and restores the budget
    lru.put("small", "w", nbytes=5)
    assert lru.get("huge") is None
    assert lru.total_bytes <= 10


def test_eviction_order_is_exactly_lru():
    lru = _SizedLRU(budget_bytes=300, max_entries=100)
    for k in "abc":
        lru.put(k, k, nbytes=100)
    lru.get("a")  # refresh: b is now least recent
    lru.put("d", "d", nbytes=100)  # evicts b
    assert lru.get("b") is None
    assert [k for k, _ in lru.items()] == ["c", "a", "d"]
    # re-putting c charges nothing new (same size): recency refreshes,
    # nothing is evicted
    lru.put("c", "c2", nbytes=100)
    assert [k for k, _ in lru.items()] == ["a", "d", "c"]


def test_zero_and_negative_nbytes_charge_at_least_one_byte():
    lru = _SizedLRU(budget_bytes=100, max_entries=100)
    lru.put("z", "v", nbytes=0)
    lru.put("n", "v", nbytes=-5)
    assert lru.total_bytes == 2


def test_counters_monotone_under_thread_herd():
    lru = _SizedLRU(budget_bytes=2_000, max_entries=64)
    snaps = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            snaps.append((lru.hits, lru.misses, lru.evictions))

    def writer(tid):
        rng = random.Random(tid)
        for i in range(400):
            lru.put((tid, i % 16), i, nbytes=rng.randrange(1, 200))
            lru.get((tid, rng.randrange(16)))

    rt = threading.Thread(target=reader)
    rt.start()
    writers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    for t in writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    rt.join()
    # the reader's interleaved snapshots never observe a counter decrease
    for a, b in zip(snaps, snaps[1:]):
        assert b[0] >= a[0] and b[1] >= a[1] and b[2] >= a[2]
    # final accounting is exact even after the concurrent churn
    assert lru.total_bytes == sum(nb for _, (_, nb) in lru._map.items())
    assert lru.total_bytes <= 2_000 or len(lru) == 1
