"""Session.autotune: search, decision replay, and warm-start persistence.

Three contracts:

* **selection** — on the paper's Figure-10/11 workload shapes the tuner
  picks the strategy the hand-written schedules use (rows for CPU SpMV /
  SpMM on balanced matrices, non-zeros for GPU SpMM on skewed ones), and
  the 2-D ``grid`` strategy wins a square-grid SpMM whose row stripes
  defeat the 1-D split (``repro.data.matrices.striped``);
* **replay** — the decision table drives every later ``execute``/``einsum``
  of the same statement family to the winning strategy with zero search
  trials;
* **persistence** — winner decision + compiled kernel + mapping trace
  round-trip through the :class:`~repro.core.store_index.ArtifactStore`,
  and a fresh process (simulated with ``clear_caches`` + reload, the
  ``tests/bench/test_mmap_drivers.py`` pattern) warm-starts straight to
  the winning strategy: zero trials, kernel-cache hit, trace replay.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.api.session import AutotuneResult
from repro.bench.harness import spdistal_spmm, spdistal_spmv
from repro.bench.models import default_config
from repro.core import cache as _cache
from repro.core import clear_caches
from repro.data.matrices import striped, uniform_random
from repro.data.suite import load_matrix


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _spmv(s, M, seed=1):
    B = s.tensor("B", M, repro.CSR)
    c = s.tensor("c", np.random.default_rng(seed).random(M.shape[1]))
    a = s.zeros("a", (M.shape[0],))
    i, j = repro.index_vars("i j")
    a[i] = B[i, j] * c[j]
    return a, B, c


def _spmm(s, M, k=32, seed=1):
    B = s.tensor("B", M, repro.CSR)
    C = s.tensor("C", np.random.default_rng(seed).random((M.shape[1], k)))
    out = s.zeros("A", (M.shape[0], k))
    i, kk, j = repro.index_vars("i k j")
    out[i, j] = B[i, kk] * C[kk, j]
    return out, B, C


class TestStrategySelection:
    def test_fig10_cpu_spmv_and_spmm_pick_rows(self):
        """Fig. 10's CPU schedules are row-based; the tuner agrees on the
        balanced Table-II stand-ins (web graph for SpMV, the near-uniform
        k-mer graph for SpMM)."""
        M = load_matrix("arabic-2005", 0.2)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            r = s.autotune(a, trials=1)
            assert r.strategy == "rows"
            assert not r.from_cache and r.trials_run >= 2  # searched
        clear_caches()
        with repro.session(nodes=4) as s:
            out, *_ = _spmm(s, load_matrix("kmer_A2a", 0.2))
            r = s.autotune(out, trials=1)
            assert r.strategy == "rows"
            tried = {c.strategy for c in r.candidates}
            assert tried == {"rows", "nonzeros", "grid"}

    def test_fig11_gpu_spmm_picks_nonzeros_spmv_rows(self):
        """Fig. 11's GPU SpMM schedule is non-zero based (skew-driven);
        SpMV stays row-based on both processor kinds (paper §VI-A)."""
        M = load_matrix("twitter7", 0.2)
        with repro.session(gpus=4) as s:
            out, *_ = _spmm(s, M)
            r = s.autotune(out, trials=1)
            assert r.strategy == "nonzeros"
        clear_caches()
        with repro.session(gpus=4) as s:
            a, *_ = _spmv(s, M)
            r = s.autotune(a, trials=1)
            assert r.strategy == "rows"

    def test_grid_wins_striped_square_spmm(self):
        """Alternating heavy/light row stripes: the 1-D row split is
        imbalanced at chunk granularity, the non-zero split pays its
        segment-reduction overhead for an imbalance a 2x2 grid fixes for
        free — the 2-D grid strategy must win."""
        M = striped(2000, 30000, heavy_frac=0.9, seed=9)
        with repro.session(nodes=4) as s:
            out, B, C = _spmm(s, M, k=32)
            r = s.autotune(out, trials=2)
            assert r.strategy == "grid"
            by = {c.strategy: c.simulated_seconds for c in r.candidates}
            assert by["grid"] < by["rows"] and by["grid"] < by["nonzeros"]
            # the winner kernel is the 2-D launch and computes the truth
            assert r.kernel.strategy == "grid"
            assert np.allclose(out.dense_array(), M @ C.dense_array())

    def test_generic_statement_tunes_over_its_legal_strategies_only(self):
        """The pool is the kernel table's legal strategies: the generic
        COO engine only distributes coordinates, so a generic statement
        with one sparse operand must not be offered the non-zero split
        its leaf refuses (that candidate used to abort the search with a
        CompileError)."""
        M = uniform_random(40, 0.1, seed=3)
        with repro.session(nodes=4) as s:
            B = s.tensor("B", M, repro.CSR)
            rng = np.random.default_rng(2)
            c, d = s.tensor("c", rng.random(40)), s.tensor("d", rng.random(40))
            a = s.zeros("a", (40,))
            i, j = repro.index_vars("i j")
            a[i] = B[i, j] * c[j] * d[i]
            result = s.autotune(a)
            assert result.kernel.kind == "generic"
            assert [cand.strategy for cand in result.candidates] == ["rows"]
            np.testing.assert_allclose(
                a.to_dense(), (M @ c.to_dense()) * d.to_dense()
            )

    def test_losing_oom_candidate_does_not_win(self):
        """A candidate that OOMs is recorded as DNC and never selected."""
        M = uniform_random(400, 0.02, seed=3)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            r = s.autotune(a, trials=1)
            assert all(np.isfinite(c.simulated_seconds) or c.oom
                       for c in r.candidates)
            winner = next(c for c in r.candidates if c.strategy == r.strategy)
            assert winner.ok


class TestTunedMatchesHandWritten:
    """The tuner matches or beats the paper's schedules: on the figure
    workloads the tuned statement's steady trial costs at most 5% more
    simulated seconds than the best of the hand-written ``rows`` /
    ``nonzeros`` schedules (the ``repro.bench.harness`` runners).

    Priced at the paper's rate balance (``rate_scale=1.0``): the scaled
    model keeps per-event costs at Lassen values while shrinking the
    data-proportional terms, which shifts marginal crossovers on the small
    stand-in datasets.  Tuned and hand runs share the model either way.
    """

    CASES = {
        "fig10-spmv-cpu": ("spmv", lambda: load_matrix("arabic-2005", 0.2), None),
        "fig10-spmm-cpu": ("spmm", lambda: load_matrix("kmer_A2a", 0.2), None),
        "fig11-spmm-gpu": ("spmm", lambda: load_matrix("twitter7", 0.2), 4),
        "striped-spmm-grid": (
            "spmm", lambda: striped(2000, 30_000, heavy_frac=0.9, seed=9), None),
    }

    @pytest.mark.parametrize("label", CASES)
    def test_tuned_within_5pct_of_best_hand_schedule(self, label):
        kind, load, gpus = self.CASES[label]
        M = load()
        cfg = default_config(rate_scale=1.0, dataset_scale=0.2)
        rng = np.random.default_rng(3)
        if kind == "spmv":
            hand_runner, build = spdistal_spmv, _spmv
            dense = rng.random(M.shape[1])
        else:
            hand_runner, build = spdistal_spmm, _spmm
            dense = rng.random((M.shape[1], 32))
        hand = [
            r.seconds
            for r in (hand_runner(M, dense, 4, cfg, gpus=gpus, strategy=st)
                      for st in ("rows", "nonzeros"))
            if r.ok
        ]
        assert hand, "every hand-written strategy OOMed"
        clear_caches()
        machine = cfg.gpu_machine(gpus) if gpus else cfg.cpu_machine(4)
        with repro.Session(machine=machine, network=cfg.legion_network()) as s:
            out, *_ = build(s, M)
            s.autotune(out, trials=1)
            tuned = s.execute(out).simulated_seconds  # steady: trace replays
        assert tuned <= 1.05 * min(hand)


class TestDecisionReplay:
    def test_second_autotune_is_zero_trials(self):
        M = uniform_random(600, 0.02, seed=4)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            r1 = s.autotune(a, trials=2)
            r2 = s.autotune(a)
            assert r2.from_cache and r2.trials_run == 0
            assert r2.strategy == r1.strategy
            assert r2.kernel is r1.kernel  # the cached winner
            r3 = s.autotune(a, force=True)  # explicit re-search
            assert not r3.from_cache and r3.trials_run > 0

    def test_restricted_pool_bypasses_cached_decision(self):
        """strategies= must be honored even when the decision table holds
        a winner outside the requested pool — and the constrained search
        must not overwrite the full-pool family decision."""
        M = uniform_random(500, 0.02, seed=4)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            r1 = s.autotune(a, trials=1)
            r2 = s.autotune(a, strategies=["nonzeros"], trials=1)
            assert r2.strategy == "nonzeros" and not r2.from_cache
            decision = _cache.lookup_decision(r1.decision_key)
            assert decision["strategy"] == r1.strategy
            r3 = s.autotune(a)
            assert r3.from_cache and r3.strategy == r1.strategy

    def test_restricted_probe_on_fresh_session_records_no_policy(self):
        """strategies= is a one-off measurement: on an untuned session it
        must not seed the decision table, so plain executes keep the
        paper's static default."""
        M = uniform_random(500, 0.02, seed=4)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            r = s.autotune(a, strategies=["nonzeros"], trials=1)
            assert r.strategy == "nonzeros"
            assert _cache.cache_stats()["decision_entries"] == 0
            assert s.compile_kernel(a.assignment).strategy == "rows"

    def test_tuned_grid_never_breaks_pieces_override(self):
        """A recorded 'grid' decision must not turn a previously valid
        non-square pieces= call into a ScheduleError — schedule_for falls
        back to the static default synthesis."""
        M = striped(1500, 20_000, heavy_frac=0.9, seed=2)
        with repro.session(nodes=4) as s:
            out, *_ = _spmm(s, M, k=16)
            assert s.autotune(out, trials=1).strategy == "grid"
            sched = s.schedule_for(out.assignment, pieces=6)
            assert sched.distributed  # built, not raised

    def test_cached_autotune_still_warms_session_runtime(self):
        """The warm contract holds on the from-cache path: the winner
        executes once on the session runtime and last_result is set."""
        M = uniform_random(400, 0.02, seed=6)
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, M)
            s.autotune(a, trials=1)
            s.last_result = None
            r = s.autotune(a)
            assert r.from_cache and s.last_result is not None
            r2 = s.autotune(a, warm=False)
            assert r2.from_cache

    def test_skew_bucket_separates_pattern_families(self):
        """The decision key must distinguish a hub-row matrix from a
        uniform one of the same shape/nnz (the statistic that drives the
        rows-vs-nonzeros choice), even when nnz <= nrows."""
        import scipy.sparse as ssp

        n = 1000
        hub = ssp.csr_matrix(
            (np.ones(50), (np.zeros(50, int), np.arange(50))), shape=(n, n)
        )
        uni = ssp.random(n, n, density=50 / (n * n), format="csr",
                         random_state=np.random.default_rng(0))
        th = repro.Tensor.from_scipy("B", hub, repro.CSR)
        tu = repro.Tensor.from_scipy("B", uni, repro.CSR)
        assert _cache._pattern_stats(th)[-1] > _cache._pattern_stats(tu)[-1]

    def test_execute_replays_winning_strategy_and_trace(self):
        M = striped(1500, 20000, heavy_frac=0.9, seed=2)
        with repro.session(nodes=4) as s:
            out, B, C = _spmm(s, M)
            r = s.autotune(out, trials=1)
            assert r.strategy == "grid"
            # plain execute goes through the decision table: same kernel,
            # and the warm-up trace recorded by autotune replays
            hits0 = s.stats()["trace_hits"]
            ck = s.compile_kernel(out.assignment)
            assert ck is r.kernel
            s.execute(out)
            assert s.stats()["trace_hits"] > hits0

    def test_einsum_autotune_records_then_replays(self):
        M = uniform_random(500, 0.02, seed=5)
        with repro.session(nodes=4) as s:
            B = s.tensor("B", M, repro.CSR)
            c = s.tensor("c", np.random.default_rng(6).random(500))
            a1 = repro.einsum("ij,j->i", B, c, session=s, autotune=True,
                              trials=1)
            assert np.allclose(a1.vals.data, M @ c.dense_array())
            assert _cache.cache_stats()["decision_entries"] == 1
            hits0 = _cache.cache_stats()["decision_hits"]
            a2 = repro.einsum("ij,j->i", B, c, session=s)
            assert np.allclose(a2.vals.data, M @ c.dense_array())
            assert _cache.cache_stats()["decision_hits"] > hits0

    def test_program_autotune_tunes_each_statement(self):
        M = uniform_random(400, 0.02, seed=7)
        with repro.session(nodes=4) as s:
            a, B, c = _spmv(s, M)
            y = s.zeros("y", (400,))
            i2, j2 = repro.index_vars("i2 j2")
            with s.program() as p:
                y[i2] = B[i2, j2] * c[j2]
            p.define(a.assignment)
            results = s.autotune(p, trials=1)
            assert len(results) == 2
            assert all(isinstance(r, AutotuneResult) for r in results)


class TestPersistenceRoundTrip:
    """Winner decision + trace saved through ArtifactStore; a fresh
    process warm-starts to the winning strategy with zero search trials."""

    def _workload(self, s):
        M = striped(1600, 22000, heavy_frac=0.9, seed=11)
        return _spmm(s, M, k=16)

    def test_warm_start_replays_decision_with_zero_trials(self, tmp_path):
        from repro.core.store_index import ArtifactStore

        store_dir = tmp_path / "store"
        with repro.session(nodes=4, store=store_dir) as s:
            out, B, C = self._workload(s)
            r = s.autotune(out, trials=2)
            assert r.strategy == "grid" and not r.from_cache
            s.execute(out)  # a steady-state pass on the session runtime
            s.put(B, keys=["autotune:spmm"])

        # --- the "fresh process" (mmap-drivers pattern) ------------------
        clear_caches()
        store = ArtifactStore(store_dir)
        art = store.load("autotune:spmm")
        assert art.manifest["decision_entries"] >= 1
        B2 = art.tensor
        C2, out2 = art.companions["C"], art.companions["A"]
        rt = art.runtime()
        assert rt is not None
        with repro.session(runtime=rt) as s:
            # rebuild the statement the way a fresh solver process would
            i, k, j = repro.index_vars("i k j")
            out2[i, j] = B2[i, k] * C2[k, j]
            stats0 = _cache.cache_stats()
            r2 = s.autotune(out2)
            # zero search trials: the decision table answered
            assert r2.from_cache and r2.trials_run == 0
            assert r2.strategy == "grid"
            # the compile was a kernel-cache hit (no recompilation)
            stats1 = _cache.cache_stats()
            assert stats1["kernel_hits"] > stats0["kernel_hits"]
            # first execute replays the stored mapping trace: no re-record
            records0 = rt.trace_records
            res = s.execute(out2)
            assert rt.trace_records == records0
            assert rt.trace_hits >= 1
            assert np.allclose(
                out2.dense_array(),
                B2.to_dense() @ C2.dense_array(),
            )
            assert res.simulated_seconds > 0.0

    def test_decision_table_travels_through_save_packed(self, tmp_path):
        from repro.core.store import load_packed, save_packed

        with repro.session(nodes=2) as s:
            a, B, c = _spmv(s, uniform_random(500, 0.02, seed=8))
            r = s.autotune(a, trials=1)
            key = r.decision_key
            assert _cache.lookup_decision(key) is not None
            save_packed(tmp_path / "art", B, runtime=s.runtime)
        clear_caches()
        assert _cache.lookup_decision(key) is None
        load_packed(tmp_path / "art")
        decision = _cache.lookup_decision(key)
        assert decision is not None and decision["strategy"] == r.strategy


class TestPrunedSearch:
    """``autotune(prune=True)``: the static cost model stands in for trials.

    The planner's differential oracle (``tests/analysis/test_commplan_oracle.py``)
    proves predictions equal simulated metrics exactly for the specialized
    kernels, so the pruned search must select the same winner as the
    exhaustive one while executing strictly fewer scratch trials.
    """

    def test_same_winner_strictly_fewer_trials(self):
        M = load_matrix("kmer_A2a", 0.2)
        with repro.session(nodes=4) as s:
            out, *_ = _spmm(s, M)
            exhaustive = s.autotune(out, trials=1, force=True, warm=False)
        clear_caches()
        with repro.session(nodes=4) as s:
            out, *_ = _spmm(s, M)
            pruned = s.autotune(out, trials=1, force=True, warm=False,
                                prune=True)
        assert pruned.strategy == exhaustive.strategy
        assert pruned.pruned and not exhaustive.pruned
        assert 0 < pruned.trials_run < exhaustive.trials_run
        # every candidate carries its prediction; only the winner measured
        by = {c.strategy: c for c in pruned.candidates}
        assert all(c.predicted_seconds is not None
                   for c in pruned.candidates)
        winner = by[pruned.strategy]
        assert not winner.pruned and winner.ok
        # the model is exact for specialized kernels: the measured winner's
        # isolated trial equals its prediction to the last bit
        assert winner.simulated_seconds == winner.predicted_seconds
        skipped = [c for c in pruned.candidates if c.pruned]
        assert skipped and all(np.isnan(c.simulated_seconds)
                               for c in skipped)

    def test_prune_selects_grid_where_exhaustive_does(self):
        M = striped(2000, 30000, heavy_frac=0.9, seed=9)
        with repro.session(nodes=4) as s:
            out, B, C = _spmm(s, M, k=32)
            r = s.autotune(out, trials=1, prune=True)
            assert r.strategy == "grid"
            # prediction ranked grid first: one candidate's trials only
            assert r.trials_run == 1
            assert np.allclose(out.dense_array(), M @ C.dense_array())

    def test_pruned_decision_records_predicted_vs_measured(self):
        with repro.session(nodes=4) as s:
            a, *_ = _spmv(s, uniform_random(600, 0.02, seed=5))
            r = s.autotune(a, trials=1, prune=True)
        decision = _cache.lookup_decision(r.decision_key)
        assert decision is not None and decision["pruned"] is True
        # the static ranking that stood in for the skipped trials is
        # auditable next to the measured winner
        assert set(decision["predicted"]) == {
            c.strategy for c in r.candidates
        }
        assert decision["candidates"][r.strategy] == r.simulated_seconds
        for c in r.candidates:
            if c.pruned:
                assert decision["candidates"][c.strategy] == "pruned"
        # drift visibility: predicted winner cost equals the measured one
        assert decision["predicted"][r.strategy] == r.simulated_seconds
