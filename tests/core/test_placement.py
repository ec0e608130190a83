"""Placement is the runtime's: a compiled kernel places its operands once
per runtime it meets, keeps none of those runtimes alive, and a TDN
declaration holds only on the runtime it was made on."""
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.api.autoschedule import auto_schedule
from repro.core import clear_caches, compile_kernel, load_packed, save_packed
from repro.distal import parse_tdn, place_tensor
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

MACHINE = Machine.cpu(4)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _spmv(n=60, seed=3):
    """``y = B x`` over a fresh random CSR ``B``; returns ``(B, y)``."""
    B = Tensor.from_scipy("B", sp.random(n, n, density=0.1, format="csr",
                                         random_state=seed), CSR)
    x = Tensor.from_dense("x", np.arange(float(n)))
    y = Tensor.zeros("y", (n,))
    i, j = index_vars("i j")
    y[i] = B[i, j] * x[j]
    return B, y


def _trial(res):
    return res.simulated_seconds, res.metrics.steps


class TestOnePlacementPerRuntime:
    def test_two_sessions_alternating_one_kernel_each_replay(self):
        """Stepping one cached kernel on two sessions in turn: after its
        first step each runtime replays, and each books exactly what a
        session stepping alone books."""
        _, y = _spmv()
        sched = auto_schedule(y, MACHINE, strategy="nonzeros")
        alone = repro.session(machine=MACHINE)
        ck = alone.compile_kernel(sched)
        want, want_stats = [], []
        for _ in range(4):
            want.append(_trial(alone.execute(ck)))
            want_stats.append(alone.runtime.stats())
        s1, s2 = repro.session(machine=MACHINE), repro.session(machine=MACHINE)
        assert s1.compile_kernel(sched) is ck is s2.compile_kernel(sched)
        for step in range(4):
            for s in (s1, s2):
                assert _trial(s.execute(ck)) == want[step]
                assert s.runtime.stats() == want_stats[step]
        assert s1.runtime.stats()["trace_records"] == want_stats[0]["trace_records"]
        assert s1.runtime.stats()["trace_hits"] == 3 * want_stats[0]["trace_records"] > 0

    def test_a_repeat_meeting_places_nothing(self, monkeypatch):
        _, y = _spmv()
        ck = compile_kernel(auto_schedule(y, MACHINE), MACHINE)
        places = []
        place = type(ck)._place
        monkeypatch.setattr(type(ck), "_place",
                            lambda self, rt: places.append(rt) or place(self, rt))
        a, b = Runtime(MACHINE), Runtime(MACHINE)
        for rt in (a, b, a, b, a):
            ck.execute(rt)
        assert places == [a, b]

    def test_a_closed_sessions_runtime_is_collectable(self):
        _, y = _spmv()
        ck = compile_kernel(auto_schedule(y, MACHINE), MACHINE)
        s = repro.session(machine=MACHINE)
        s.execute(ck)
        gone = weakref.ref(s.runtime)
        s.close()
        del s
        rt = Runtime(MACHINE)
        ck.execute(rt)
        also_gone = weakref.ref(rt)
        del rt
        gc.collect()
        assert gone() is None and also_gone() is None
        assert not list(ck._placed_on)


class TestOneMachineCheck:
    @pytest.mark.parametrize("other", [Machine.cpu(2), Machine.gpu(4)],
                             ids=["fewer-processors", "gpu"])
    def test_a_runtime_of_another_machine_is_refused(self, other):
        _, y = _spmv()
        ck = compile_kernel(auto_schedule(y, MACHINE), MACHINE)
        rt = Runtime(other)
        with pytest.raises(ValueError, match="does not match"):
            ck.execute(rt)
        assert not rt._home  # refused before anything was placed
        ck.execute(Runtime(Machine.cpu(4)))  # an equal machine is accepted


class TestDeclarationsBelongToTheirRuntime:
    def test_only_the_declaring_runtime_keeps_the_declared_homes(self):
        """B declared non-zero-split on one runtime, then a rows SpMV: on
        any other runtime the kernel places B as it places an undeclared
        twin, and the declaring runtime still stages B."""
        B, y = _spmv(40)
        declaring = Runtime(MACHINE)
        place_tensor(B, parse_tdn("B(x, y) [x y -> f] -> M(~f)"), MACHINE, declaring)
        ck = compile_kernel(auto_schedule(y, MACHINE, strategy="rows"), MACHINE)
        twin, y2 = _spmv(40)
        ck2 = compile_kernel(auto_schedule(y2, MACHINE, strategy="rows"), MACHINE)
        other, plain = Runtime(MACHINE), Runtime(MACHINE)
        ck.execute(other)
        ck2.execute(plain)
        assert [other._home[r.uid].pieces() for r in B.regions()] \
            == [plain._home[r.uid].pieces() for r in twin.regions()]
        for rt in (other, plain):
            rt.reset_residency()
        assert other.resident_bytes_per_proc() == plain.resident_bytes_per_proc()
        assert not other.declared
        res = ck.execute(declaring)
        staged = [e for s in res.metrics.steps for e in s.comm_events]
        assert {e.reason for e in staged} == {"stage B.crd1", "stage B.vals"}
        assert sum(e.nbytes for e in staged) == 96.0


class TestStoredPlacements:
    def test_a_loaded_kernel_replays_on_each_loaded_runtime(self, tmp_path):
        """Every live runtime a saved kernel was placed on travels with the
        artifact: on each, the loaded kernel's placement is one the runtime
        holds already, which changes nothing, and its first execute
        replays."""
        B, y = _spmv()
        ck = compile_kernel(auto_schedule(y, MACHINE), MACHINE)
        a, b = Runtime(MACHINE), Runtime(MACHINE)
        want = [_trial(ck.execute(rt)) for rt in (a, b)]
        save_packed(tmp_path / "art", B)
        clear_caches()
        art = load_packed(tmp_path / "art")
        assert len(art.runtimes) == 2 and art.manifest["runtimes"] == 2
        (loaded,) = art.kernels
        assert not list(loaded._placed_on)  # the memo stays in the process
        for rt, (seconds, steps) in zip(art.runtimes, want):
            homes_version = rt._homes_version
            res = loaded.execute(rt)
            assert rt._homes_version == homes_version
            assert rt.stats()["trace_records"] == 0
            assert rt.stats()["trace_hits"] == 1
            assert _trial(res) == (seconds, steps)
        fresh = Runtime(MACHINE)
        loaded.execute(fresh)  # a runtime it never met: placed, recorded
        assert fresh.stats()["trace_records"] == 1
