"""Multi-tenant serving: many callers, one warm compile substrate.

SpDISTAL's compile-once / run-many amortization usually serves one
session; ``repro.serve`` multiplexes *tenants* — concurrent callers
issuing einsum requests — over a pool of pre-warmed runtimes that share
the process-wide kernel cache, partition memo and decision table.
Identical requests from different tenants single-flight to one
compile (and one autotune search); per-tenant byte budgets shed a tenant
flooding distinct compiles while cache hits stay free.

Run:  python examples/serving.py
"""
import threading

import numpy as np

import repro
from repro.data.matrices import power_law


def main():
    M = power_law(2000, 60_000, seed=1)
    rng = np.random.default_rng(0)
    x, C = rng.random(M.shape[1]), rng.random((M.shape[1], 8))

    # -- One server, three tenants, one shared catalog. ------------------------
    with repro.serve(nodes=4, workers=2, tune=True) as srv:
        srv.put_tensor("M", M, repro.CSR)
        srv.put_tensor("x", x)
        srv.put_tensor("y", rng.random(M.shape[1]))
        srv.put_tensor("C", C)

        # Three tenants race the same SpMV (plus one SpMM): the first
        # request per signature leads the build, everyone else shares it.
        results = {}

        def tenant(name):
            spmv = srv.submit("ij,j->i", "M", "x", tenant=name)
            spmm = srv.submit("ij,jk->ik", "M", "C", tenant=name)
            results[name] = (spmv.result(), spmm.result())

        threads = [threading.Thread(target=tenant, args=(f"tenant-{t}",))
                   for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = srv.stats()
        print(f"{len(results) * 2} requests from {len(results)} tenants "
              f"-> {stats['compiles']} compile/tune builds "
              f"({stats['entries']} cached signatures)")
        for name, (spmv, spmm) in sorted(results.items()):
            lead = "led build" if spmv.compiled else "shared build"
            print(f"  {name}: spmv[{spmv.strategy}] "
                  f"{spmv.latency_s * 1e3:6.1f} ms ({lead}), "
                  f"spmm[{spmm.strategy}] {spmm.latency_s * 1e3:6.1f} ms")

        # every tenant got the bit-identical answer
        base = results["tenant-0"]
        assert all(np.array_equal(r[0].value, base[0].value)
                   and np.array_equal(r[1].value, base[1].value)
                   for r in results.values())
        assert np.allclose(base[0].value, M @ x), "served SpMV disagrees!"

        # -- Admission control: budget a noisy tenant. -------------------------
        # The noisy tenant leads one fresh build (an SpMV against a vector
        # nobody else asked about) and is charged the bytes it pinned...
        srv.submit("ij,j->i", "M", "y", tenant="noisy").result()
        charged = srv.tenant("noisy").charged_bytes
        srv.set_tenant_budget("noisy", charged)  # ...which is now its cap
        try:
            srv.submit("ij,ij->i", "M", "M", tenant="noisy")
            raise AssertionError("noisy tenant was admitted over budget")
        except repro.TenantBudgetError as e:
            print(f"admission control: {e}")
        # ...but cached signatures stay free for everyone
        free = srv.submit("ij,j->i", "M", "x", tenant="noisy").result()
        print(f"noisy tenant still rides the warm cache "
              f"({free.latency_s * 1e3:.1f} ms, charged "
              f"{srv.tenant('noisy').charged_bytes} bytes)")


if __name__ == "__main__":
    main()
