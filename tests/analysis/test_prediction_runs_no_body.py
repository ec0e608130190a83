"""A prediction runs no launch body.

``predict_cost`` and ``predict_metrics`` walk the very steps ``execute``
runs (``CompiledKernel.launches``) and hand each launch the Work model's
columns in place of its body, so whatever a run does besides launching —
binding the leaf, zero-filling an output the pieces add into, SpAdd's
value snapshot, install and frozen requirements — must not happen when a
kernel is only priced.  Before the first execute, a prediction leaves the
bind count, the output's ``pattern_version`` and value bits, and SpAdd's
unfrozen requirements as they were; the execute after it changes at least
one of them, so the check has something to see.
"""
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

from test_differential import _build, _combos  # noqa: E402

from repro.analysis.commplan import predict_metrics  # noqa: E402
from repro.analysis.costmodel import predict_cost  # noqa: E402
from repro.api.autoschedule import auto_schedule  # noqa: E402
from repro.codegen import codegen_stats  # noqa: E402
from repro.core import clear_caches, compile_kernel  # noqa: E402
from repro.legion import Machine, Runtime  # noqa: E402
from repro.taco import CSR, Tensor, index_vars  # noqa: E402

MACHINES = {"cpu4": lambda: Machine.cpu(4), "gpu4": lambda: Machine.gpu(4)}


def _statement(kind, fmt, strategy, machine):
    rng = np.random.default_rng(17)
    out = _build(kind, fmt, rng, 18, 0.25)
    return compile_kernel(auto_schedule(out.assignment, machine, strategy=strategy),
                          machine), out


def _spadd(accumulate, machine):
    """``A = B + C`` or ``A += B + C`` over an ``A`` that already holds a
    pattern and values, so an install or a snapshot would show."""
    r = np.random.default_rng(3)
    A, B, C = (Tensor.from_scipy(name, sp.random(20, 16, density=0.2, random_state=r,
                                                 format="csr"), CSR)
               for name in "ABC")
    i, j, io, ii = index_vars("i j io ii")
    if accumulate:
        A[i, j] = A[i, j] + B[i, j] + C[i, j]
        assert A.assignment.accumulate
    else:
        A[i, j] = B[i, j] + C[i, j]
    return compile_kernel(A.schedule().divide(i, io, ii, 4).distribute(io), machine), A


def _observed(ck, out):
    return (codegen_stats()["binds"], out.pattern_version, out.vals.data.tobytes(),
            ck._spadd_reqs is None)


CASES = [*((c, m) for c in _combos() for m in MACHINES),
         *((("spadd", "csr", how), m) for how in ("plain", "accumulate") for m in MACHINES)]


@pytest.mark.parametrize("case,machine", CASES,
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_prediction_runs_no_launch_body(case, machine):
    clear_caches()
    machine = MACHINES[machine]()
    kind, fmt, strategy = case
    if kind == "spadd":
        ck, out = _spadd(strategy == "accumulate", machine)
    else:
        ck, out = _statement(kind, fmt, strategy, machine)
        out.vals.data[...] = 7.0  # a zero-fill would show
    before = _observed(ck, out)
    assert before[-1]  # never executed: SpAdd's requirements not frozen yet
    predict_cost(ck)
    predict_metrics(ck)
    assert _observed(ck, out) == before
    ck.execute(Runtime(machine))
    assert _observed(ck, out) != before
