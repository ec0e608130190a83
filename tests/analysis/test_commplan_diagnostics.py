"""The planner's two coherence findings, raised from real schedules.

``commplan_diagnostics`` reads a statement's predicted metrics signature:

* ``RedundantCommunicate`` — a ``communicate`` whose tensor had a home
  before the prediction and moves no byte.  The auto-scheduled rows SpMV
  places ``y``, ``B`` and ``x`` at the distributed loop; in a cold plan
  none has a home, so nothing is said.  ``y`` declared block-wise by a
  TDN statement (``y(x) -> M(x)``), the partition the rows split writes,
  is already where every piece runs: that placement is redundant.
* ``MissingCommunicate`` — a tensor with no ``communicate`` staged to
  several processors with overlap.  ``x`` declared block-wise by a TDN
  statement (``x(x) -> M(x)``) is read whole by every row piece, so each
  of the 4 processors pulls the 3 blocks it does not hold: 4 × 30 × 8 B
  against the vector's 40 × 8 B.  Without the session runtime the plan
  homes ``x`` where it is read and nothing is staged.

The messages are pinned byte for byte: they are the findings' interface.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import analyze_program, commplan_diagnostics
from repro.api.autoschedule import auto_schedule
from repro.core import clear_caches
from repro.distal import parse_tdn, place_tensor
from repro.errors import MissingCommunicate, RedundantCommunicate
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars
from repro.taco.schedule import Schedule

N = 40


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _spmv():
    """``y = B x`` over a seeded 40 × 40 CSR whose every row touches the
    first and the last column, so each row piece reads all of ``x``."""
    rng = np.random.default_rng(5)
    M = sp.random(N, N, density=0.2, random_state=rng, format="lil")
    M[:, 0] = 1.0
    M[:, N - 1] = 2.0
    B = Tensor.from_scipy("B", M.tocsr(), CSR)
    x = Tensor.from_dense("x", np.arange(N, dtype=float))
    y = Tensor.zeros("y", (N,))
    i, j = index_vars("i j")
    y[i] = B[i, j] * x[j]
    return y, x


def _found(diags):
    return [(d.error_type, d.provenance.tensor, d.message) for d in diags]


def test_a_cold_auto_scheduled_plan_reports_nothing():
    machine = Machine.cpu(4)
    y, _ = _spmv()
    sched = auto_schedule(y.assignment, machine)
    assert commplan_diagnostics(sched, machine) == []
    assert commplan_diagnostics(sched, machine, runtime=Runtime(machine)) == []
    report = analyze_program([sched], machine, cost=True)
    assert report.diagnostics == []
    assert report.predictions[0] is not None


def test_a_declared_partition_the_schedule_reads_is_a_redundant_communicate():
    machine = Machine.cpu(4)
    y, _ = _spmv()
    rt = Runtime(machine)
    place_tensor(y, parse_tdn("y(x) -> M(x)"), machine, rt)
    sched = auto_schedule(y.assignment, machine)
    want = [(
        RedundantCommunicate, "y",
        "communicate(y, io) moves no data: every piece's sub-region is "
        "already resident where it executes",
    )]
    assert _found(commplan_diagnostics(sched, machine, runtime=rt)) == want
    report = analyze_program([sched], machine, cost=True, runtime=rt)
    assert _found(report.diagnostics) == want


def test_a_declared_block_vector_read_whole_is_a_missing_communicate():
    machine = Machine.cpu(4)
    y, x = _spmv()
    rt = Runtime(machine)
    place_tensor(x, parse_tdn("x(x) -> M(x)"), machine, rt)
    i = y.assignment.lhs.indices[0]
    io, ii = index_vars("io ii")
    sched = Schedule(y.assignment).divide(i, io, ii, 4).distribute(io)
    want = [(
        MissingCommunicate, "x",
        "x is staged to 4 processors moving 960 B against 320 B of data — "
        "overlapping transfers a communicate placement at the distributed "
        "loop would hoist",
    )]
    assert _found(commplan_diagnostics(sched, machine, runtime=rt)) == want
    report = analyze_program([sched], machine, cost=True, runtime=rt)
    assert _found(report.diagnostics) == want
    assert commplan_diagnostics(sched, machine) == []
