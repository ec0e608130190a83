"""Twin oracle: the session's front door computes what the schedule path does.

``Session.execute(a)`` resolves a repeated statement in the session's
front-door table instead of scheduling it again.  For every statement of
the differential oracle (each kind × format, synthesized under each of its
strategies as the session's tuned winner) on cpu(4), gpu(4) and cpu(16), two
identical worlds run two rebuilt executions each: one through the front
door, its twin through ``compile_statement(session.schedule_for(b))``.  The
front door must hand back the very kernel the schedule path returns, and
values, every ``StepMetrics`` / ``CommEvent`` and the simulated seconds
must be identical.  A program whose fuse, dse, SpAdd3 and cse passes all
fire must equal a fresh ``compile_program`` in kernels, reuse map, pass
records and origins.

A fixed-seed slice runs in tier-1; the full sweep carries the
``differential`` marker (``pytest -m differential``).
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from test_differential import _build, _combos

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "api"))

from test_frontdoor import _assert_same_program, _ProgramWorld  # noqa: E402

from repro.api.autoschedule import auto_schedule  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.core import clear_caches  # noqa: E402
from repro.core.compiler import compile_statement  # noqa: E402
from repro.core.program import compile_program  # noqa: E402
from repro.legion import Machine, Runtime  # noqa: E402
from repro.taco.expr import Access, Assignment  # noqa: E402
from repro.taco.index_vars import IndexVar  # noqa: E402

MACHINES = {
    "cpu4": lambda: Machine.cpu(4),
    "gpu4": lambda: Machine.gpu(4),
    "cpu16": lambda: Machine.cpu(16),
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _subst(expr, fresh):
    if isinstance(expr, Access):
        return Access(expr.tensor, tuple(fresh[v] for v in expr.indices))
    return type(expr)([_subst(o, fresh) for o in expr.operands])


def _rebuild(out):
    """``out``'s statement again, over fresh index variables."""
    asg = out.assignment
    fresh = {v: IndexVar(v.name) for v in asg.index_vars()}
    out.assignment = Assignment(
        _subst(asg.lhs, fresh), _subst(asg.rhs, fresh),
        accumulate=asg.accumulate,
    )
    return out


def _twin(kind, fmt, strategy, machine_key, seed):
    machine = MACHINES[machine_key]()
    front_out, back_out = (
        _build(kind, fmt, np.random.default_rng(seed), 24, 0.2) for _ in range(2)
    )
    # One execution first in each world: a sparse output adopts or
    # assembles its pattern, which moves the statement key.  Then each
    # session holds that kernel as its tuned winner, as a full-pool
    # autotune that picked ``strategy`` would, and synthesizes ``strategy``.
    front, back = Session(machine), Session(machine)
    for s, out in ((front, front_out), (back, back_out)):
        ck = compile_statement(auto_schedule(out, machine, strategy=strategy),
                               machine)
        ck.execute(Runtime(machine))
        s._remember(out.assignment, ck)
    for rep in range(2):
        # (Compiling before executing: a compile may re-adopt a sparse
        # output's pattern, which resets the values it holds.)
        ck = compile_statement(front.schedule_for(_rebuild(front_out)), machine)
        hits = front._frontdoor.hits
        assert front.compile_kernel(_rebuild(front_out)) is ck
        assert front._frontdoor.hits == hits + rep  # the second one hit
        got = front.execute(_rebuild(front_out))
        assert front._frontdoor.hits == hits + rep + 1
        ck = compile_statement(back.schedule_for(_rebuild(back_out)), machine)
        assert ck.strategy == strategy
        want = ck.execute(back.runtime)
        assert np.array_equal(front_out.to_dense(), back_out.to_dense())
        assert got.metrics.steps == want.metrics.steps
        assert got.simulated_seconds == want.simulated_seconds


SMOKE = [(k, f, s, m, 1234) for k, f, s in _combos() for m in MACHINES]
SWEEP = [(k, f, s, m, seed) for k, f, s in _combos() for m in MACHINES
         for seed in (1, 7, 99)]


def _case_id(c):
    return "-".join(str(x) for x in c)


@pytest.mark.parametrize("case", SMOKE, ids=_case_id)
def test_frontdoor_twin_smoke(case):
    _twin(*case)


@pytest.mark.differential
@pytest.mark.parametrize("case", SWEEP, ids=_case_id)
def test_frontdoor_twin_sweep(case):
    _twin(*case)


@pytest.mark.parametrize("machine_key", list(MACHINES))
def test_program_equals_fresh_compile_program(machine_key):
    machine = MACHINES[machine_key]()
    front, back = _ProgramWorld(seed=11), _ProgramWorld(seed=11)
    fs, bs = Session(machine), Session(machine)
    for _ in range(2):
        p = front.program(fs)
        cp = p.compile()
        _assert_same_program(cp, compile_program(p.schedules(), machine))
        got = cp.execute(fs.runtime)
        want = compile_program(back.program(bs).schedules(), machine).execute(
            bs.runtime)
        front.check(got)
        for g, w in zip(got.results, want.results):
            assert np.array_equal(g.output.to_dense(), w.output.to_dense())
            assert g.metrics.steps == w.metrics.steps
            assert g.simulated_seconds == w.simulated_seconds
    assert fs._frontdoor.hits == 1


@pytest.mark.parametrize("combo", list(_combos()), ids=_case_id)
def test_simulated_seconds_priced_on_read_equal_eager(combo):
    """The lazily priced seconds equal the eager price taken right after
    execute, also after later executions on the same runtime."""
    kind, fmt, strategy = combo
    machine = Machine.cpu(4)
    out = _build(kind, fmt, np.random.default_rng(5), 24, 0.2)
    s = Session(machine)
    ck = compile_statement(s.schedule_for(out, strategy=strategy), machine)
    results, eager = [], []
    for _ in range(3):
        res = ck.execute(s.runtime)
        eager.append(res.metrics.simulated_seconds(s.runtime.network))
        results.append(res)
    assert [r.simulated_seconds for r in results] == eager
