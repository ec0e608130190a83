"""Differential oracle for the static communication planner.

The planner's whole claim (``docs/analysis.md``) is that a schedule's
communication and cost are *statically derivable*: the predicted metrics
signature — launch counts, every communication event with src/dst/bytes/
channel, the per-node resident footprint — must **exactly equal** what
the simulator reports after really executing the same compiled kernel on
a fresh runtime.  The simulator is deterministic, so anything short of
exact equality is a bug in the model, never noise.  This module sweeps
the auto-scheduler's space (kernel × format × strategy × cpu/gpu) over
the same seeded workload builders the execution differential oracle
(``tests/integration/test_differential.py``) uses, plus the fused
SDDMM→SpMM statement the pass pipeline synthesizes, and additionally pins
the cost model: for the specialized kernels the predicted simulated
seconds equal the measured isolated trial's to the last bit.

Failures dump a minimal standalone repro script into ``repro_failures/``
(same idiom as the execution oracle), so a broken combination replays
outside pytest with one command.

A fixed-seed slice runs unmarked in tier-1; the full sweep carries the
``differential`` marker (``pytest -m differential``).
"""
import os
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tests" / "integration"))

from test_differential import (  # noqa: E402
    _build, _combos as _statement_combos, _int_csr, _int_dense,
)

from repro.analysis.commplan import (  # noqa: E402
    measured_signature, predict_metrics,
)
from repro.analysis.costmodel import predict_cost  # noqa: E402
from repro.api.autoschedule import auto_schedule  # noqa: E402
from repro.core import SPECS, clear_caches, compile_kernel  # noqa: E402
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan  # noqa: E402
from repro.legion import Machine  # noqa: E402
from repro.legion.runtime import Runtime  # noqa: E402
from repro.taco import CSR, Tensor, index_vars  # noqa: E402

PIECES = 4  # 2x2: every strategy including the square grid is buildable


def _fused_statement(rng, n, density, machine):
    """The statement the pass pipeline synthesizes from an SDDMM→SpMM
    chain — the one kind no user-written statement classifies as."""
    B = Tensor.from_scipy("B", _int_csr(rng, n, n, density), CSR)
    U = Tensor.from_dense("U", _int_dense(rng, (n, 4)))
    V = Tensor.from_dense("V", _int_dense(rng, (4, n)))
    F = Tensor.from_dense("F", _int_dense(rng, (n, 5)))
    E = Tensor.zeros("E", (n, n), CSR)
    H = Tensor.zeros("H", (n, 5))
    i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
    E[i, j] = B[i, j] * U[i, k] * V[k, j]
    H[i2, k2] = E[i2, j2] * F[j2, k2]
    chain = [auto_schedule(t.assignment, machine) for t in (E, H)]
    (fused,) = pipeline_plan(chain, machine).schedules
    return fused.assignment


def _combos():
    yield from _statement_combos()
    for strategy in SPECS[FUSED_SDDMM_SPMM].strategies:
        yield FUSED_SDDMM_SPMM, "csr", strategy


def run_case(
    kind: str,
    fmt: str,
    strategy: str,
    machine_kind: str,
    seed: int,
    n: int = 24,
    density: float = 0.2,
):
    """Predict one combination statically, execute it, compare exactly.

    Importable by the generated repro scripts — keep the signature stable.
    Raises ``AssertionError`` naming the first divergence on a mismatch;
    returns the matching ``(predicted, measured)`` signatures otherwise.
    """
    rng = np.random.default_rng(seed)
    machine = (
        Machine.gpu(PIECES) if machine_kind == "gpu" else Machine.cpu(PIECES)
    )
    if kind == FUSED_SDDMM_SPMM:
        out = _fused_statement(rng, n, density, machine)
    else:
        out = _build(kind, fmt, rng, n, density)
    sched = auto_schedule(out, machine, strategy=strategy)
    ck = compile_kernel(sched, machine)

    est = predict_cost(ck)  # static: mirrors the runtime, executes nothing
    label = f"{kind}/{fmt}/{strategy}/{machine_kind} seed={seed} n={n}"
    assert est.exact, f"{label}: specialized kernel priced approximately"
    assert not est.oom, f"{label}: predicted OOM on a feasible plan"
    assert predict_metrics(ck) == est.signature

    rt = Runtime(machine)
    res = ck.execute(rt)  # cold: the execution the prediction models
    measured = measured_signature(res.metrics, rt)

    predicted = est.signature
    if predicted.steps != measured.steps:
        for p, m in zip(predicted.steps, measured.steps):
            if p != m:
                raise AssertionError(
                    f"{label}: step {p.name!r} diverges\n"
                    f"  predicted: launches={p.tasks_launched} "
                    f"events={p.comm_events}\n"
                    f"  measured:  launches={m.tasks_launched} "
                    f"events={m.comm_events}"
                )
        raise AssertionError(
            f"{label}: step lists differ in length — predicted "
            f"{[s.name for s in predicted.steps]}, measured "
            f"{[s.name for s in measured.steps]}"
        )
    assert predicted.node_footprint == measured.node_footprint, (
        f"{label}: footprint predicted {predicted.node_footprint} != "
        f"measured {measured.node_footprint}"
    )
    assert predicted.comm_bytes_by_channel() == measured.comm_bytes_by_channel()
    assert est.seconds == res.simulated_seconds, (
        f"{label}: predicted {est.seconds!r}s != measured "
        f"{res.simulated_seconds!r}s"
    )
    return predicted, measured


def _repro_script(kind, fmt, strategy, machine_kind, seed, n, density) -> str:
    src = str(REPO / "src")
    here = str(Path(__file__).resolve().parent)
    integration = str(REPO / "tests" / "integration")
    return (
        "#!/usr/bin/env python\n"
        '"""Auto-generated minimal repro of a commplan-oracle failure."""\n'
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"sys.path.insert(0, {integration!r})\n"
        f"sys.path.insert(0, {here!r})\n"
        "from test_commplan_oracle import run_case\n"
        f"run_case(kind={kind!r}, fmt={fmt!r}, strategy={strategy!r},\n"
        f"         machine_kind={machine_kind!r}, seed={seed}, n={n},\n"
        f"         density={density})\n"
        "print('reproduced OK: the prediction now matches the simulator')\n"
    )


def _check(kind, fmt, strategy, machine_kind, seed, n=24, density=0.2):
    try:
        run_case(kind, fmt, strategy, machine_kind, seed, n=n, density=density)
    except AssertionError as e:
        dump_dir = Path(os.environ.get("REPRO_FAILURE_DIR", "repro_failures"))
        dump_dir.mkdir(parents=True, exist_ok=True)
        script = _repro_script(
            kind, fmt, strategy, machine_kind, seed, n, density
        )
        path = dump_dir / (
            f"repro_commplan_{kind}_{fmt}_{strategy}_{machine_kind}"
            f"_s{seed}.py"
        )
        path.write_text(script)
        pytest.fail(
            f"{e}\nminimal repro written to {path}:\n{script}", pytrace=False
        )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _case_id(c):
    return "-".join(str(x) for x in c)


# --------------------------------------------------------------------------- #
# tier-1 slice: one fixed seed, both machine kinds, every combination
# --------------------------------------------------------------------------- #
SMOKE_CASES = [
    (k, f, s, mk, 1234) for k, f, s in _combos() for mk in ("cpu", "gpu")
]


@pytest.mark.parametrize("case", SMOKE_CASES, ids=_case_id)
def test_prediction_matches_simulator(case):
    _check(*case)


# --------------------------------------------------------------------------- #
# full sweep: seeds x sizes x densities (pytest -m differential)
# --------------------------------------------------------------------------- #
SWEEP_CASES = [
    (k, f, s, mk, seed, n, d)
    for k, f, s in _combos()
    for mk in ("cpu", "gpu")
    for seed in (7, 101)
    for n, d in ((17, 0.35), (24, 0.05))
]


@pytest.mark.differential
@pytest.mark.parametrize("case", SWEEP_CASES, ids=_case_id)
def test_prediction_matches_simulator_swept(case):
    kind, fmt, strategy, machine_kind, seed, n, density = case
    _check(kind, fmt, strategy, machine_kind, seed, n=n, density=density)
