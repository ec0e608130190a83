"""The differential test oracle: every schedule the tuner can emit is checked.

``Session.autotune`` searches over synthesized schedules, so its
trustworthiness reduces to one property: *every* kernel × format ×
{rows, nonzeros, grid} strategy × machine kind combination the
auto-scheduler can produce computes exactly what the dense reference
(:mod:`repro.taco.reference`) computes.  This module sweeps that space
over seeded randomized COO tensors (shapes and densities swept too) and
cross-checks with **exact float64 equality** — all generated values are
small integers, so every sum of products is exactly representable and
associativity cannot hide a wrong answer behind a tolerance.

Failures dump a minimal standalone repro script into ``repro_failures/``
(and embed it in the assertion message), so a broken combination can be
replayed outside pytest with one command.

The same oracle also takes the level stacks and output layouts a
specialized leaf can *not* walk or index (``LAYOUT_CASES``): the kernel
table must hand those to the generic engine — which computes them — or,
for an explicit non-zero split, refuse with a typed ``CompileError``.

A small fixed-seed slice runs unmarked in the fast tier-1 loop; the full
sweep carries the ``differential`` marker (``pytest -m differential``).
"""
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.autoschedule import auto_schedule
from repro.core import classify, clear_caches, compile_kernel
from repro.errors import CompileError
from repro.legion import Machine, Runtime
from repro.taco import (
    CSF3, CSR, DDC, SPARSE_VECTOR, Compressed, Dense, Format, Tensor,
    index_vars,
)
from repro.taco.reference import evaluate

PIECES = 4  # 4 = 2x2: every strategy including the square grid is buildable

_FORMATS = {
    "csr": CSR, "csf3": CSF3, "ddc": DDC,
    # order-3 stacks with a compressed root: no specialized leaf walks them
    "ccc": Format([Compressed] * 3, name="CCC"),
    "cdc": Format([Compressed, Dense, Compressed], name="CDC"),
}
#: output layouts a case can ask for as ``"<operand format>><output>"``.
_OUTPUTS = {
    "dense": None, "csr": CSR, "sparsevec": SPARSE_VECTOR,
    "colmajor": Format([Dense, Dense], mode_ordering=(1, 0), name="ColMajor"),
}

#: Which strategies the auto-scheduler can emit per kernel kind.
_STRATEGIES = {
    "spmv": ("rows", "nonzeros"),
    "spmm": ("rows", "nonzeros", "grid"),
    "sddmm": ("rows", "nonzeros"),
    "spttv": ("rows", "nonzeros"),
    "spmttkrp": ("rows", "nonzeros"),
    "spadd3": ("rows",),
}

_KIND_FORMATS = {
    "spmv": ("csr",),
    "spmm": ("csr",),
    "sddmm": ("csr",),
    "spttv": ("csf3", "ddc"),
    "spmttkrp": ("csf3", "ddc"),
    "spadd3": ("csr",),
}


# --------------------------------------------------------------------------- #
# integer-valued workload builders (exact float64 arithmetic)
# --------------------------------------------------------------------------- #
def _int_vals(rng, size):
    """Small integers as float64: sums of products stay exact."""
    return rng.integers(1, 5, size).astype(np.float64)


def _int_dense(rng, shape):
    return rng.integers(1, 5, shape).astype(np.float64)


def _int_csr(rng, n, m, density):
    nnz = max(1, int(n * m * density))
    mat = sp.coo_matrix(
        (_int_vals(rng, nnz),
         (rng.integers(0, n, nnz), rng.integers(0, m, nnz))),
        shape=(n, m),
    )
    mat.sum_duplicates()
    return mat.tocsr()


def _int_tensor3(rng, shape, density, fmt):
    nnz = max(1, int(shape[0] * shape[1] * shape[2] * density))
    idx = [rng.integers(0, s, nnz) for s in shape]
    return Tensor.from_coo("T", idx, _int_vals(rng, nnz), shape, fmt)


def _build(kind: str, fmt: str, rng, n: int, density: float) -> Tensor:
    """The statement's output tensor (assignment attached).  ``fmt`` names
    the sparse operand's format and, after a ``>``, optionally the output
    layout (default: what the kind's specialized leaf writes)."""
    fmt, _, out_name = fmt.partition(">")
    fmt_obj = _FORMATS[fmt]
    out_fmt = _OUTPUTS[out_name] if out_name else None
    if kind == "spmv":
        B = Tensor.from_scipy("B", _int_csr(rng, n, n, density), CSR)
        c = Tensor.from_dense("c", _int_dense(rng, (n,)))
        a = Tensor.zeros("a", (n,), out_fmt)
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        return a
    if kind == "spmm":
        k = 5
        B = Tensor.from_scipy("B", _int_csr(rng, n, n, density), CSR)
        C = Tensor.from_dense("C", _int_dense(rng, (n, k)))
        out = Tensor.zeros("A", (n, k))
        i, kk, j = index_vars("i k j")
        out[i, j] = B[i, kk] * C[kk, j]
        return out
    if kind == "sddmm":
        k = 4
        B = Tensor.from_scipy("B", _int_csr(rng, n, n, density), CSR)
        C = Tensor.from_dense("C", _int_dense(rng, (n, k)))
        D = Tensor.from_dense("D", _int_dense(rng, (k, n)))
        out = Tensor.zeros("A", (n, n), CSR)
        i, j, kk = index_vars("i j k")
        out[i, j] = B[i, j] * C[i, kk] * D[kk, j]
        return out
    if kind == "spttv":
        shape = (n, max(3, n // 2), max(3, n // 3))
        T = _int_tensor3(rng, shape, density, fmt_obj)
        c = Tensor.from_dense("c", _int_dense(rng, (shape[2],)))
        if not out_name:
            out_fmt = None if fmt_obj is DDC else CSR
        out = Tensor.zeros("A", shape[:2], out_fmt)
        i, j, kk = index_vars("i j k")
        out[i, j] = T[i, j, kk] * c[kk]
        return out
    if kind == "spmttkrp":
        shape = (n, max(3, n // 2), max(3, n // 3))
        l = 4
        T = _int_tensor3(rng, shape, density, fmt_obj)
        C = Tensor.from_dense("C", _int_dense(rng, (shape[1], l)))
        D = Tensor.from_dense("D", _int_dense(rng, (shape[2], l)))
        out = Tensor.zeros("A", (n, l), out_fmt)
        i, j, kk, ll = index_vars("i j k l")
        out[i, ll] = T[i, j, kk] * C[j, ll] * D[kk, ll]
        return out
    if kind == "spadd3":
        mats = [_int_csr(rng, n, n, density) for _ in range(3)]
        Bt, Ct, Dt = (
            Tensor.from_scipy(nm, m, CSR) for nm, m in zip("BCD", mats)
        )
        out = Tensor.zeros("A", (n, n), CSR)
        i, j = index_vars("i j")
        out[i, j] = Bt[i, j] + Ct[i, j] + Dt[i, j]
        return out
    raise ValueError(kind)


# --------------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------------- #
def run_case(
    kind: str,
    fmt: str,
    strategy: str,
    machine_kind: str,
    seed: int,
    n: int = 24,
    density: float = 0.2,
    backend=None,
):
    """Build, auto-schedule, execute one combination and compare exactly.

    Importable by the generated repro scripts — keep the signature stable.
    Raises ``AssertionError`` naming the first differing entries on a
    mismatch; returns ``(actual, expected)`` dense arrays otherwise.
    """
    rng = np.random.default_rng(seed)
    out = _build(kind, fmt, rng, n, density)
    expected = evaluate(out.assignment)
    machine = (
        Machine.gpu(PIECES) if machine_kind == "gpu" else Machine.cpu(PIECES)
    )
    sched = auto_schedule(out, machine, strategy=strategy)
    ck = compile_kernel(sched, machine, backend=backend)
    ck.execute(Runtime(ck.machine))
    actual = out.to_dense()
    if not np.array_equal(actual, expected):
        bad = np.argwhere(actual != expected)
        head = [
            (tuple(int(x) for x in idx),
             float(actual[tuple(idx)]), float(expected[tuple(idx)]))
            for idx in bad[:5]
        ]
        raise AssertionError(
            f"{kind}/{fmt}/{strategy}/{machine_kind} seed={seed} n={n} "
            f"density={density}: {len(bad)} differing entries; first "
            f"(index, actual, expected): {head}"
        )
    return actual, expected


def _repro_script(kind, fmt, strategy, machine_kind, seed, n, density,
                  backend=None) -> str:
    src = str(Path(__file__).resolve().parents[2] / "src")
    here = str(Path(__file__).resolve().parent)
    return (
        "#!/usr/bin/env python\n"
        '"""Auto-generated minimal repro of a differential-oracle failure."""\n'
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"sys.path.insert(0, {here!r})\n"
        "from test_differential import run_case\n"
        f"run_case(kind={kind!r}, fmt={fmt!r}, strategy={strategy!r},\n"
        f"         machine_kind={machine_kind!r}, seed={seed}, n={n},\n"
        f"         density={density}, backend={backend!r})\n"
        "print('reproduced OK: the combination now matches the reference')\n"
    )


def _check(kind, fmt, strategy, machine_kind, seed, n=24, density=0.2,
           backend=None):
    try:
        run_case(kind, fmt, strategy, machine_kind, seed, n=n, density=density,
                 backend=backend)
    except AssertionError as e:
        dump_dir = Path(os.environ.get("REPRO_FAILURE_DIR", "repro_failures"))
        dump_dir.mkdir(parents=True, exist_ok=True)
        script = _repro_script(kind, fmt, strategy, machine_kind, seed, n,
                               density, backend)
        path = dump_dir / (
            f"repro_{kind}_{fmt.replace('>', '-')}_{strategy}_{machine_kind}"
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


def _combos():
    for kind, fmts in _KIND_FORMATS.items():
        for fmt in fmts:
            for strategy in _STRATEGIES[kind]:
                yield kind, fmt, strategy


def _case_id(c):
    return "-".join(str(x) for x in c)


# --------------------------------------------------------------------------- #
# tier-1 slice: one fixed seed, CPU machine, every kernel x strategy x format
# --------------------------------------------------------------------------- #
SMOKE_CASES = [(k, f, s, "cpu", 1234) for k, f, s in _combos()]


@pytest.mark.parametrize("case", SMOKE_CASES, ids=_case_id)
def test_differential_smoke(case):
    kind, fmt, strategy, machine_kind, seed = case
    _check(kind, fmt, strategy, machine_kind, seed)


# --------------------------------------------------------------------------- #
# stacks and output layouts no specialized leaf serves: every one was a
# wrong answer or a bare IndexError / ValueError while leaves dispatched on
# format *names* ("csf3" matched, the output's layout did not)
# --------------------------------------------------------------------------- #
LAYOUTS = [
    ("spmv", "csr>sparsevec"),  # the leaf writes out[row]; a stores no rows
    ("spttv", "csf3>dense"),    # the leaf writes out[fiber]; A is i * n1 + j
    ("spttv", "ddc>colmajor"),  # ... and a column-major A is j * n0 + i
    ("spttv", "ccc>csr"), ("spttv", "ccc>dense"),
    ("spttv", "cdc>csr"), ("spttv", "cdc>dense"),
    ("spmttkrp", "ccc"), ("spmttkrp", "cdc"),
]
LAYOUT_CASES = [
    (k, f, s, mk, 1234, backend)
    for k, f in LAYOUTS
    for s in (None, "rows")
    for mk in ("cpu", "gpu")
    for backend in ("codegen", "interp")
]


@pytest.mark.parametrize("case", LAYOUT_CASES, ids=_case_id)
def test_unwalkable_layouts_run_generic_and_exact(case):
    kind, fmt, strategy, machine_kind, seed, backend = case
    out = _build(kind, fmt, np.random.default_rng(seed), 24, 0.2)
    assert classify(out.assignment).kind == "generic"
    _check(kind, fmt, strategy, machine_kind, seed, backend=backend)


@pytest.mark.parametrize(
    "kind,fmt", LAYOUTS + [("spmttkrp", "ccc>csr"), ("spmttkrp", "cdc>csr")],
    ids=str,
)
@pytest.mark.parametrize("backend", ["codegen", "interp"])
def test_nonzero_split_of_an_unwalkable_layout_is_a_compile_error(
    kind, fmt, backend
):
    with pytest.raises(CompileError):
        run_case(kind, fmt, "nonzeros", "gpu", 1234, backend=backend)


# --------------------------------------------------------------------------- #
# the full sweep: seeds x densities x machine kinds (marker: differential)
# --------------------------------------------------------------------------- #
SWEEP_SEEDS = (7, 101)
SWEEP_DENSITIES = (0.05, 0.35)
SWEEP_SIZES = (17, 24)  # odd size exercises uneven piece boundaries

SWEEP_CASES = [
    (k, f, s, mk, seed, n, d)
    for k, f, s in _combos()
    for mk in ("cpu", "gpu")
    for seed, n in zip(SWEEP_SEEDS, SWEEP_SIZES)
    for d in SWEEP_DENSITIES
]


@pytest.mark.differential
@pytest.mark.parametrize("case", SWEEP_CASES, ids=_case_id)
def test_differential_sweep(case):
    kind, fmt, strategy, machine_kind, seed, n, density = case
    _check(kind, fmt, strategy, machine_kind, seed, n=n, density=density)
