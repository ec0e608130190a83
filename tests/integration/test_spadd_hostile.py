"""Hostile-input and twin differential for SpAdd's planned assembly.

SpAdd merges its operands' patterns once into an assembly plan and fills
values with one scatter-add per piece.  The twin kept here is the
assembly it replaced — a symbolic pass and a fill pass that each re-merge
with their own sort, into freshly allocated arrays, every step — and per
draw, per step, the installed ``pos`` / ``crd`` / ``vals`` must equal the
twin's **bitwise** (NaN payloads and the sign of zero included), the
``Work`` each phase reports per piece must equal the twin's and the kernel
table's, the statically predicted metrics must equal the measured ones,
and finite draws must agree with :mod:`repro.taco.reference`.

Draws: 2 / 3 / 4 operands × {1, 3, more-than-rows} pieces × {every operand
empty, one operand empty, all-empty rows, one heavy row, identical
patterns, disjoint patterns, random} × NaN / ±inf / ``-0.0`` values, plain
and ``accumulate``; three steps each, values rotated in place in between,
so steps 2 and 3 fill from a warm plan (into kept regions when the pattern
held).

Plus an operation count: a warm step sorts nothing and allocates no region.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels as K
from repro.analysis.commplan import measured_signature
from repro.analysis.costmodel import predict_cost
from repro.core import SPECS, clear_caches, compile_kernel
from repro.legion import Machine, Runtime, make_pos_region
from repro.legion.machine import Work
from repro.legion.region import RectRegion, Region
from repro.taco import CSR, Tensor, index_vars
from repro.taco.reference import evaluate

F8 = 8
PIECES = (1, 3, 9)  # rows <= 6
STRUCTURES = ("all_empty", "one_empty", "empty_rows", "heavy_row",
              "identical", "disjoint", "random")
SPECIALS = (np.nan, np.inf, -np.inf, -0.0)
NCOLS = 8
STEPS = 3


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    yield
    clear_caches()


# --------------------------------------------------------------------------- #
# the twin: two-sort assembly, re-derived every step
# --------------------------------------------------------------------------- #
def _gather_rows(pos, crd, r0, r1):
    lo = pos[r0 : r1 + 1, 0]
    hi = pos[r0 : r1 + 1, 1]
    lens = np.maximum(hi - lo + 1, 0)
    s = int(lo[0]) if lens.sum() else 0
    e = s + int(lens.sum()) - 1
    rows = np.repeat(np.arange(r0, r1 + 1, dtype=np.int64), lens)
    return rows, s, e


def twin_symbolic(operands, ncols, r0, r1):
    if r1 < r0:
        return np.empty(0, dtype=np.int64), Work.zero()
    keys, touched = [], 0
    for pos, crd, _vals in operands:
        rows, s, e = _gather_rows(pos, crd, r0, r1)
        if e >= s:
            keys.append(rows * ncols + crd[s : e + 1])
            touched += e - s + 1
    if not keys:
        return np.zeros(r1 - r0 + 1, dtype=np.int64), Work(0.0, 0.0)
    merged = np.unique(np.concatenate(keys))
    counts = np.bincount(merged // ncols - r0, minlength=r1 - r0 + 1)
    return counts.astype(np.int64), Work(float(touched), float(touched * 2 * F8))


def twin_fill(operands, ncols, out_pos, out_crd, out_vals, r0, r1):
    if r1 < r0:
        return Work.zero()
    keys, values, touched = [], [], 0
    for pos, crd, vals in operands:
        rows, s, e = _gather_rows(pos, crd, r0, r1)
        if e >= s:
            keys.append(rows * ncols + crd[s : e + 1])
            values.append(vals[s : e + 1])
            touched += e - s + 1
    if not keys:
        return Work.zero()
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate(values), minlength=uniq.size)
    dst0 = int(out_pos[r0, 0])
    out_crd[dst0 : dst0 + uniq.size] = uniq % ncols
    out_vals[dst0 : dst0 + uniq.size] = sums
    return Work(float(touched), float(touched * 3 * F8 + uniq.size * 2 * F8))


def twin_step(operands, shape, piece_rows):
    """One assembly of ``sum(operands)``: ``(pos, crd, vals, {(phase, rows):
    Work})``, everything freshly allocated."""
    nrows, ncols = shape
    counts = np.zeros(nrows, dtype=np.int64)
    works = {}
    for r0, r1 in piece_rows:
        piece_counts, works["spadd:symbolic", (r0, r1)] = twin_symbolic(
            operands, ncols, r0, r1)
        if r1 >= r0:
            counts[r0 : r1 + 1] = piece_counts
    pos = make_pos_region(counts).data
    crd = np.zeros(int(counts.sum()), dtype=np.int64)
    vals = np.zeros(int(counts.sum()))
    for r0, r1 in piece_rows:
        works["spadd:fill", (r0, r1)] = twin_fill(
            operands, ncols, pos, crd, vals, r0, r1)
    return pos, crd, vals, works


# --------------------------------------------------------------------------- #
# draws
# --------------------------------------------------------------------------- #
def _patterns(rng, structure, k, n):
    """k boolean (n, NCOLS) masks."""
    masks = [rng.random((n, NCOLS)) < 0.4 for _ in range(k)]
    if structure == "all_empty":
        masks = [np.zeros((n, NCOLS), dtype=bool) for _ in range(k)]
    elif structure == "one_empty":
        masks[int(rng.integers(k))][:] = False
    elif structure == "empty_rows":
        for m in masks:  # leading, trailing and every other row in between
            m[0::2] = False
            m[-1] = False
    elif structure == "heavy_row":
        masks = [np.zeros((n, NCOLS), dtype=bool) for _ in range(k)]
        masks[0][n // 2] = True
        for m in masks[1:]:
            m[n // 2] = rng.random(NCOLS) < 0.5
    elif structure == "identical":
        masks = [masks[0].copy() for _ in range(k)]
    elif structure == "disjoint":
        for idx, m in enumerate(masks):
            m[:, np.arange(NCOLS) % k != idx] = False
    return masks


def _values(rng, size, hostile):
    vals = rng.standard_normal(size)
    if hostile and vals.size:
        hit = rng.random(vals.shape) < 0.3
        vals[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return vals


def _operand(name, mask, vals):
    rows, cols = np.nonzero(mask)
    return Tensor.from_coo(name, [rows, cols], vals, mask.shape, CSR)


def _snapshot(t):
    return tuple(a.copy() for a in t.csr_arrays())


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@given(
    k=st.sampled_from((2, 3, 4)),
    pieces=st.sampled_from(PIECES),
    n=st.integers(1, 6),
    structure=st.sampled_from(STRUCTURES),
    hostile=st.booleans(),
    accumulate=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120)
def test_planned_assembly_equals_the_two_sort_twin(
    k, pieces, n, structure, hostile, accumulate, seed
):
    clear_caches()
    rng = np.random.default_rng(seed)
    masks = _patterns(rng, structure, k, n)
    ops = [
        _operand(f"B{idx}", m, _values(rng, int(m.sum()), hostile))
        for idx, m in enumerate(masks)
    ]
    A = Tensor.zeros("A", (n, NCOLS), CSR)
    machine = Machine.cpu(pieces)
    rt = Runtime(machine)
    i, j, io, ii = index_vars("i j io ii")
    rhs = ops[0][i, j]
    for t in ops[1:]:
        rhs = rhs + t[i, j]
    A[i, j] = (A[i, j] + rhs) if accumulate else rhs
    assert A.assignment.accumulate == accumulate
    ck = compile_kernel(A.schedule().divide(i, io, ii, pieces).distribute(io), machine)
    assert ck.kind == "spadd"
    piece_rows = [p.rows for p in ck.pieces]

    with np.errstate(all="ignore"):  # inf - inf: the point
        for step in range(STEPS):
            reads = ops + [A] if accumulate else ops
            pos, crd, vals, works = twin_step(
                [_snapshot(t) for t in reads], A.shape, piece_rows)
            ref = None if hostile else evaluate(A.assignment)

            est = predict_cost(ck)  # static, from the kernel table's Work
            model = SPECS[ck.kind].work_model(ck)
            plan = ck.assembly_plan()
            for p in ck.pieces:
                piece = plan.pieces[p.color]
                sym, fill = works["spadd:symbolic", p.rows], works["spadd:fill", p.rows]
                assert model("spadd:symbolic", p) == sym
                assert model("spadd:fill", p) == fill
                assert K.spadd3_symbolic(piece)[1] == sym
                scratch = np.zeros(piece.crd.size)
                assert K.spadd3_fill(piece, [t.vals.data for t in reads], scratch) == fill

            res = ck.execute(rt)
            got_pos, got_crd, got_vals = A.csr_arrays()
            assert np.array_equal(got_pos, pos), (step, "pos")
            assert np.array_equal(got_crd, crd), (step, "crd")
            assert got_vals.dtype == vals.dtype and _bits(got_vals) == _bits(vals), (step, "vals")
            if ref is not None:
                assert np.allclose(A.to_dense(), ref)
            assert est.exact and est.seconds == res.simulated_seconds
            assert est.signature.steps == measured_signature(res.metrics, rt).steps

            # a value-only update: the next step fills from the warm plan
            ops[0].vals.data[:] = _values(rng, ops[0].nnz, hostile)


# --------------------------------------------------------------------------- #
# operation count of a warm step
# --------------------------------------------------------------------------- #
def test_warm_step_sorts_nothing_and_allocates_no_region(monkeypatch):
    rng = np.random.default_rng(3)
    masks = _patterns(rng, "random", 3, 40)
    ops = [_operand(f"B{idx}", m, rng.random(int(m.sum()))) for idx, m in enumerate(masks)]
    A = Tensor.zeros("A", (40, NCOLS), CSR)
    machine = Machine.cpu(4)
    rt = Runtime(machine)

    def step():
        i, j, io, ii = index_vars("i j io ii")
        A[i, j] = ops[0][i, j] + ops[1][i, j] + ops[2][i, j]
        sched = A.schedule().divide(i, io, ii, 4).distribute(io)
        compile_kernel(sched, machine).execute(rt)

    calls = {}

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("unique", "sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    for cls in (Region, RectRegion):
        monkeypatch.setattr(cls, "__init__", counted("Region", cls.__init__))

    step()  # cold: one merge per piece, three regions installed
    assert calls == {"unique": 4, "Region": 3}
    regions = (A.levels[1].pos, A.levels[1].crd, A.vals)
    calls.clear()
    for _ in range(3):
        ops[1].vals.data[:] = rng.random(ops[1].nnz)
        step()
        assert calls == {}
        assert (A.levels[1].pos, A.levels[1].crd, A.vals) == regions
        assert np.allclose(A.to_dense(), sum(t.to_dense() for t in ops))
