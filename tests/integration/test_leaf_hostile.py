"""Hostile-input differential for the reducing leaves.

Every leaf that reduces — the segmented dot (SpMV, SpTTV), SpMM, the SpMM
phase of the fused SDDMM→SpMM and SpMTTKRP's row sum — runs on one compiled
segment-reduce primitive (:mod:`repro.kernels.segment`), called with the
same arguments by the interpreter leaves and the bound leaves.  This
module draws the inputs that primitive is most likely to get wrong — an
empty tensor, all-empty rows, leading / trailing empty rows, one heavy
segment split across every non-zero piece, more pieces than rows, NaN /
±inf / ``-0.0`` values — and checks, per draw:

* interp ≡ codegen **bitwise** (NaN positions and the sign of zero too);
* fused ≡ unfused bitwise;
* each ≡ :mod:`repro.taco.reference` at the sweeps' tolerance (finite
  draws only: against dense NumPy the summation order differs);
* the ``Work`` every leaf reports per piece ≡ the kernel table's.

SDDMM's sampled dot rides along in the same draws.  A replayed launch
whose output is written disjointly runs as one call of the bound launch
thunk; the same inputs check that one call ≡ the recording launch's
per-piece thunks ≡ the interpreter as output bytes, with the simulated
step of a per-piece replay, and — observed by counting calls, never looked
up by kind — which launches may take the one call at all.

Plus a host-independent structure check: a bind hoists nothing
proportional to the non-zeros (SDDMM: one position → row array), a launch
thunk nothing beyond what the per-piece thunks share, a cold compile and
first execute allocate nothing per non-zero (traced peak), and an unpacked
level — a gap, or an entry of negative length — is refused by name on both
backends instead of being mis-sliced.
"""
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.core import (
    SPECS, caches_disabled, classify, clear_caches, compile_kernel, compile_program,
)
from repro.core.passes import FUSED_SDDMM_SPMM
from repro.errors import FormatError, OOMError
from repro.legion import (
    IndexSpace, Machine, NodeSpec, Privilege, Region, RegionReq, Runtime, Work,
    make_pos_region,
)
from repro.taco import CSF3, CSR, DDC, Dense, Format, Tensor, index_vars
from repro.taco.reference import evaluate
from repro.taco.tensor import CompressedLevel
from test_differential import _KIND_FORMATS, _STRATEGIES, _build

#: (kind, sparse operand format, strategy); "fused" is the SDDMM→SpMM chain.
CASES = [
    ("spmv", CSR, "rows"), ("spmv", CSR, "nonzeros"),
    ("spttv", CSF3, "rows"), ("spttv", CSF3, "nonzeros"),
    ("spttv", DDC, "rows"), ("spttv", DDC, "nonzeros"),
    ("spmm", CSR, "rows"), ("spmm", CSR, "grid"), ("spmm", CSR, "nonzeros"),
    ("sddmm", CSR, "rows"), ("sddmm", CSR, "nonzeros"),
    ("fused", CSR, "rows"), ("fused", CSR, "nonzeros"),
    ("spmttkrp", CSF3, "rows"), ("spmttkrp", CSF3, "nonzeros"),
    ("spmttkrp", DDC, "rows"), ("spmttkrp", DDC, "nonzeros"),
]
#: the cases whose bind function returns a launch thunk.
ONE_CALL = [
    ("spmv", CSR, "rows"), ("spttv", CSF3, "rows"), ("spttv", DDC, "rows"),
    ("spmm", CSR, "rows"), ("sddmm", CSR, "rows"), ("sddmm", CSR, "nonzeros"),
]
#: one piece, an odd split, more pieces than rows (rows <= 6); ``grid``
#: needs a square, so its odd split is 2 x 2.
PIECES = (1, 3, 9)
STRUCTURES = ("empty", "empty_rows", "heavy", "random")
SPECIALS = (np.nan, np.inf, -np.inf, -0.0)
WIDE = 12  # the reduced dimension: a heavy segment spans every piece


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    yield
    clear_caches()


def _coords(rng, structure, shape):
    """Coordinates of the sparse operand; the last mode is reduced."""
    lead = shape[:-1]
    if structure == "empty":
        return [np.empty(0, dtype=np.int64) for _ in shape]
    if structure == "heavy":
        # every entry in one segment: the middle row / fiber, all of WIDE
        at = [s // 2 for s in lead]
        return [np.full(WIDE, a) for a in at] + [np.arange(WIDE)]
    nnz = int(rng.integers(1, 4 * shape[0] + 2))
    coords = [rng.integers(0, s, nnz) for s in shape]
    if structure == "empty_rows" and shape[0] > 2:
        # leading and trailing rows stay empty, and every other one between
        coords[0] = 1 + 2 * rng.integers(0, max(1, (shape[0] - 2) // 2), nnz)
    return coords


def _values(rng, size, hostile):
    vals = rng.standard_normal(size)
    if hostile and vals.size:
        hit = rng.random(vals.shape) < 0.3
        vals[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return vals


def _statements(case, n, structure, hostile, seed):
    """Fresh tensors and the statement(s) of one draw: ``(outputs, dense
    reference or None)``.  The last output is the one compared."""
    kind, fmt, _ = case
    rng = np.random.default_rng(seed)
    order3 = kind in ("spttv", "spmttkrp")
    shape = (n, 3, WIDE) if order3 else (n, WIDE)
    coords = _coords(rng, structure, shape)
    # duplicates are summed by the pack; keep the hostile draws to distinct
    # coordinates so a NaN cannot be cancelled before it reaches a leaf
    flat = np.ravel_multi_index(coords, shape) if coords[0].size else coords[0]
    keep = np.unique(flat, return_index=True)[1]
    coords = [c[keep] for c in coords]
    B = Tensor.from_coo("B", coords, _values(rng, keep.size, hostile), shape, fmt)
    dense = lambda name, *dims: Tensor.from_dense(
        name, _values(rng, dims, hostile))
    i, j, k, l = index_vars("i j k l")
    if kind == "spmv":
        out = Tensor.zeros("a", (n,))
        out[i] = B[i, j] * dense("c", WIDE)[j]
    elif kind == "spttv":
        out = Tensor.zeros("A", shape[:2], None if fmt is DDC else CSR)
        out[i, j] = B[i, j, k] * dense("c", WIDE)[k]
    elif kind == "spmm":
        out = Tensor.zeros("A", (n, 4))
        out[i, j] = B[i, k] * dense("C", WIDE, 4)[k, j]
    elif kind == "sddmm":
        out = Tensor.zeros("A", shape, CSR)
        out[i, j] = B[i, j] * dense("C", n, 3)[i, k] * dense("D", 3, WIDE)[k, j]
    elif kind == "spmttkrp":
        out = Tensor.zeros("A", (n, 4))
        out[i, l] = B[i, j, k] * dense("C", 3, 4)[j, l] * dense("D", WIDE, 4)[k, l]
    else:  # the fusable chain: H = (B .* (U V)) F
        U, V, F = dense("U", n, 2), dense("V", 2, WIDE), dense("F", WIDE, 4)
        E = Tensor.zeros("E", shape, CSR)
        out = Tensor.zeros("H", (n, 4))
        i2, j2, k2 = index_vars("i2 j2 k2")
        E[i, j] = B[i, j] * U[i, k] * V[k, j]
        out[i2, k2] = E[i2, j2] * F[j2, k2]
        ref = None
        if not hostile:
            sampled = B.to_dense() * (U.to_dense() @ V.to_dense())
            ref = sampled @ F.to_dense()
        return [E, out], ref
    return [out], (None if hostile else evaluate(out.assignment))


def _run(case, pieces, n, structure, hostile, seed, backend, fuse=True):
    """Compile and execute one draw; ``(output values, kernels, reference)``."""
    clear_caches()
    strategy = case[2]
    if strategy == "grid" and pieces == 3:
        pieces = 4
    machine = Machine.cpu(pieces)
    outs, ref = _statements(case, n, structure, hostile, seed)
    scheds = [auto_schedule(o.assignment, machine) for o in outs[:-1]]
    scheds.append(auto_schedule(outs[-1].assignment, machine, strategy=strategy))
    rt = Runtime(machine)
    if len(scheds) == 1:
        run = compile_kernel(scheds[0], machine, backend=backend)
        kernels = [run]
    else:
        run = compile_program(scheds, machine, backend=backend, fuse=fuse)
        kernels = list(run.kernels)
    run.execute(rt)
    run.execute(rt)  # over its own previous output: a reduce starts from 0.0
    return outs[-1].to_dense(), kernels, ref


def _same_bits(a, b):
    """Equal values, NaNs in the same places, zeros of the same sign."""
    return (
        np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _assert_work_matches_table(ck):
    """Both leaves report, piece by piece, the Work the table predicts."""
    spec = SPECS[ck.kind]
    model = spec.work_model(ck)
    interp, generated = spec.interp_leaf(ck), codegen.leaf_for(ck)
    for p in ck.pieces:
        expected = model("", p)
        assert interp(p) == expected, (ck.kind, ck.strategy, p.color)
        assert generated(p) == expected, (ck.kind, ck.strategy, p.color)


@given(
    case=st.sampled_from(CASES),
    pieces=st.sampled_from(PIECES),
    n=st.integers(1, 6),
    structure=st.sampled_from(STRUCTURES),
    hostile=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120)
def test_leaves_agree_on_hostile_inputs(case, pieces, n, structure, hostile, seed):
    draw = (case, pieces, n, structure, hostile, seed)
    with np.errstate(all="ignore"):  # inf - inf, 0 * inf: the point
        interp, _, ref = _run(*draw, "interp")
        generated, kernels, _ = _run(*draw, "codegen")
        assert _same_bits(interp, generated)
        if case[0] == "fused":
            assert [ck.kind for ck in kernels] == [FUSED_SDDMM_SPMM]
            for backend in ("interp", "codegen"):
                unfused, two, _ = _run(*draw, backend, fuse=False)
                assert len(two) == 2
                assert _same_bits(unfused, generated)
        if ref is not None:
            assert np.allclose(generated, ref)
        for ck in kernels:
            _assert_work_matches_table(ck)


COLMAJOR = Format([Dense, Dense], mode_ordering=(1, 0), name="ColMajor")


@pytest.mark.parametrize("strategy", ["rows", "grid", "nonzeros"])
@pytest.mark.parametrize("out_dtype,out_fmt,c_fmt", [
    (np.float32, None, None), (np.float64, COLMAJOR, None),
    (np.float64, None, COLMAJOR),
], ids=["float32-out", "colmajor-out", "colmajor-C"])
def test_outputs_the_reduce_cannot_write_in_place(strategy, out_dtype, out_fmt, c_fmt):
    """``csr_matvecs`` needs flat row-major float64 arrays; an output or
    operand that is not one goes through a contiguous copy on both
    backends, and they still agree bit for bit."""
    machine = Machine.cpu(4)
    rng = np.random.default_rng(5)
    coords = [rng.integers(0, 20, 90), rng.integers(0, WIDE, 90)]
    vals, Cd = rng.standard_normal(90), rng.standard_normal((WIDE, 4))
    got = []
    for backend in ("interp", "codegen"):
        clear_caches()
        B = Tensor.from_coo("B", coords, vals, (20, WIDE), CSR)
        C = Tensor.from_dense("C", Cd, c_fmt)
        out = Tensor.zeros("A", (20, 4), out_fmt, dtype=out_dtype)
        i, k, j = index_vars("i k j")
        out[i, j] = B[i, k] * C[k, j]
        ck = compile_kernel(
            auto_schedule(out.assignment, machine, strategy=strategy),
            machine, backend=backend)
        rt = Runtime(machine)
        ck.execute(rt)
        ck.execute(rt)
        got.append(out.to_dense())
    assert got[0].dtype == out_dtype and _same_bits(*got)
    assert np.allclose(got[1], B.to_dense() @ Cd, rtol=1e-5, atol=1e-5)


# --------------------------------------------------------------------------- #
# a replayed write-disjoint launch is one call
# --------------------------------------------------------------------------- #
class CountingRuntime(Runtime):
    """Counts per-piece task calls and launch-thunk calls.  With
    ``one_call=False`` it withholds every launch thunk, so its replays run
    the per-piece thunks."""

    def __init__(self, machine, one_call=True):
        super().__init__(machine)
        self.one_call = one_call
        self.calls = {"piece": 0, "launch": 0}

    def index_launch(self, name, colors, task, reqs=(), *, launch=None, **kw):
        def piece(color):
            self.calls["piece"] += 1
            return task(color)

        def one():
            self.calls["launch"] += 1
            return launch()

        use = one if launch is not None and self.one_call else None
        return super().index_launch(name, colors, piece, reqs, launch=use, **kw)

    def count(self):
        calls, self.calls = self.calls, {"piece": 0, "launch": 0}
        return calls


@given(
    case=st.sampled_from(ONE_CALL),
    pieces=st.sampled_from(PIECES + (64,)),
    n=st.integers(1, 6),
    structure=st.sampled_from(STRUCTURES),
    hostile=st.booleans(),
    seed=st.integers(0, 2**16),
    block_bytes=st.sampled_from((8, 48, 120, 1 << 18)),
    copy_at=st.sampled_from((0, 2, 1 << 60)),
)
@settings(max_examples=60)
def test_one_call_replay_writes_what_the_pieces_write(
    case, pieces, n, structure, hostile, seed, block_bytes, copy_at
):
    """A replay through the launch thunk rewrites (over a poisoned output)
    the bytes its recording wrote piece by piece and the interpreter
    writes, and books the step a per-piece replay books: per-processor
    compute seconds, communication events and task count.  A bind function
    that gathers in blocks is bound with blocks of 1 to all positions, and
    gathers rows of ``D.T`` from a contiguous copy always, by its own rule,
    or never (the interpreter gathers the strided view)."""
    clear_caches()
    machine = Machine.cpu(pieces)
    steps = {}
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        (out,), _ = _statements(case, n, structure, hostile, seed)
        ck = compile_kernel(
            auto_schedule(out.assignment, machine, strategy=case[2]), machine)
        module = sys.modules[SPECS[ck.kind].bound[ck.strategy].__module__]
        if hasattr(module, "_BLOCK_BYTES"):
            mp.setattr(module, "_BLOCK_BYTES", block_bytes)
            mp.setattr(module, "_COPY_AT", copy_at)
        for one_call in (True, False):
            rt = CountingRuntime(machine, one_call)
            ck.execute(rt)
            assert rt.count() == {"piece": len(ck.pieces), "launch": 0}
            recorded = out.vals.data.copy()
            out.vals.data[...] = 7.0
            (steps[one_call],) = ck.execute(rt).metrics.steps
            assert rt.count() == (
                {"piece": 0, "launch": 1} if one_call
                else {"piece": len(ck.pieces), "launch": 0}
            )
            assert _same_bits(out.vals.data, recorded)
        interp, _, _ = _run(case, pieces, n, structure, hostile, seed, "interp")
    assert _same_bits(out.to_dense(), interp)
    assert steps[True] == steps[False]
    assert steps[True].tasks_launched == len(ck.pieces)


def _oracle_statements():
    """Every (kind, format, strategy) the differential oracle builds."""
    for kind, formats in _KIND_FORMATS.items():
        for fmt in formats:
            for strategy in _STRATEGIES[kind]:
                yield kind, fmt, strategy


@pytest.mark.parametrize("backend", ["codegen", "interp"])
def test_one_call_only_where_no_value_depends_on_the_split(backend):
    """Observed over every statement the oracle builds, never looked up by
    kind: a recording launch runs its pieces; a replay takes the one call
    only under the codegen backend, for a write-disjoint output (a
    ``REDUCE`` one sums partials in piece order) whose pieces own whole
    rows (a ``grid`` piece owns a column window), and never once an
    operand is streamed in rounds."""
    machine = Machine.cpu(4)
    one_call = 0
    for combo in _oracle_statements():
        for streamed in (False, True):
            clear_caches()
            out = _build(*combo[:2], np.random.default_rng(3), 24, 0.2)
            ck = compile_kernel(
                auto_schedule(out, machine, strategy=combo[2]), machine,
                backend=backend)
            if streamed:
                for part in ck.parts.values():
                    if part.tensor is not ck.out:
                        ck.stream_tensor(part.tensor)
            rt = CountingRuntime(machine)
            ck.execute(rt)
            assert rt.count()["launch"] == 0, combo
            ck.execute(rt)
            calls = rt.count()
            if not calls["launch"]:
                continue
            assert calls == {"piece": 0, "launch": 1}, combo
            assert ck.privileges[id(ck.out)] is Privilege.WRITE_DISCARD, combo
            assert all(p.cols is None for p in ck.pieces), combo
            assert not streamed, combo
            one_call += 1
    assert (one_call > 0) == (backend == "codegen")


def test_an_oom_in_a_recording_launch_leaves_the_runtime_dirty():
    """The launch thunk is never called while recording: an OOM part-way
    through the pieces leaves a partial launch, an unknown residency state
    and no trace to replay."""
    machine = Machine.cpu(2, NodeSpec(dram_bytes=400.0))
    big = Region(IndexSpace(100))
    rt = CountingRuntime(machine)
    rt.place_on(big, 0)
    reqs = [RegionReq(big, None, Privilege.READ_ONLY)]
    for _ in range(2):  # the second launch from the same state records too
        rt.reset_residency()
        with pytest.raises(OOMError):  # staging `big` on proc 1
            rt.index_launch("t", [0, 1], lambda c: Work(1, 1), reqs,
                            launch=lambda: (Work(1, 1),) * 2)
        assert rt.count() == {"piece": 1, "launch": 0}
        assert rt._state[0] == "dirty" and not rt._traces and not rt.trace_hits


# --------------------------------------------------------------------------- #
# structure: what a bind hoists
# --------------------------------------------------------------------------- #
def _root(a):
    while a.base is not None:
        a = a.base
    return a


def _closed_over(thunk):
    """name -> ndarray for every array a thunk's closure holds."""
    cells = dict(zip(thunk.__code__.co_freevars, thunk.__closure__ or ()))
    return {
        name: cell.cell_contents for name, cell in cells.items()
        if isinstance(cell.cell_contents, np.ndarray)
    }


def _bound(kind, fmt, strategy, pieces, n=40):
    rng = np.random.default_rng(7)
    machine = Machine.cpu(pieces)
    i, j, k, l = index_vars("i j k l")
    if kind == "spmttkrp":
        shape = (n, 5, 6)
        nnz = 300
        B = Tensor.from_coo(
            "B", [rng.integers(0, s, nnz) for s in shape], rng.random(nnz), shape, fmt)
        out = Tensor.zeros("A", (n, 4))
        out[i, l] = (B[i, j, k] * Tensor.from_dense("C", rng.random((5, 4)))[j, l]
                     * Tensor.from_dense("D", rng.random((6, 4)))[k, l])
    else:
        nnz = 600
        B = Tensor.from_coo(
            "B", [rng.integers(0, n, nnz), rng.integers(0, n, nnz)],
            rng.random(nnz), (n, n), fmt)
        if kind == "spmv":
            out = Tensor.zeros("a", (n,))
            out[i] = B[i, j] * Tensor.from_dense("c", rng.random(n))[j]
        elif kind == "sddmm":
            out = Tensor.zeros("A", (n, n), CSR)
            out[i, j] = (B[i, j] * Tensor.from_dense("C", rng.random((n, 4)))[i, k]
                         * Tensor.from_dense("D", rng.random((4, n)))[k, j])
        else:
            out = Tensor.zeros("A", (n, 4))
            out[i, j] = B[i, k] * Tensor.from_dense("C", rng.random((n, 4)))[k, j]
    ck = compile_kernel(
        auto_schedule(out.assignment, machine, strategy=strategy), machine)
    ck.execute(Runtime(machine))
    return ck, B


@pytest.mark.parametrize("kind,strategy", [
    ("spmv", "rows"), ("spmv", "nonzeros"),
    ("spmm", "rows"), ("spmm", "grid"), ("spmm", "nonzeros"),
    ("sddmm", "rows"), ("sddmm", "nonzeros"),
])
def test_bind_hoists_nothing_proportional_to_nnz(kind, strategy, monkeypatch):
    """Arrays the thunks close over that are not views of an operand are
    the segment boundaries and nothing else: one ``indptr`` for row pieces,
    a clipped copy per non-zero piece — O(rows + pieces), however many
    non-zeros the level holds (the bincount bodies hoisted 8 bytes each).
    SDDMM's gathers index by row, so its thunks slice one position → row
    array (8 bytes per position) and hold nothing else.  The launch thunk
    holds nothing the per-piece thunks do not already share — no array of
    its own, no gather buffers (it allocates those per call) — and is
    built only for a launch that may run as one call."""
    built = []
    build = codegen._launch_thunk
    monkeypatch.setattr(codegen, "_launch_thunk",
                        lambda *a: built.append(1) or build(*a))
    pieces = 4
    ck, B = _bound(kind, CSR, strategy, pieces)
    assert len(built) == (ck._launch_args[-1] is not None)
    before = len(built)
    codegen.leaf_for(ck)
    assert len(built) == before
    operands = {id(_root(a)) for a in SPECS[ck.kind].operands(ck)}
    thunks = ck._leaf.__defaults__[0]
    hoisted = {}
    for thunk in thunks.values():
        for arr in _closed_over(thunk).values():
            root = _root(arr)
            if id(root) not in operands:
                hoisted[id(root)] = root
    rows = B.shape[0]
    assert B.nnz > 4 * (rows + 2 * pieces)  # so the bound below means something
    if kind == "sddmm":
        (rows_of,) = hoisted.values()
        assert rows_of.dtype == np.int64 and rows_of.size == B.nnz
    else:
        assert 0 < sum(a.nbytes for a in hoisted.values()) <= 8 * (rows + 2 * pieces)
    launch = ck._launch_args[-1]
    assert (launch is not None) == (strategy == "rows" or kind == "sddmm")
    if launch is not None:
        held = {id(_root(a)) for a in _closed_over(launch).values()}
        assert held and held <= operands | set(hoisted)


def _segments_of_width(kind, per_segment, n=400, m=4, width=200):
    """A rows statement whose sparse operand holds ``per_segment``
    non-zeros in every segment of its last level (n rows, or n x m DDC
    fibers for SpTTV), and how many segments that is."""
    rng = np.random.default_rng(11)
    lead = (n, m) if kind == "spttv" else (n,)
    nseg = int(np.prod(lead))
    seg = np.repeat(np.arange(nseg), per_segment)
    last = np.concatenate([rng.choice(width, per_segment, replace=False)
                           for _ in range(nseg)])
    B = Tensor.from_coo("B", [*np.unravel_index(seg, lead), last], rng.random(seg.size),
                        (*lead, width), DDC if kind == "spttv" else CSR)
    i, j, k = index_vars("i j k")
    if kind == "spmv":
        out = Tensor.zeros("a", (n,))
        out[i] = B[i, j] * Tensor.from_dense("c", rng.random(width))[j]
    elif kind == "spmm":
        out = Tensor.zeros("A", (n, 4))
        out[i, j] = B[i, k] * Tensor.from_dense("C", rng.random((width, 4)))[k, j]
    else:
        out = Tensor.zeros("A", lead)
        out[i, j] = B[i, j, k] * Tensor.from_dense("c", rng.random(width))[k]
    return out.assignment, nseg


@pytest.mark.parametrize("kind", ["spmv", "spmm", "spttv"])
def test_cold_launch_allocates_nothing_proportional_to_nnz(kind):
    """Compile and first execute of a rows launch, traced: with 50
    non-zeros per segment the peak exceeds that of the same launch over
    one per segment — the fixed overhead: plan, pieces, closures — by at
    most 4 words per segment and piece.  Partitioning reads ``pos``, each
    window of the dense operand reduces a view of its piece's ``crd``, the
    Work model counts a piece in O(1) and the leaf reduces in place, so
    only the leaf passes over the non-zeros and it allocates nothing for
    them.  (Gathering a piece's positions to bound its window costs 16
    bytes per non-zero.)"""
    pieces = 4
    machine = Machine.cpu(pieces)

    def peak(per_segment):
        asg, nseg = _segments_of_width(kind, per_segment)
        sched = auto_schedule(asg, machine, strategy="rows")
        assert classify(asg).kind == kind
        tracemalloc.start()
        try:
            with caches_disabled():  # a cold compile
                compile_kernel(sched, machine).execute(Runtime(machine))
            return tracemalloc.get_traced_memory()[1], nseg
        finally:
            tracemalloc.stop()

    peak(1)  # first-use setup outside the traced runs
    fixed, nseg = peak(1)
    dense, _ = peak(50)
    assert dense - fixed <= 4 * 8 * (nseg + pieces), (fixed, dense)


@pytest.mark.parametrize("fmt", [CSF3, DDC], ids=lambda f: f.name)
@pytest.mark.parametrize("strategy", ["rows", "nonzeros"])
def test_spmttkrp_shares_one_identity_pair_per_bind(fmt, strategy):
    ck, _ = _bound("spmttkrp", fmt, strategy, pieces=4)
    closures = [_closed_over(t) for t in ck._leaf.__defaults__[0].values()]
    closures = [c for c in closures if c]  # empty pieces close over nothing
    assert len(closures) > 1
    longest = max(p.pos[1] - p.pos[0] + 1 if strategy == "nonzeros" else 0
                  for p in ck.pieces)
    for name, dtype in (("ident", np.int64), ("ones", np.float64)):
        roots = {id(_root(c[name])) for c in closures}
        assert len(roots) == 1
        root = _root(closures[0][name])
        assert root.dtype == dtype
        assert all(c[name].size == c["v"].size for c in closures)
        assert root.size == max(c["v"].size for c in closures)
        if strategy == "nonzeros":
            assert root.size == longest


# --------------------------------------------------------------------------- #
# the packed-level invariant
# --------------------------------------------------------------------------- #
def _unpack_last_level(B, defect):
    """Swap B's last level for a hand-built bounds region that leaves a
    ``gap`` — entry 0 gives up its last position, which no entry then owns
    — or whose entry 0 has ``negative`` length: it starts two past its end,
    so it still ends one before entry 1 starts."""
    last = B.levels[-1]
    bounds = last.pos.data.copy()
    if defect == "gap":
        first = int(np.flatnonzero(bounds[:, 1] >= bounds[:, 0])[0])
        bounds[first, 1] -= 1
    else:
        bounds[0, 0] = bounds[0, 1] + 2
    B.levels[-1] = CompressedLevel(
        make_pos_region(bounds, name="B_handbuilt_pos"), last.crd)


def _assert_refused(case, backend, defect):
    machine = Machine.cpu(2)
    (out,), _ = _statements(case, 6, "random", False, seed=3)
    B = next(t for t in out.assignment.tensors() if t.name == "B")
    _unpack_last_level(B, defect)
    what = "ends at position" if defect == "gap" else "has negative length"
    with pytest.raises(FormatError,
                       match=f"'B_handbuilt_pos' is not a packed level: entry .* {what}"):
        ck = compile_kernel(
            auto_schedule(out.assignment, machine, strategy=case[2]),
            machine, backend=backend)
        ck.execute(Runtime(machine))


UNPACKED = pytest.mark.parametrize("case", [
    ("spmv", CSR, "rows"), ("spmv", CSR, "nonzeros"),
    ("spttv", CSF3, "rows"), ("spmm", CSR, "rows"), ("spmm", CSR, "nonzeros"),
], ids=lambda c: "-".join(map(str, (c[0], c[1].name, c[2]))))


@pytest.mark.parametrize("backend", ["interp", "codegen"])
@UNPACKED
def test_unpacked_level_is_refused_by_name(case, backend):
    _assert_refused(case, backend, "gap")


@pytest.mark.parametrize("backend", ["interp", "codegen"])
@UNPACKED
def test_negative_length_level_is_refused_by_name(case, backend):
    """Packed boundaries around an entry of length -1: without the length
    check the leaves read a falling ``indptr`` and drop its positions."""
    _assert_refused(case, backend, "negative")
