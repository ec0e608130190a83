"""Hostile-input differential for the reducing leaves.

Every leaf that reduces — the segmented dot (SpMV, SpTTV), SpMM, the SpMM
phase of the fused SDDMM→SpMM and SpMTTKRP's fiber and row sums — runs on
one compiled segment-reduce primitive (:mod:`repro.kernels.segment`),
called with the same arguments by the interpreter leaves and the bound
leaves.  This module draws the inputs that primitive is most likely to get
wrong — an empty tensor, all-empty rows, leading / trailing empty rows,
one heavy segment split across every non-zero piece, more pieces than
rows, NaN / ±inf / ``-0.0`` values — and checks, per draw:

* interp ≡ codegen **bitwise** (NaN positions and the sign of zero too);
* fused ≡ unfused bitwise;
* each ≡ :mod:`repro.taco.reference` at the sweeps' tolerance (finite
  draws only: against dense NumPy the summation order differs);
* the ``Work`` every leaf reports per piece ≡ the kernel table's.

SDDMM's sampled dot rides along in the same draws.  A replayed launch
runs as one call of the bound launch thunk, a reducing one included; the
same inputs check that one call ≡ the recording launch's per-piece
thunks ≡ the interpreter as output bytes, with the simulated step of a
per-piece replay, and — observed by counting calls, never looked up by
kind — which launches may take the one call at all.  Operands laid out
so that the non-zero split cuts rows and fibers where one call could go
wrong, and bind functions driven with pieces of any size, check that a
call over every piece adds what the pieces add, NaN signs included.

Plus a host-independent structure check: a bind hoists nothing
proportional to the non-zeros (SDDMM: one position → row array), a launch
thunk nothing beyond what the per-piece thunks share, a cold compile and
first execute allocate nothing per non-zero (traced peak), a warm
SpMTTKRP thunk allocates per fiber, not per non-zero, and an unpacked
level — a gap, or an entry of negative length — is refused by name on both
backends instead of being mis-sliced.
"""
import inspect
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.api.session import Session
from repro.core import (
    SPECS, caches_disabled, classify, clear_caches, compile_kernel, compile_program,
)
from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
from repro.errors import FormatError, OOMError
from repro.kernels import sddmm as sddmm_mod
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
#: the cases whose bind function returns a launch thunk: all but ``grid``.
ONE_CALL = [c for c in CASES if c[2] != "grid"]
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
    """Normal draws; ``hostile`` swaps 30 % for NaN / ±inf / -0.0,
    ``"-0.0"`` half for -0.0 and ``"nan"`` half for NaNs of either sign."""
    vals = rng.standard_normal(size)
    if hostile in ("-0.0", "nan"):
        hit = rng.random(vals.shape) < 0.5
        vals[hit] = -0.0 if hostile == "-0.0" else rng.choice([np.nan, -np.nan], int(hit.sum()))
    elif hostile and vals.size:
        hit = rng.random(vals.shape) < 0.3
        vals[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return vals


def _laid_out(rng, layout, order3):
    """Coordinates and shape of a sparse operand whose row ``i`` holds
    fibers of ``layout[i]`` non-zeros each (a matrix row: one segment of
    ``layout[i][0]``), at distinct last coordinates."""
    width = max([WIDE, *(n for row in layout for n in row)])
    coords = [(i, j, k) for i, row in enumerate(layout)
              for j, n in enumerate(row[: 3 if order3 else 1])
              for k in np.sort(rng.permutation(width)[:n]).tolist()]
    coords = np.array(coords, dtype=np.int64).reshape(-1, 3).T
    shape = (len(layout), 3, width) if order3 else (len(layout), width)
    return ([*coords] if order3 else [coords[0], coords[2]]), shape


def _statements(case, n, structure, hostile, seed):
    """Fresh tensors and the statement(s) of one draw: ``(outputs, dense
    reference or None)``.  The last output is the one compared.  A
    ``structure`` that is a list lays the sparse operand out row by row
    (:func:`_laid_out`)."""
    kind, fmt, _ = case
    rng = np.random.default_rng(seed)
    order3 = kind in ("spttv", "spmttkrp")
    if isinstance(structure, list):
        coords, shape = _laid_out(rng, structure, order3)
        n, width = shape[0], shape[-1]
    else:
        shape = (n, 3, WIDE) if order3 else (n, WIDE)
        coords, width = _coords(rng, structure, shape), WIDE
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
        out[i] = B[i, j] * dense("c", width)[j]
    elif kind == "spttv":
        out = Tensor.zeros("A", shape[:2], None if fmt is DDC else CSR)
        out[i, j] = B[i, j, k] * dense("c", width)[k]
    elif kind == "spmm":
        out = Tensor.zeros("A", (n, 4))
        out[i, j] = B[i, k] * dense("C", width, 4)[k, j]
    elif kind == "sddmm":
        out = Tensor.zeros("A", shape, CSR)
        out[i, j] = B[i, j] * dense("C", n, 3)[i, k] * dense("D", 3, width)[k, j]
    elif kind == "spmttkrp":
        out = Tensor.zeros("A", (n, 4))
        out[i, l] = B[i, j, k] * dense("C", 3, 4)[j, l] * dense("D", width, 4)[k, l]
    else:  # the fusable chain: H = (B .* (U V)) F
        U, V, F = dense("U", n, 2), dense("V", 2, width), dense("F", width, 4)
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
    works = spec.work_model(ck)("")
    interp, generated = spec.interp_leaf(ck), codegen.leaf_for(ck)
    for p, expected in zip(ck.pieces, works):
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
# a replayed launch is one call
# --------------------------------------------------------------------------- #
class CountingRuntime(Runtime):
    """Counts the launch calls it makes.  Given a kernel to ``withhold``,
    it runs that kernel's launches as calls of its leaf, piece by piece
    (counted as ``"piece"`` calls), after the zero-fill the launch's body
    makes first; every other launch calls its launch thunk
    (``"launch"``)."""

    def __init__(self, machine, withhold=None):
        super().__init__(machine)
        if withhold is not None and withhold._launches is None:
            withhold._bind(*withhold.launches())  # its leaf, without running it
        self.withhold = withhold
        self.calls = {"piece": 0, "launch": 0}

    def index_launch(self, name, colors, launch, reqs=(), **kw):
        ck = self.withhold

        def counted():
            step = ck.launches()[0] if ck is not None else None
            if step is not None and launch is step.body:
                if ck._needs_zero():
                    ck.out.vals.fill(0.0)
                self.calls["piece"] += len(ck.pieces)
                return [step.leaf(p) for p in ck.pieces]
            self.calls["launch"] += 1
            return launch()

        return super().index_launch(name, colors, counted, reqs, **kw)

    def count(self):
        calls, self.calls = self.calls, {"piece": 0, "launch": 0}
        return calls


def _thunks(ck):
    """``ck``'s bound leaf's ``{color: thunk}`` table."""
    return ck.launches()[0].leaf.__defaults__[0]


def _built(ck):
    """How many per-piece thunks ``ck``'s bound leaf has built: none while
    its launches run as the bound launch thunk's one call."""
    return len(_thunks(ck)._built)


@given(
    case=st.sampled_from(ONE_CALL),
    pieces=st.sampled_from(PIECES + (64,)),
    n=st.integers(1, 6),
    structure=st.sampled_from(STRUCTURES),
    hostile=st.booleans(),
    seed=st.integers(0, 2**16),
    block_bytes=st.sampled_from((8, 48, 120, 1 << 18)),
    copy_at=st.sampled_from((0, 2, 1 << 60)),
    streamed=st.booleans(),
)
@settings(max_examples=60)
def test_one_call_replay_writes_what_the_pieces_write(
    case, pieces, n, structure, hostile, seed, block_bytes, copy_at, streamed
):
    """A launch through the launch thunk writes (over a poisoned output)
    the bytes the per-piece thunks write, and books the step a per-piece
    launch books: per-processor compute seconds, communication events and
    task count.  Recordings and replays alike take the one call, whether
    every requirement is at home — over the kernel's own placement, for an
    output written disjointly — or the launch stages: a reduction's
    partials going home, or any launch under a processor map other than
    the placement's.  An output whose pieces add into it is zeroed by
    the launch's body, so a bare launch of it writes over the poison what
    ``execute`` writes.  A bind function that gathers
    in blocks is bound with blocks of 1 to all positions, and gathers rows
    of ``D.T`` from a contiguous copy always, by its own rule, or never
    (the interpreter gathers the strided view).  In a ``streamed`` draw
    every operand but the output is streamed in rounds: that changes what
    staging moves, not how the body runs, so the launch takes the one call
    as well."""
    clear_caches()
    machine = Machine.cpu(pieces)
    steps, written = {}, {}
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        ck, out = _kernel(case, machine, n, structure, hostile, seed, streamed=streamed)
        assert bool(ck._streamed) == streamed
        module = sys.modules[SPECS[ck.kind].bound[ck.strategy].__module__]
        if hasattr(module, "_BLOCK_BYTES"):
            mp.setattr(module, "_BLOCK_BYTES", block_bytes)
            mp.setattr(module, "_COPY_AT", copy_at)
        per_piece = {"piece": len(ck.pieces), "launch": 0}
        for one_call in (True, False):
            taken = {"piece": 0, "launch": 1} if one_call else per_piece
            rt = CountingRuntime(machine, None if one_call else ck)
            steps[one_call] = []
            for how, launch in (
                ("execute", lambda: ck.execute(rt).metrics.steps[0]),   # records
                ("execute", lambda: ck.execute(rt).metrics.steps[0]),   # replays
                ("shifted", lambda: _shifted_launch(rt, ck)),           # records
                ("shifted", lambda: _shifted_launch(rt, ck)),           # replays
            ):
                out.vals.data[...] = 7.0
                steps[one_call].append(launch())
                assert rt.count() == taken
                written.setdefault(how, []).append(out.vals.data.copy())
            assert (_built(ck) == 0) == one_call  # the bound call, or the leaf
        ck.execute(rt)
        executed = out.to_dense()
        interp, _, _ = _run(case, pieces, n, structure, hostile, seed, "interp")
    for ws in written.values():
        assert all(_same_bits(w, ws[0]) for w in ws)
    assert ck._needs_zero() or _same_bits(written["shifted"][0], written["execute"][0])
    assert _same_bits(executed, interp)
    assert steps[True] == steps[False]
    assert all(s.tasks_launched == len(ck.pieces) for s in steps[True])


def _kernel(case, machine, n, structure, hostile, seed, backend="codegen",
            streamed=False):
    """The one compiled kernel of a draw — the fused chain's through the
    pass pipeline, whose schedule a ``streamed`` draw streams
    (:func:`_stream_operands`) — and the output it writes."""
    outs, _ = _statements(case, n, structure, hostile, seed)
    scheds = [auto_schedule(o.assignment, machine) for o in outs[:-1]]
    scheds.append(auto_schedule(outs[-1].assignment, machine, strategy=case[2]))
    (sched,) = pipeline_plan(scheds, machine).schedules
    if streamed:
        _stream_operands(sched)
    return compile_kernel(sched, machine, backend=backend), outs[-1]


def _shifted_launch(rt, ck):
    """``ck``'s launch from the homes-only state, each color on the
    processor after the one it is placed on (so, on two or more, it
    stages)."""
    (step,) = ck.launches()
    rt.reset_residency()
    return rt.index_launch(step.name, step.colors, step.body, step.reqs,
                           proc_map=lambda c: (step.proc_of(c) + 1) % rt.machine.size)


def _stream_operands(sched):
    """Communicate every operand of ``sched`` but its output at the inner
    loop of its last distributed loop (``ii`` under rows, ``fi`` under
    non-zeros, ``ji`` under ``grid``): each streams in rounds."""
    out = sched.assignment.lhs.tensor
    sched.communicate([t for t in sched.assignment.tensors() if t is not out],
                      sched.divide_rel_of(sched.distributed[-1]).inner)


def _oracle_statements():
    """Every (kind, format, strategy) the differential oracle builds."""
    for kind, formats in _KIND_FORMATS.items():
        for fmt in formats:
            for strategy in _STRATEGIES[kind]:
                yield kind, fmt, strategy


@pytest.mark.parametrize("backend", ["codegen", "interp"])
def test_one_call_only_where_no_value_depends_on_the_split(backend, monkeypatch):
    """Observed over every statement the oracle builds, never looked up by
    kind: a launch calls a bound launch thunk if and only if it runs bound
    leaves (the codegen backend) and its pieces own whole rows or
    positions (a ``grid`` piece owns a column window) — a ``REDUCE``
    output included, whose one call folds the pieces' partials in piece
    order, and a launch whose operands stream in rounds, which changes
    what moves, not how the body runs.  The recording, over the kernel's
    own placement, computes as its replay does."""
    calls = {"bound": 0}
    bind = codegen._launch_thunk

    def counted(*args):
        launch = bind(*args)
        if launch is None:
            return None

        def call():
            calls["bound"] += 1
            return launch()
        return call

    monkeypatch.setattr(codegen, "_launch_thunk", counted)
    machine = Machine.cpu(4)
    one_call = {Privilege.WRITE_DISCARD: 0, Privilege.REDUCE: 0, "streamed": 0}
    for combo in _oracle_statements():
        for streamed in (False, True):
            clear_caches()
            out = _build(*combo[:2], np.random.default_rng(3), 24, 0.2)
            sched = auto_schedule(out, machine, strategy=combo[2])
            if streamed:
                _stream_operands(sched)
            ck = compile_kernel(sched, machine, backend=backend)
            assert bool(ck._streamed) == streamed, combo
            rt = CountingRuntime(machine)
            counts = []
            for _ in range(2):  # records, then replays
                calls["bound"] = 0
                ck.execute(rt)
                counts.append((rt.count(), calls["bound"]))
            expected = (backend == "codegen" and codegen.supported(ck)
                        and all(p.cols is None for p in ck.pieces))
            (launches, bound), again = counts
            assert again == counts[0] and launches["piece"] == 0, combo
            assert bound == (launches["launch"] if expected else 0), combo
            if expected:
                one_call["streamed" if streamed else ck.privileges[ck.out]] += 1
    assert all(n > 0 for n in one_call.values()) == (backend == "codegen")
    assert any(one_call.values()) == (backend == "codegen")


# --------------------------------------------------------------------------- #
# one call ≡ per piece where the pieces cut what the call reduces
# --------------------------------------------------------------------------- #
#: the machines a launch is split across
MACHINES = {"cpu4": lambda: Machine.cpu(4), "gpu4": lambda: Machine.gpu(4),
            "cpu64": lambda: Machine.cpu(64)}
FLAVORS = (False, True, "-0.0")


def _layouts(pieces, order3):
    """Operand layouts (:func:`_laid_out`) that put the non-zero split's
    piece starts — every ``ceil(nnz / pieces)`` positions — where one call
    must cut what it reduces: inside a segment and at both of its ends,
    on one segment every piece cuts, on empty segments between pieces,
    with one-non-zero and empty pieces; for 3-tensors also inside a fiber
    and on a fiber boundary inside a row.  Each holds ``2 * pieces``
    non-zeros (two a piece) but ``sparse`` (one a piece, then empty)."""
    p = pieces
    if not order3:
        return {
            "inside": [[3]] * (2 * p // 3) + [[2 * p % 3]],
            "ends": [[0]] + [[2], [0]] * p,
            "one_row": [[0], [2 * p], [0]],
            "sparse": [[0], [1], [0], [p // 2]],
        }
    third = -(-2 * p // 3)
    return {
        "fiber_inside": [[3, 3]] * (p // 3) + [[2 * p - 6 * (p // 3)]],
        "fiber_edge": [[2, 0, 2]] * (p // 2) + [[2]] * (p % 2),
        "ends": [[0]] + [[1, 1], [0]] * p,
        "one_row": [[0], [third, third, 2 * p - 2 * third], [0]],
        "sparse": [[0], [1], [0], [0, p // 2]],
    }


def _launched(case, machine, layout, hostile, seed, one_call, backend="codegen"):
    """Three executes of a draw's kernel: each one's output bytes, step
    and piece / launch calls."""
    clear_caches()
    ck, out = _kernel(case, machine, None, layout, hostile, seed, backend)
    rt = CountingRuntime(machine, None if one_call else ck)
    runs = []
    for _ in range(3):
        steps = ck.execute(rt).metrics.steps
        runs.append((out.vals.data.copy(), steps, rt.count()))
    assert not one_call or _built(ck) == 0  # the bound launch thunk's call
    return runs


def check_one_call_is_per_piece(case, machine, layout, hostile, seed):
    """The launch thunk writes the bytes the per-piece thunks and the
    interpreter write and books the same steps — compute seconds per
    processor, communication events, task count — on every execute: the
    recording (a reduction's partials stage home first) and the replays
    alike take the one call."""
    machine = MACHINES[machine]()
    order3 = case[0] in ("spttv", "spmttkrp")
    with np.errstate(all="ignore"):
        runs = [_launched(case, machine, _layouts(machine.size, order3)[layout],
                          hostile, seed, one_call, backend)
                for one_call, backend in ((True, "codegen"), (False, "codegen"),
                                          (False, "interp"))]
    for (one, steps, calls), *others in zip(*runs):
        for other, other_steps, _ in others:
            assert _same_bits(one, other)
            assert steps == other_steps
    assert runs[0][-1][2] == {"piece": 0, "launch": 1}
    assert runs[1][-1][2] == {"piece": machine.size, "launch": 0}


#: a tier-1 slice of the sweep in ``test_codegen_differential.py``: every
#: case that reduces on some machine, and every 3-tensor layout once
SMOKE = [
    *((c, m, "one_row", True, 5) for c, m in zip(
        [c for c in ONE_CALL if c[2] == "nonzeros" or c[0] == "fused"],
        ["cpu4", "gpu4", "cpu64"] * 4)),
    *((("spmttkrp", CSF3, "nonzeros"), "cpu4", lay, "-0.0", 6)
      for lay in ("fiber_inside", "fiber_edge", "ends", "sparse")),
    (("spmm", CSR, "nonzeros"), "cpu64", "sparse", True, 7),
    (("spmv", CSR, "nonzeros"), "gpu4", "ends", "-0.0", 8),
    (("fused", CSR, "nonzeros"), "cpu4", "inside", True, 9),
]


@pytest.mark.parametrize("case,machine,layout,hostile,seed", SMOKE,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_one_call_is_per_piece_where_pieces_cut(case, machine, layout, hostile, seed):
    check_one_call_is_per_piece(case, machine, layout, hostile, seed)


@given(
    case=st.sampled_from([c for c in ONE_CALL if c[2] == "nonzeros"]),
    layout=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3),
                    min_size=1, max_size=30),
    sizes=st.lists(st.integers(0, 24), min_size=1, max_size=12),
    block_bytes=st.sampled_from((48, 1 << 17)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60)
def test_one_call_adds_what_the_pieces_add_at_any_cut(
    case, layout, sizes, block_bytes, seed
):
    """A bind function's launch thunk over non-zero pieces of any sizes —
    empty ones, one-non-zero ones, cuts inside and at the ends of rows and
    fibers — writes the bytes its per-piece thunks write one after another,
    into an output that already holds NaNs of either sign, with half the
    operands' values NaNs of either sign.  Rows run long enough that
    NumPy's loops reach their remainder, where a NaN combined with a NaN
    takes the other operand's sign: merging two pieces' additions,
    products or SDDMM blocks shows there, and nowhere else."""
    machine = Machine.cpu(1)
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        ck, _ = _kernel(case, machine, None, layout, "nan", seed)
        spec = SPECS[ck.kind]
        module = sys.modules[spec.bound["nonzeros"].__module__]
        if hasattr(module, "_BLOCK_BYTES"):
            mp.setattr(module, "_BLOCK_BYTES", block_bytes)
        args, _, _ = spec.bind_args(ck)
        nnz = int(args[1].size)
        ends = np.minimum(np.cumsum(sizes), nnz)
        starts = np.r_[0, ends[:-1]]
        if ends[-1] < nnz:
            starts, ends = np.r_[starts, ends[-1]], np.r_[ends, nnz]
        pieces = [(c, int(a), int(b) - 1, *([None] * (ck.kind == "spmttkrp")))
                  for c, (a, b) in enumerate(zip(starts, ends))]
        out = args[-1]
        poison = _values(np.random.default_rng(seed), out.shape, "nan")
        build, over = spec.bound["nonzeros"](*args, pieces, True)
        written = []
        for one_call in (True, False):
            out[...] = poison
            if one_call:
                codegen._launch_thunk(pieces, [None] * len(pieces), over)()
            else:
                for p in pieces:
                    build(*p[1:], None)()
            written.append(out.copy())
    assert written[0].tobytes() == written[1].tobytes()


def test_an_oom_in_a_recording_launch_leaves_the_runtime_dirty():
    """A recording stages every color before its one call: an OOM staging
    the second color raises before any piece computes, so the output keeps
    its poison, and leaves an unknown residency state and no trace to
    replay."""
    machine = Machine.cpu(2, NodeSpec(dram_bytes=400.0))
    big = Region(IndexSpace(100))
    rt = CountingRuntime(machine)
    rt.place_on(big, 0)
    reqs = [RegionReq(big, None, Privilege.READ_ONLY)]
    out = np.full(2, np.nan)

    def launch():
        out[...] = 1.0
        return (Work(1, 1),) * 2

    for _ in range(2):  # the second launch from the same state records too
        rt.reset_residency()
        with pytest.raises(OOMError):  # staging `big` on proc 1
            rt.index_launch("t", [0, 1], launch, reqs)
        assert rt.count() == {"piece": 0, "launch": 0}
        assert np.isnan(out).all()
        assert rt._state[0] == "dirty" and not rt._traces and not rt.trace_hits


@pytest.mark.parametrize("backend", ["interp", "codegen"])
def test_an_oom_staging_a_later_color_raises_before_any_piece_computes(backend):
    """A rows SpMV whose dense operand was declared whole on processor 0:
    its recording stages the operand's window on processor 1, which then
    runs out of memory.  Staging every color comes before the launch's one
    call — the interpreter's piece-by-piece call as well as the bound one —
    so the output keeps its poison everywhere, not only in the rows of the
    color past the failing one, and the runtime is left in an unknown
    state with no trace."""
    rows = np.r_[np.arange(4), np.repeat(np.arange(4, 8), 20)]
    cols = np.r_[np.arange(4), np.tile(np.arange(0, 100, 5), 4)]
    B = Tensor.from_coo("B", [rows, cols], np.ones(rows.size), (8, 100), CSR)
    x, y = Tensor.from_dense("x", np.ones(100)), Tensor.zeros("y", (8,))
    i, j = index_vars("i j")
    y[i] = B[i, j] * x[j]
    machine = Machine.cpu(2, NodeSpec(dram_bytes=1500.0))
    ck = compile_kernel(auto_schedule(y.assignment, machine, strategy="rows"), machine,
                        backend=backend)
    rt = Runtime(machine)
    for region in x.regions():  # declared here, so no kernel re-places it
        rt.place_on(region, 0)
        rt.declared.add(region.uid)
    y.vals.data[...] = np.nan
    with pytest.raises(OOMError, match="staging x.vals") as raised:
        ck.execute(rt)
    assert raised.value.proc == 1
    assert np.isnan(y.vals.data).all()
    assert rt._state[0] == "dirty" and not rt._traces


def _rmat(rng, scale, edge_factor):
    """A Graph500 recursive-matrix graph's distinct coordinates (heavy row
    skew) and its shape."""
    n = 1 << scale
    rows = np.zeros(n * edge_factor, dtype=np.int64)
    cols = np.zeros_like(rows)
    for level in range(scale):
        r = rng.random(rows.size)
        bit = 1 << (scale - level - 1)
        cols += bit * ((r >= 0.57) & (r < 0.76) | (r >= 0.95))
        rows += bit * (r >= 0.76)
    keep = np.unique(rows * n + cols, return_index=True)[1]
    return [rows[keep], cols[keep]], (n, n)


class _CountingNumpy:
    """NumPy as :mod:`repro.kernels.sddmm` sees it, counting its
    contiguous copies (of ``D.T``)."""

    def __init__(self):
        self.copies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def ascontiguousarray(self, a):
        self.copies += 1
        return np.ascontiguousarray(a)


def _fused_on_gpus(seed):
    """The fused SDDMM→SpMM kernel of perfbench's ``program_mixed_gpu``,
    smaller: a non-zero split over gpu(4) of an RMAT graph, k = 16, about
    6 positions per column of D in all and fewer than ``_COPY_AT`` in any
    one piece."""
    rng = np.random.default_rng(seed)
    coords, shape = _rmat(rng, 11, 8)
    n, k = shape[0], 16
    B = Tensor.from_coo("B", coords, rng.random(coords[0].size), shape, CSR)
    U, V, F = (Tensor.from_dense(name, rng.random(dims))
               for name, dims in (("U", (n, k)), ("V", (k, n)), ("F", (n, k))))
    E, H = Tensor.zeros("E", shape, CSR), Tensor.zeros("H", (n, k))
    i, j, l, x, y, z = index_vars("i j l x y z")
    E[i, j] = B[i, j] * U[i, l] * V[l, j]
    H[x, y] = E[x, z] * F[z, y]
    machine = Machine.gpu(4)
    (ck,) = compile_program(
        [auto_schedule(E.assignment, machine),
         auto_schedule(H.assignment, machine, strategy="nonzeros")], machine).kernels
    assert ck.kind == FUSED_SDDMM_SPMM and ck.strategy == "nonzeros"
    assert coords[0].size >= sddmm_mod._COPY_AT * n > coords[0].size / 4
    return ck, H


def test_a_reducing_first_execute_is_one_call_with_one_copy(monkeypatch):
    """The fused non-zero launch reduces, so its recording stages the
    partials home; it still makes the one call, whose SDDMM phase copies
    ``D.T`` contiguous once over every position, where each piece alone
    gathers the strided view.  It writes the bits a per-piece recording
    writes and books the steps that recording books, and so does its own
    replay."""
    numpy = _CountingNumpy()
    monkeypatch.setattr(sddmm_mod, "np", numpy)
    written, steps = {}, {}
    for one_call in (True, False):
        clear_caches()
        ck, out = _fused_on_gpus(5)
        assert ck.privileges[ck.out] is Privilege.REDUCE
        rt = CountingRuntime(ck.machine, None if one_call else ck)
        numpy.copies = 0
        steps[one_call] = ck.execute(rt).metrics.steps
        written[one_call] = out.vals.data.tobytes()
        if one_call:
            assert rt.count() == {"piece": 0, "launch": 1} and numpy.copies == 1
            assert rt.stats()["trace_records"] == 1
            assert ck.execute(rt).metrics.steps == steps[True]
            assert rt.stats()["trace_hits"] == 1
            assert out.vals.data.tobytes() == written[True]
        else:
            assert rt.count() == {"piece": len(ck.pieces), "launch": 0}
            assert numpy.copies == 0
    assert written[True] == written[False]
    assert steps[True] == steps[False]
    assert any(e.reason.startswith("reduce") for step in steps[True]
               for e in step.comm_events)


def test_the_five_statement_program_books_its_first_run_as_its_second():
    """perfbench's five-statement program on gpu(4) — fused SDDMM→SpMM,
    SpAdd3, SpMTTKRP, SpTTV — books on its first run, which records, the
    steps and events its second run replays, and writes the same bits."""
    rng = np.random.default_rng(9)
    s = Session(gpus=4)
    mats = {}
    for name, factor in (("B", 8), ("B2", 2), ("B3", 2)):
        coords, shape = _rmat(rng, 8, factor)
        mats[name] = s.from_coo(name, coords, rng.random(coords[0].size), shape, CSR)
    n, rank, tshape = 256, 4, (60, 50, 40)
    flat = np.unique(rng.integers(0, np.prod(tshape), 2000))
    T = s.from_coo("T", np.unravel_index(flat, tshape), rng.random(flat.size), tshape, CSF3)
    U, V, F, TC, TD, tc = (s.tensor(name, rng.random(dims)) for name, dims in (
        ("U", (n, rank)), ("V", (rank, n)), ("F", (n, rank)),
        ("TC", (tshape[1], rank)), ("TD", (tshape[2], rank)), ("tc", tshape[2])))
    E, S, W = (s.zeros(name, dims, CSR) for name, dims in (
        ("E", (n, n)), ("S", (n, n)), ("W", tshape[:2])))
    H, M = s.zeros("H", (n, rank)), s.zeros("M", (tshape[0], rank))
    i, j, k, x, y, z = index_vars("i j k x y z")
    i3, j3, i4, j4, k4, l4, i5, j5, k5 = index_vars("i3 j3 i4 j4 k4 l4 i5 j5 k5")
    with s.program() as p:
        E[i, j] = mats["B"][i, j] * U[i, k] * V[k, j]
        H[x, y] = E[x, z] * F[z, y]
        S[i3, j3] = mats["B"][i3, j3] + mats["B2"][i3, j3] + mats["B3"][i3, j3]
        M[i4, l4] = T[i4, j4, k4] * TC[j4, l4] * TD[k4, l4]
        W[i5, j5] = T[i5, j5, k5] * tc[k5]
    runs, written = [], []
    for _ in range(2):
        runs.append([r.metrics.steps for r in p.run().results])
        written.append([t.vals.data.tobytes() for t in (H, S, M, W)])
    assert s.runtime.stats()["trace_hits"] == s.runtime.stats()["trace_records"]
    assert runs[0] == runs[1] and written[0] == written[1]
    assert any(step.comm_events for steps in runs[0] for step in steps)


# --------------------------------------------------------------------------- #
# structure: what a bind hoists
# --------------------------------------------------------------------------- #
def _root(a):
    while a.base is not None:
        a = a.base
    return a


def _held(obj, seen=None):
    """Every ndarray a thunk holds: through its closure, the closures of
    the functions it holds, and the lists, tuples and slotted objects (a
    :class:`~repro.kernels.segment._Span`) in them."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if callable(obj) and hasattr(obj, "__code__"):
        inner = [c.cell_contents for c in obj.__closure__ or ()]
    elif isinstance(obj, (list, tuple)):
        inner = obj
    else:
        inner = [getattr(obj, n) for n in getattr(type(obj), "__slots__", ())]
    return [a for o in inner for a in _held(o, seen)]


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
    """Arrays the thunks hold that are not views of an operand are the
    segment boundaries and nothing else: one ``indptr`` for row pieces, a
    clipped copy per non-zero piece — O(rows + pieces), however many
    non-zeros the level holds (the bincount bodies hoisted 8 bytes each).
    SDDMM's gathers index by row, so its thunks slice one position → row
    array (8 bytes per position) and hold nothing else.  Every launch but
    ``grid``'s has a launch thunk, a non-zero one included; it derives its
    boundaries as it binds — every piece's, concatenated, from the
    bind's ``indptr``: O(rows + pieces) — holds no float array (it
    allocates its scratch per call) and nothing else the per-piece thunks
    do not already share."""
    built = []
    build = codegen._launch_thunk
    monkeypatch.setattr(codegen, "_launch_thunk",
                        lambda *a: built.append(1) or build(*a))
    pieces = 4
    ck, B = _bound(kind, CSR, strategy, pieces)
    assert len(built) == (strategy != "grid")
    before = len(built)
    codegen.leaf_for(ck)
    assert len(built) == before
    operands = {id(_root(a)) for a in SPECS[ck.kind].operands(ck)}

    def hoisted(thunks):
        return {id(_root(a)): _root(a) for t in thunks for a in _held(t)
                if id(_root(a)) not in operands}

    shared = hoisted(_thunks(ck).values())
    rows = B.shape[0]
    assert B.nnz > 4 * (rows + 2 * pieces)  # so the bound below means something
    if kind == "sddmm":
        (rows_of,) = shared.values()
        assert rows_of.dtype == np.int64 and rows_of.size == B.nnz
    else:
        assert 0 < sum(a.nbytes for a in shared.values()) <= 8 * (rows + 2 * pieces)
    launch = ck.launches()[0].body
    if strategy != "grid":
        works = launch()
        assert launch() is works  # each piece's frozen Work, as columns
        frozen = {id(_root(a)) for a in _held(works)}
        own = {k: a for k, a in hoisted([launch]).items() if k not in shared.keys() | frozen}
        assert all(a.dtype == np.int64 for a in own.values())
        # its live pieces' bounds, and (SDDMM slices the shared rows)
        # the bind's indptr and the virtual boundaries derived from it
        held = sum(a.nbytes for a in own.values())
        assert held <= 8 * 2 * pieces if kind == "sddmm" else held <= 8 * 2 * (rows + 2 * pieces)


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


def _bodies(thunk):
    """The bodies a SpMTTKRP thunk runs, each as name -> the argument it
    is bound with."""
    cells = dict(zip(thunk.__code__.co_freevars, thunk.__closure__ or ()))
    fns = cells["fns"].cell_contents if "fns" in cells else ()
    return [dict(zip(inspect.signature(fn.func).parameters, fn.args)) for fn in fns]


@pytest.mark.parametrize("fmt", [CSF3, DDC], ids=lambda f: f.name)
@pytest.mark.parametrize("strategy", ["rows", "nonzeros"])
def test_spmttkrp_shares_one_identity_pair_per_bind(fmt, strategy):
    """The fibers' row sums run over one identity column index and one
    unit data array per bind, sliced to each piece's fiber count and sized
    to the most fibers one piece's positions touch."""
    ck, B = _bound("spmttkrp", fmt, strategy, pieces=4)
    closures = [c for t in _thunks(ck).values() for c in _bodies(t)]
    closures = [c for c in closures if "ident" in c]  # empty pieces: no sums
    assert len(closures) > 1
    def fibers(p0, p1):
        i, j, _ = B.coords_of(np.arange(p0, p1 + 1))
        return len(set(zip(i.tolist(), j.tolist())))

    longest = max(fibers(p0, p1) for _, p0, p1, _ in SPECS["spmttkrp"].piece_args(ck))
    for name, dtype in (("ident", np.int64), ("ones", np.float64)):
        roots = {id(_root(c[name])) for c in closures}
        assert len(roots) == 1
        root = _root(closures[0][name])
        assert root.dtype == dtype and root.size == longest
        assert all(c[name].size == c["fj"].size for c in closures)


def _fibers_of_depth(per_fiber, n=100, m=4, width=200, rank=8):
    """A SpMTTKRP statement whose CSF3 operand holds ``per_fiber``
    non-zeros in every one of its n x m fibers, and how many fibers that is."""
    rng = np.random.default_rng(13)
    nfib = n * m
    fib = np.repeat(np.arange(nfib), per_fiber)
    last = np.concatenate([rng.choice(width, per_fiber, replace=False)
                           for _ in range(nfib)])
    B = Tensor.from_coo("B", [*np.unravel_index(fib, (n, m)), last],
                        rng.random(fib.size), (n, m, width), CSF3)
    out = Tensor.zeros("A", (n, rank))
    i, j, k, l = index_vars("i j k l")
    out[i, l] = (B[i, j, k] * Tensor.from_dense("C", rng.random((m, rank)))[j, l]
                 * Tensor.from_dense("D", rng.random((width, rank)))[k, l])
    return out.assignment, nfib


@pytest.mark.parametrize("strategy", ["rows", "nonzeros"])
def test_warm_spmttkrp_allocates_per_fiber_not_per_nonzero(strategy):
    """A warm bound SpMTTKRP thunk, traced: with 50 non-zeros per fiber its
    peak exceeds that over one per fiber — the same fibers and rows — by
    at most a word per fiber.  A thunk allocates a fibers x rank sum and
    the rows of C it scales by, never a non-zeros x rank product."""
    machine = Machine.cpu(4)

    def peak(per_fiber):
        asg, nfib = _fibers_of_depth(per_fiber)
        ck = compile_kernel(auto_schedule(asg, machine, strategy=strategy), machine)
        ck.execute(Runtime(machine))  # binds and builds every thunk
        thunks = list(_thunks(ck).values())
        tracemalloc.start()
        try:
            for thunk in thunks:
                thunk()
            return tracemalloc.get_traced_memory()[1], nfib
        finally:
            tracemalloc.stop()

    peak(1)  # first-use setup outside the traced runs
    sparse, nfib = peak(1)
    dense, _ = peak(50)
    assert dense - sparse <= 8 * nfib, (sparse, dense)


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
    ("spmttkrp", CSF3, "rows"), ("spmttkrp", DDC, "nonzeros"),
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
