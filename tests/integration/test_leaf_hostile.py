"""Hostile-input differential for the reducing leaves.

Every leaf that reduces — the segmented dot (SpMV, SpTTV), SpMM, the SpMM
phase of the fused SDDMM→SpMM and SpMTTKRP's row sum — runs on one compiled
segment-reduce primitive (:mod:`repro.kernels.segment`), called with the
same arguments by the interpreter leaves and the generated modules.  This
module draws the inputs that primitive is most likely to get wrong — an
empty tensor, all-empty rows, leading / trailing empty rows, one heavy
segment split across every non-zero piece, more pieces than rows, NaN /
±inf / ``-0.0`` values — and checks, per draw:

* interp ≡ codegen **bitwise** (NaN positions and the sign of zero too);
* fused ≡ unfused bitwise;
* each ≡ :mod:`repro.taco.reference` at the sweeps' tolerance (finite
  draws only: against dense NumPy the summation order differs);
* the ``Work`` every leaf reports per piece ≡ the kernel table's.

Plus a host-independent structure check: a bind hoists nothing
proportional to the non-zeros, and an unpacked level is refused by name on
both backends instead of being mis-sliced.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.core import SPECS, clear_caches, compile_kernel, compile_program
from repro.core.passes import FUSED_SDDMM_SPMM
from repro.errors import FormatError
from repro.legion import Machine, Runtime, make_pos_region
from repro.taco import CSF3, CSR, DDC, Dense, Format, Tensor, index_vars
from repro.taco.reference import evaluate
from repro.taco.tensor import CompressedLevel

#: (kind, sparse operand format, strategy); "fused" is the SDDMM→SpMM chain.
CASES = [
    ("spmv", CSR, "rows"), ("spmv", CSR, "nonzeros"),
    ("spttv", CSF3, "rows"), ("spttv", CSF3, "nonzeros"),
    ("spttv", DDC, "rows"), ("spttv", DDC, "nonzeros"),
    ("spmm", CSR, "rows"), ("spmm", CSR, "grid"), ("spmm", CSR, "nonzeros"),
    ("fused", CSR, "rows"), ("fused", CSR, "nonzeros"),
    ("spmttkrp", CSF3, "rows"), ("spmttkrp", CSF3, "nonzeros"),
    ("spmttkrp", DDC, "rows"), ("spmttkrp", DDC, "nonzeros"),
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
])
def test_bind_hoists_nothing_proportional_to_nnz(kind, strategy):
    """Arrays the thunks close over that are not views of an operand are
    the segment boundaries and nothing else: one ``indptr`` for row pieces,
    a clipped copy per non-zero piece — O(rows + pieces), however many
    non-zeros the level holds (the bincount bodies hoisted 8 bytes each)."""
    pieces = 4
    ck, B = _bound(kind, CSR, strategy, pieces)
    operands = {id(_root(a)) for a in SPECS[ck.kind].operands(ck)}
    thunks = ck._leaf.__defaults__[0]
    hoisted = {}
    for thunk in thunks.values():
        for arr in _closed_over(thunk).values():
            root = _root(arr)
            if id(root) not in operands:
                hoisted[id(root)] = root.nbytes
    rows = B.shape[0]
    assert B.nnz > 4 * (rows + 2 * pieces)  # so the bound below means something
    assert 0 < sum(hoisted.values()) <= 8 * (rows + 2 * pieces)


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
def _unpack_last_level(B):
    """Swap B's last level for a hand-built bounds region that leaves a
    gap: entry 0 gives up its last position, which no entry then owns."""
    last = B.levels[-1]
    bounds = last.pos.data.copy()
    first = int(np.flatnonzero(bounds[:, 1] >= bounds[:, 0])[0])
    bounds[first, 1] -= 1
    B.levels[-1] = CompressedLevel(
        make_pos_region(bounds, name="B_handbuilt_pos"), last.crd)


@pytest.mark.parametrize("backend", ["interp", "codegen"])
@pytest.mark.parametrize("case", [
    ("spmv", CSR, "rows"), ("spmv", CSR, "nonzeros"),
    ("spttv", CSF3, "rows"), ("spmm", CSR, "rows"), ("spmm", CSR, "nonzeros"),
], ids=lambda c: "-".join(map(str, (c[0], c[1].name, c[2]))))
def test_unpacked_level_is_refused_by_name(case, backend):
    machine = Machine.cpu(2)
    (out,), _ = _statements(case, 6, "random", False, seed=3)
    B = next(t for t in out.assignment.tensors() if t.name == "B")
    _unpack_last_level(B)
    with pytest.raises(FormatError, match="'B_handbuilt_pos' is not a packed level"):
        ck = compile_kernel(
            auto_schedule(out.assignment, machine, strategy=case[2]),
            machine, backend=backend)
        ck.execute(Runtime(machine))
