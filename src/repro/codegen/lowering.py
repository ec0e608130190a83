"""Lowering templates: emit specialized NumPy kernel modules as source.

Each (iteration shape × strategy) the kernel table declares lowers to a
standalone Python module whose ``bind(...)`` function hoists every piece
of index scaffolding — the level's segment boundaries and the per-piece
views or clipped copies of them, a ``searchsorted`` position -> row map
for the sampled dot, coordinate gathers for SpMTTKRP — out of the
execution path at bind time and returns a pair: a ``{color: thunk}`` dict
of flat, zero-argument array kernels, and ``over`` or ``None``.
``over(lo, hi, works)`` binds the same body over a whole range of the
pieces' range arguments, returning ``works``;
:func:`repro.codegen.bind_leaf` makes it the **launch thunk** over every
piece.  ``bind`` takes what the kernel table
(:meth:`repro.core.kernelspec.KernelSpec.bind_args`) hands it: the raw
operand arrays, then one ``(color, *range arguments, Work)`` tuple per
piece.  The :class:`~repro.legion.machine.Work` each thunk returns is the
table's, frozen into that tuple — templates carry no cost formulas, and
they name no format: a template is keyed by how its leaf iterates
(:attr:`repro.core.kernelspec.KernelSpec.shape`), so kinds that iterate
alike (SpMV over rows, SpTTV over fibers: both ``"segdot"``) share one
body and one module object, and how a level is walked reaches a body only
as ranges the table resolved, or as the ``coords`` callable built from the
level functions of :mod:`repro.taco.tensor`.

Every template that reduces does so the way the interpreter leaves in
``repro.kernels`` do — SciPy's compiled ``csr_matvec`` / ``csr_matvecs``
over the piece's segment boundaries, the whole ``crd`` / ``vals`` arrays
and the output slice (:mod:`repro.kernels.segment` states the primitive) —
and the sampled dot keeps their ``np.einsum`` row dots, so generated
results are bit-identical to the interpreter: each segment is summed from
0.0 left to right, a non-zero piece's partial is formed from 0.0 and then
added in.  Only the per-call Python scaffolding disappears.

Templates whose body can run over one longer range — ``segdot``, ``spmm``
but for ``grid``'s column windows, ``sddmm`` — return an ``over``: the
same body over a longer range's boundaries, which forms every output value
a piece owns outright exactly as that piece does.  Whether a launch *may*
run it is the compiler's call alone (a write-disjoint output:
:meth:`repro.core.compiler.CompiledKernel._bind`); the runtime calls it
only when it replays a recorded launch.  ``over`` is the closure that
builds the per-piece thunks, so it holds nothing they do not share.

The emitted source is self-contained (imports ``numpy`` and, where the
template reduces, the two ``scipy.sparse._sparsetools`` entry points — on
the one import line :func:`emit_source` adds) and carries a ``META``
dict, so a module printed with ``emit_source(shape, strategy)`` is
self-describing.
"""
from __future__ import annotations

from typing import Dict, Tuple

_HEADER = '''\
"""Generated by repro.codegen — specialized {shape} leaf ({strategy}).

Auto-generated module; do not edit.  ``bind(...)`` hoists index
scaffolding at bind time and returns ``({{color: thunk}}, over)``, flat
kernels whose accumulation ops match the interpreter leaves bit-for-bit.
"""
import numpy as np
{extra_imports}
META = {{
    "generator": "repro.codegen",
    "shape": "{shape}",
    "strategy": "{strategy}",
}}


def _const(w):
    def thunk():
        return w
    return thunk

'''

#: the one line that names the private SciPy surface in generated code
#: (``repro.kernels.segment`` is the checked site; tier-1 pins both).
_SPARSETOOLS_IMPORT = (
    "from scipy.sparse._sparsetools import csr_matvec, csr_matvecs\n"
)

#: the segment boundaries a piece reduces over.  ``ACCUMULATE`` is
#: substituted per strategy (:func:`_for_strategy`): a row piece owns its
#: output block, a non-zero piece shares rows with its neighbours.
#: ``indptr`` is derived once per bind (every ``lo`` plus a final
#: ``hi[-1] + 1``; the kernel table verified the level is packed before
#: handing ``pos`` over); a row piece takes a *view* of it, a non-zero piece
#: a copy of the boundaries of the segments it touches, the first and last
#: clipped to its positions — ``crd`` / ``vals`` are passed whole, so a
#: bind builds nothing proportional to the non-zeros.
_BOUNDARIES = '''
def _indptr(pos):
    return np.append(pos[:, 0], pos[-1:, 1] + 1)


def _segments_of(indptr, lo, hi):
    if not ACCUMULATE:
        return lo, indptr[lo : hi + 2]
    r0, r1 = np.searchsorted(indptr, (lo, hi), side="right") - 1
    ip = indptr[r0 : r1 + 2].copy()
    ip[0], ip[-1] = lo, hi + 1
    return int(r0), ip
'''

#: ``csr_matvec(s)`` accumulates, so it is handed a zeroed target: the
#: output block itself where it can be written in place, else (a ``grid``
#: column window, a permuted layout, another dtype, and always for a
#: non-zero piece, whose partial is formed from 0.0 and *then* added in) a
#: fresh array.
_TARGET = '''
def _target(ov):
    if not ACCUMULATE and ov.flags.c_contiguous and ov.dtype == np.float64:
        ov[...] = 0.0
        return ov
    return np.zeros(ov.shape)


def _deliver(acc, ov):
    if ACCUMULATE:
        np.add(ov, acc, out=ov)
    elif acc is not ov:
        ov[...] = acc
'''

#: one dot product per segment of B's last level — a row for SpMV, an
#: (i, j) fiber for SpTTV; the table resolved the piece to its segments
#: (``rows``) or hands over its position range (``nonzeros``).  The same
#: body over a longer range is the launch thunk's.
_SEGDOT = _BOUNDARIES + _TARGET + '''
def bind(pos, crd, vals, c, out, pieces):
    """Resolve each piece to its segment boundaries; return (thunks, over)."""
    indptr = _indptr(pos)

    def over(lo, hi, w):
        r0, ip = _segments_of(indptr, lo, hi)
        return _thunk(ip, crd, vals, c, out[r0 : r0 + ip.size - 1], w)

    thunks = {}
    for color, lo, hi, w in pieces:
        thunks[color] = over(lo, hi, w) if lo <= hi else _const(w)
    return thunks, over


def _thunk(ip, crd, vals, c, ov, w):
    nr, m = ip.size - 1, c.shape[0]

    def thunk():
        acc = _target(ov)
        csr_matvec(nr, m, ip, crd, vals, c, acc)
        _deliver(acc, ov)
        return w
    return thunk
'''

#: the SpMM reduce, shared by the standalone and the fused templates: one
#: ``csr_matvecs`` over the piece's row boundaries.
_SPMM_REDUCE = _TARGET + '''
def _reduce(ip, crd, vals, X, ov):
    m, k = X.shape
    acc = _target(ov)
    csr_matvecs(ip.size - 1, m, k, ip, crd, vals, X.reshape(-1), acc.reshape(-1))
    _deliver(acc, ov)
'''

#: ``rows`` / ``grid`` piece tuples carry a column window (``None``: all
#: of C and A, as for ``nonzeros`` tuples, which have none); a full-width
#: window of a row-major array is still contiguous, so only ``grid`` pays
#: for the contiguous copies.  The same body over a longer range is the
#: launch thunk's, except under ``grid``, whose pieces' column windows one
#: row range cannot express.
_SPMM = _BOUNDARIES + _SPMM_REDUCE + '''
def bind(pos, crd, vals, C, out, pieces):
    """Resolve each piece to its row boundaries; return (thunks, over)."""
    indptr = _indptr(pos)

    def over(lo, hi, w, cols=None):
        c0, c1 = cols or (0, C.shape[1] - 1)
        r0, ip = _segments_of(indptr, lo, hi)
        return _thunk(
            ip, crd, vals, C[:, c0 : c1 + 1],
            out[r0 : r0 + ip.size - 1, c0 : c1 + 1], w,
        )

    thunks, windowed = {}, False
    for color, lo, hi, *window, w in pieces:
        thunks[color] = over(lo, hi, w, *window) if lo <= hi else _const(w)
        windowed = windowed or any(window)  # a ``grid`` piece's columns
    return thunks, None if windowed else over


def _thunk(ip, crd, vals, Cv, ov, w):
    def thunk():
        _reduce(ip, crd, vals, Cv, ov)
        return w
    return thunk
'''

#: the SDDMM phase, shared by the standalone and the fused templates: the
#: sampled row dots of positions ``p0 .. p0 + rows.size - 1`` (``rows``:
#: each position's row), in blocks whose (block, k) gathers fit in 128 KiB
#: of cache.  Rows of C are gathered with ``np.take``.  ``D.T`` of a
#: row-major D is a strided view — each of its rows is k elements n apart,
#: k cache lines — so its rows are gathered by fancy indexing (``np.take``
#: from the view is several times slower), or with ``np.take`` from a
#: contiguous copy of ``D.T`` made once per call (D's values may change
#: between calls) when the call covers at least ``_COPY_AT`` positions per
#: column of D: below that the copy costs more than it saves.  Every
#: position's value is formed alone, whatever the block or gather.
_SDDMM = '''
_BLOCK_BYTES = 1 << 17
_COPY_AT = 2


def _rows_of(pos, p0, p1):
    return np.searchsorted(
        pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
    ) - 1


def _sddmm(rows, crd, vals, C, D, out_vals, p0):
    copy = rows.size >= _COPY_AT * D.shape[1]
    Dt = np.ascontiguousarray(D.T) if copy else D.T
    block = max(1, _BLOCK_BYTES // (8 * max(C.shape[1], 1)))
    for s in range(0, rows.size, block):
        e = min(s + block, rows.size)
        cc = crd[p0 + s : p0 + e]
        dots = np.einsum(
            "ij,ij->i", np.take(C, rows[s:e], axis=0),
            np.take(Dt, cc, axis=0) if copy else Dt[cc],
        )
        out_vals[p0 + s : p0 + e] = vals[p0 + s : p0 + e] * dots
'''

#: ``positions`` maps a piece's range arguments to the positions it owns;
#: every thunk of a bind slices one position -> row array, and ``over``
#: runs the same body over a longer range.
_SDDMM_COMMON = _SDDMM + '''

def _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, positions):
    rows = _rows_of(pos, 0, crd.size - 1)

    def over(lo, hi, w):
        p0, p1 = positions(lo, hi)
        if p1 < p0:
            return _const(w)
        rr = rows[p0 : p1 + 1]

        def thunk():
            _sddmm(rr, crd, vals, C, D, out_vals, p0)
            return w
        return thunk

    thunks = {}
    for color, lo, hi, w in pieces:
        thunks[color] = over(lo, hi, w)
    return thunks, over
'''

_SDDMM_ROWS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces):
    """Convert row bounds to position ranges; return (thunks, over)."""
    return _bind_ranges(pos, crd, vals, C, D, out_vals, pieces, lambda r0, r1: (
        (int(pos[r0, 0]), int(pos[r1, 1])) if r0 <= r1 else (0, -1)
    ))
'''

_SDDMM_NONZEROS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces):
    """Hoist row gathers per piece; return (thunks, over)."""
    return _bind_ranges(
        pos, crd, vals, C, D, out_vals, pieces, lambda p0, p1: (p0, p1)
    )
'''

#: the SDDMM phase runs into a scratch values array private to the binding
#: — never a region — over the positions the piece's boundaries span (none
#: when its rows are empty: the reduce then zero-fills); the SpMM phase
#: reduces the *whole* scratch array over those boundaries.
_FUSED_SDDMM_SPMM = _SDDMM + _BOUNDARIES + _SPMM_REDUCE + '''
def bind(pos, crd, vals, C, D, F, out, pieces):
    """Hoist both phases' scaffolding per piece; return (thunks, None)."""
    thunks = {}
    scratch = np.zeros_like(vals)
    indptr = _indptr(pos)
    for color, lo, hi, w in pieces:
        if hi < lo:
            thunks[color] = _const(w)
            continue
        r0, ip = _segments_of(indptr, lo, hi)
        p0 = int(ip[0])
        rows = _rows_of(pos, p0, int(ip[-1]) - 1)
        thunks[color] = _thunk(
            rows, p0, crd, vals, C, D, ip, scratch, F,
            out[r0 : r0 + ip.size - 1, :], w,
        )
    return thunks, None


def _thunk(rows, p0, crd, vals, C, D, ip, scratch, F, ov, w):
    def thunk():
        _sddmm(rows, crd, vals, C, D, scratch, p0)
        _reduce(ip, crd, scratch, F, ov)
        return w
    return thunk
'''

#: ``coords`` is the sparse operand's level functions chained from the last
#: level to the root (``Tensor.coords_of``): positions -> (i, j, k).  The
#: per-non-zero products are formed first and then summed per output row by
#: ``csr_matvecs`` over an identity column index and unit data (one shared
#: pair per bind, sliced per piece), which adds them in position order.
_MTTKRP = _SPMM_REDUCE + '''
def _body_thunk(i_ids, j_ids, k_ids, v, C, D, out, ident, ones, w):
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    ip = np.searchsorted(i_ids, np.arange(r0, r1 + 2))
    ov = out[r0 : r1 + 1, :]

    def thunk():
        prods = v[:, None] * C[j_ids, :] * D[k_ids, :]
        _reduce(ip, ident, ones, prods, ov)
        return w
    return thunk


def bind(coords, vals, C, D, out, pieces):
    """Hoist coordinate gathers per position range; return (thunks, None)."""
    thunks = {}
    longest = max((p1 - p0 + 1 for _color, p0, p1, _w in pieces), default=0)
    ident, ones = np.arange(longest), np.ones(longest)
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        n = p1 - p0 + 1
        i_ids, j_ids, k_ids = coords(np.arange(p0, p1 + 1, dtype=np.int64))
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out,
            ident[:n], ones[:n], w,
        )
    return thunks, None
'''


def _for_strategy(body: str, strategy: str) -> str:
    """``ACCUMULATE`` is the one thing a strategy changes in a reducing
    body: row pieces own their output rows and overwrite, non-zero pieces
    share rows and add."""
    return body.replace("ACCUMULATE", str(strategy == "nonzeros"))


#: body template per (iteration shape, strategy) — exactly the keys the
#: kernel table declares (``KernelSpec.template_keys``; tier-1 checks the
#: two agree).  "grid" rides the SpMM rows body with a column window in the
#: piece tuple.
TEMPLATES: Dict[Tuple[str, str], str] = {
    ("segdot", "rows"): _for_strategy(_SEGDOT, "rows"),
    ("segdot", "nonzeros"): _for_strategy(_SEGDOT, "nonzeros"),
    ("spmm", "rows"): _for_strategy(_SPMM, "rows"),
    ("spmm", "grid"): _for_strategy(_SPMM, "rows"),
    ("spmm", "nonzeros"): _for_strategy(_SPMM, "nonzeros"),
    ("sddmm", "rows"): _SDDMM_ROWS,
    ("sddmm", "nonzeros"): _SDDMM_NONZEROS,
    ("fused_sddmm_spmm", "rows"): _for_strategy(_FUSED_SDDMM_SPMM, "rows"),
    ("fused_sddmm_spmm", "nonzeros"): _for_strategy(_FUSED_SDDMM_SPMM, "nonzeros"),
    ("spmttkrp", "rows"): _for_strategy(_MTTKRP, "rows"),
    ("spmttkrp", "nonzeros"): _for_strategy(_MTTKRP, "nonzeros"),
}


def emit_source(shape: str, strategy: str) -> str:
    """The complete generated-module source for one declared template."""
    key = (shape, strategy)
    body = TEMPLATES.get(key)
    if body is None:
        raise KeyError(f"no lowering template for {key}")
    extra = _SPARSETOOLS_IMPORT if "csr_matvec" in body else ""
    return _HEADER.format(
        shape=shape, strategy=strategy, extra_imports=extra
    ) + body
