"""Lowering templates: emit specialized NumPy kernel modules as source.

Each (iteration shape × strategy) the kernel table declares lowers to a
standalone Python module whose ``bind(...)`` function hoists every piece
of index scaffolding — position slices, ``searchsorted`` row maps,
``repeat`` segment ids, local CSR blocks — out of the execution path at
bind time and returns a ``{color: thunk}`` dict of flat, zero-argument
array kernels.  ``bind`` takes what the kernel table
(:meth:`repro.core.kernelspec.KernelSpec.bind_args`) hands it: the raw
operand arrays, then one ``(color, *range arguments, Work)`` tuple per
piece.  The :class:`~repro.legion.machine.Work` each thunk returns is the
table's, frozen into that tuple — templates carry no cost formulas, and
they name no format: a template is keyed by how its leaf iterates
(:attr:`repro.core.kernelspec.KernelSpec.shape`), so kinds that iterate
alike (SpMV over rows, SpTTV over fibers: both ``"segdot"``) share one
body and one module object, and how a level is walked reaches a body only
as ranges the table resolved, or as the ``coords`` callable built from the
level functions of :mod:`repro.taco.tensor`.  The
thunks intentionally use the *identical* accumulation primitives as the
interpreter leaves in ``repro.kernels`` (``np.bincount`` segment sums,
scipy CSR ``@``, ``np.einsum`` row dots), so generated results are
bit-identical to the interpreter — only the per-call Python scaffolding
disappears.

The emitted source is self-contained (imports ``numpy`` and, where the
template needs it, ``scipy.sparse``) and carries a ``META`` dict, so a
module printed with ``emit_source(shape, strategy)`` is
self-describing.
"""
from __future__ import annotations

from typing import Dict, Tuple

_HEADER = '''\
"""Generated by repro.codegen — specialized {shape} leaf ({strategy}).

Auto-generated module; do not edit.  ``bind(...)`` hoists index
scaffolding at bind time and returns ``{{color: thunk}}`` flat kernels
whose accumulation ops match the interpreter leaves bit-for-bit.
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


def _fill_zero(ov, w):
    def thunk():
        ov[...] = 0.0
        return w
    return thunk

'''

#: one dot product per segment of B's last level — a row for SpMV, an
#: (i, j) fiber for SpTTV; the table resolved the piece to its segments.
_SEGDOT_ROWS = '''
def bind(pos, crd, vals, c, out, pieces):
    """Hoist per-piece segment scaffolding; return {color: thunk}."""
    thunks = {}
    for color, r0, r1, w in pieces:
        if r1 < r0:
            thunks[color] = _const(w)
            continue
        nr = r1 - r0 + 1
        lo = pos[r0 : r1 + 1, 0]
        hi = pos[r0 : r1 + 1, 1]
        lens = np.maximum(hi - lo + 1, 0)
        ov = out[r0 : r1 + 1]
        if int(lens.sum()) == 0:
            thunks[color] = _fill_zero(ov, w)
            continue
        s, e = int(lo[0]), int(hi[-1])
        v = vals[s : e + 1]
        cc = crd[s : e + 1]
        rows = np.repeat(np.arange(nr, dtype=np.int64), lens)
        thunks[color] = _rows_thunk(v, cc, c, rows, nr, ov, w)
    return thunks


def _rows_thunk(v, cc, c, rows, nr, ov, w):
    def thunk():
        ov[:] = np.bincount(rows, weights=v * c[cc], minlength=nr)[:nr]
        return w
    return thunk
'''

_SEGDOT_NONZEROS = '''
def bind(pos, crd, vals, c, out, pieces):
    """Hoist per-piece position scaffolding; return {color: thunk}."""
    thunks = {}
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        v = vals[p0 : p1 + 1]
        cc = crd[p0 : p1 + 1]
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1]
        thunks[color] = _nz_thunk(v, cc, c, rel, nr, ov, w)
    return thunks


def _nz_thunk(v, cc, c, rel, nr, ov, w):
    def thunk():
        np.add(ov, np.bincount(rel, weights=v * c[cc], minlength=nr)[:nr], out=ov)
        return w
    return thunk
'''

_SPMM_ROWS = '''
def bind(pos, crd, vals, C, out, pieces):
    """Hoist local CSR blocks per piece; return {color: thunk}."""
    thunks = {}
    ncols = C.shape[0]
    for color, r0, r1, cols, w in pieces:
        if r1 < r0:
            thunks[color] = _const(w)
            continue
        Cv = C if cols is None else C[:, cols[0] : cols[1] + 1]
        Ov = out if cols is None else out[:, cols[0] : cols[1] + 1]
        s, e = int(pos[r0, 0]), int(pos[r1, 1])
        indptr = np.empty(r1 - r0 + 2, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - s
        indptr[-1] = e + 1 - s
        block = sp.csr_matrix(
            (vals[s : e + 1], crd[s : e + 1], indptr),
            shape=(r1 - r0 + 1, ncols),
        )
        thunks[color] = _rows_thunk(block, Cv, Ov[r0 : r1 + 1, :], w)
    return thunks


def _rows_thunk(block, Cv, ov, w):
    def thunk():
        ov[:, :] = block @ Cv
        return w
    return thunk
'''

_SPMM_NONZEROS = '''
def bind(pos, crd, vals, C, out, pieces):
    """Hoist position/row scaffolding per piece; return {color: thunk}."""
    thunks = {}
    k = C.shape[1]
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        cols = crd[p0 : p1 + 1]
        v = vals[p0 : p1 + 1]
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1, :]
        thunks[color] = _nz_thunk(v, cols, C, rel, nr, k, ov, w)
    return thunks


def _nz_thunk(v, cols, C, rel, nr, k, ov, w):
    def thunk():
        prods = v[:, None] * C[cols, :]
        acc = np.empty((nr, k), dtype=prods.dtype)
        for col in range(k):
            acc[:, col] = np.bincount(
                rel, weights=prods[:, col], minlength=nr
            )[:nr]
        np.add(ov, acc, out=ov)
        return w
    return thunk
'''

#: the SDDMM phase, shared by the standalone and the fused templates:
#: chunked (row-gather, col-gather, vals, out-slice) tuples per position
#: range, bounding the nnz * k intermediate.
_SDDMM_CHUNKS = '''
_CHUNK = 1 << 18


def _sddmm_chunks(pos, crd, vals, out_vals, p0, p1):
    nnz = p1 - p0 + 1
    rows = np.searchsorted(
        pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
    ) - 1
    chunks = []
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        chunks.append((
            rows[s:e],
            crd[p0 + s : p0 + e],
            vals[p0 + s : p0 + e],
            out_vals[p0 + s : p0 + e],
        ))
    return rows, chunks


def _run_sddmm(chunks, C, Dt):
    for rr, cc, vv, oo in chunks:
        dots = np.einsum("ij,ij->i", C[rr, :], Dt[cc, :])
        oo[:] = vv * dots
'''

_SDDMM_COMMON = _SDDMM_CHUNKS + '''

def _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, w):
    if p1 < p0:
        return _const(w)
    _rows, chunks = _sddmm_chunks(pos, crd, vals, out_vals, p0, p1)

    def thunk():
        _run_sddmm(chunks, C, Dt)
        return w
    return thunk
'''

_SDDMM_ROWS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces):
    """Convert row bounds to position ranges at bind; return {color: thunk}."""
    thunks = {}
    Dt = D.T
    for color, r0, r1, w in pieces:
        if r1 < r0:
            thunks[color] = _const(w)
            continue
        p0, p1 = int(pos[r0, 0]), int(pos[r1, 1])
        thunks[color] = _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, w)
    return thunks
'''

_SDDMM_NONZEROS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces):
    """Hoist chunked row/col gathers per piece; return {color: thunk}."""
    thunks = {}
    Dt = D.T
    for color, p0, p1, w in pieces:
        thunks[color] = _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, w)
    return thunks
'''

_FUSED_SDDMM_SPMM_NONZEROS = _SDDMM_CHUNKS + '''

def bind(pos, crd, vals, C, D, F, out, pieces):
    """Hoist both phases' scaffolding; the SDDMM product lives in a scratch
    values array private to this binding — never a region."""
    thunks = {}
    scratch = np.zeros_like(vals)
    Dt = D.T
    kf = F.shape[1]
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        rows, chunks = _sddmm_chunks(pos, crd, vals, scratch, p0, p1)
        sv = scratch[p0 : p1 + 1]
        cols = crd[p0 : p1 + 1]
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1, :]
        thunks[color] = _nz_thunk(chunks, C, Dt, sv, cols, F, rel, nr, kf, ov, w)
    return thunks


def _nz_thunk(chunks, C, Dt, sv, cols, F, rel, nr, kf, ov, w):
    def thunk():
        _run_sddmm(chunks, C, Dt)
        prods = sv[:, None] * F[cols, :]
        acc = np.empty((nr, kf), dtype=prods.dtype)
        for col in range(kf):
            acc[:, col] = np.bincount(
                rel, weights=prods[:, col], minlength=nr
            )[:nr]
        np.add(ov, acc, out=ov)
        return w
    return thunk
'''

_FUSED_SDDMM_SPMM_ROWS = _SDDMM_CHUNKS + '''

def bind(pos, crd, vals, C, D, F, out, pieces):
    """Convert row bounds to position ranges at bind; return {color: thunk}."""
    thunks = {}
    scratch = np.zeros_like(vals)
    Dt = D.T
    ncols = F.shape[0]
    for color, r0, r1, w in pieces:
        if r1 < r0:
            thunks[color] = _const(w)
            continue
        nr = r1 - r0 + 1
        ov = out[r0 : r1 + 1, :]
        p0, p1 = int(pos[r0, 0]), int(pos[r1, 1])
        if p1 < p0:
            # No non-zeros in these rows: the SDDMM phase is empty and the
            # SpMM phase overwrites the output block with zeros.
            thunks[color] = _fill_zero(ov, w)
            continue
        _rows, chunks = _sddmm_chunks(pos, crd, vals, scratch, p0, p1)
        indptr = np.empty(nr + 1, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - p0
        indptr[-1] = p1 + 1 - p0
        sv = scratch[p0 : p1 + 1]
        sidx = crd[p0 : p1 + 1]
        thunks[color] = _rows_thunk(
            chunks, C, Dt, sv, sidx, indptr, nr, ncols, F, ov, w
        )
    return thunks


def _rows_thunk(chunks, C, Dt, sv, sidx, indptr, nr, ncols, F, ov, w):
    def thunk():
        _run_sddmm(chunks, C, Dt)
        # The CSR block is rebuilt per execution: its data array is the
        # scratch slice the SDDMM phase just refreshed.
        block = sp.csr_matrix((sv, sidx, indptr), shape=(nr, ncols))
        ov[:, :] = block @ F
        return w
    return thunk
'''

#: ``coords`` is the sparse operand's level functions chained from the last
#: level to the root (``Tensor.coords_of``): positions -> (i, j, k).
#: ``ACCUMULATE`` is substituted per strategy: row pieces own their output
#: rows and overwrite, non-zero pieces share rows and add.
_MTTKRP = '''
def _body_thunk(i_ids, j_ids, k_ids, v, C, D, out, w):
    l = C.shape[1]
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    nr = r1 - r0 + 1
    rel = i_ids - r0
    ov = out[r0 : r1 + 1, :]

    def thunk():
        prods = v[:, None] * C[j_ids, :] * D[k_ids, :]
        acc = np.empty((nr, l), dtype=prods.dtype)
        for col in range(l):
            acc[:, col] = np.bincount(
                rel, weights=prods[:, col], minlength=nr
            )[:nr]
        if ACCUMULATE:
            np.add(ov, acc, out=ov)
        else:
            ov[:, :] = acc
        return w
    return thunk


def bind(coords, vals, C, D, out, pieces):
    """Hoist coordinate gathers per position range; return {color: thunk}."""
    thunks = {}
    for color, p0, p1, w in pieces:
        if p1 < p0:
            thunks[color] = _const(w)
            continue
        i_ids, j_ids, k_ids = coords(np.arange(p0, p1 + 1, dtype=np.int64))
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out, w
        )
    return thunks
'''


def _mttkrp(strategy: str) -> str:
    return _MTTKRP.replace("ACCUMULATE", str(strategy == "nonzeros"))


#: body template per (iteration shape, strategy) — exactly the keys the
#: kernel table declares (``KernelSpec.template_keys``; tier-1 checks the
#: two agree).  "grid" rides the SpMM rows body with a column window in the
#: piece tuple.
TEMPLATES: Dict[Tuple[str, str], str] = {
    ("segdot", "rows"): _SEGDOT_ROWS,
    ("segdot", "nonzeros"): _SEGDOT_NONZEROS,
    ("spmm", "rows"): _SPMM_ROWS,
    ("spmm", "grid"): _SPMM_ROWS,
    ("spmm", "nonzeros"): _SPMM_NONZEROS,
    ("sddmm", "rows"): _SDDMM_ROWS,
    ("sddmm", "nonzeros"): _SDDMM_NONZEROS,
    ("fused_sddmm_spmm", "rows"): _FUSED_SDDMM_SPMM_ROWS,
    ("fused_sddmm_spmm", "nonzeros"): _FUSED_SDDMM_SPMM_NONZEROS,
    ("spmttkrp", "rows"): _mttkrp("rows"),
    ("spmttkrp", "nonzeros"): _mttkrp("nonzeros"),
}


def emit_source(shape: str, strategy: str) -> str:
    """The complete generated-module source for one declared template."""
    key = (shape, strategy)
    body = TEMPLATES.get(key)
    if body is None:
        raise KeyError(f"no lowering template for {key}")
    extra = "import scipy.sparse as sp\n" if "sp.csr_matrix(" in body else ""
    return _HEADER.format(
        shape=shape, strategy=strategy, extra_imports=extra
    ) + body
