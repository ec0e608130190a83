"""Independent references and the failure ledger.

Every reference here is computed by the benchmark with SciPy/NumPy only; none
calls into ``repro`` (in particular never ``repro.taco.reference``), and none
densifies a sparse operand: SDDMM, SpTTV and SpMTTKRP are evaluated per stored
non-zero.  Structure that does not change between steps (row ids of a CSR
matrix, fibre boundaries of a 3-tensor) is derived once in ``__init__``;
``compute(k)`` does only the arithmetic for operand rotation ``k``, which is
what ``vs_scipy_ratio`` times.

Inputs are integer-valued (see :mod:`perfbench.workloads`), so ``matches`` is
exact ``array_equal``.  Program outputs are read through the tensors' public
accessors (``dense_array()``, ``csr_arrays()``).
"""
from __future__ import annotations

import traceback
from typing import Any, Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp


# --------------------------------------------------------------------------- #
# failure ledger
# --------------------------------------------------------------------------- #
class Checker:
    """Counts operations attempted and failed (exceptions + mismatches).

    ``fail_share = failed / attempted``.  An operation that raises and an
    operation whose output differs from the reference both count once.
    """

    MAX_NOTES = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(note)

    def attempt(self, what: str, fn: Callable[[], Any]) -> Tuple[bool, Any]:
        """Run one operation; an exception is a counted failure, not a crash.

        This is the benchmark's outer boundary: it must keep measuring after
        a ``ReproError`` (or any other error) in one operation, so it records
        the traceback and carries on.
        """
        self.attempted += 1
        try:
            return True, fn()
        except Exception as e:  # boundary: recorded in notes, counted, reported
            tail = traceback.format_exc(limit=3).strip().splitlines()[-1]
            self._fail(f"{what}: {type(e).__name__}: {tail}")
            return False, None

    def expect(self, what: str, ok: bool) -> bool:
        """Record the verdict on the output of the last attempted operation."""
        if not ok:
            self._fail(f"{what}: output differs from the reference")
        return ok

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------- #
# reading program outputs
# --------------------------------------------------------------------------- #
def dense_matches(out, expected: np.ndarray) -> bool:
    return np.array_equal(out.dense_array(), expected)


def csr_matches(out, expected: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> bool:
    """``expected`` is SciPy-style ``(indptr, indices, data)``; the program
    stores ``pos`` as inclusive ``[lo, hi]`` rectangles per row."""
    indptr, indices, data = expected
    pos, crd, vals = out.csr_arrays()
    return (
        pos.shape == (indptr.size - 1, 2)
        and crd.shape == indices.shape
        and np.array_equal(pos[:, 0], indptr[:-1])
        and np.array_equal(pos[:, 1] + 1, indptr[1:])
        and np.array_equal(crd, indices)
        and np.array_equal(vals.reshape(-1), data)
    )


def _csr_parts(m: sp.csr_matrix):
    return m.indptr, m.indices, m.data


# --------------------------------------------------------------------------- #
# reference for packing
# --------------------------------------------------------------------------- #
class Pack:
    """SciPy/NumPy doing a pack's work on the same raw operands: a matrix goes
    CSR -> COO -> canonical CSR (what ``Session.tensor`` starts from and must
    arrive at); a 3-tensor's coordinates are sorted lexicographically and its
    fibre boundaries found."""

    def __init__(self, matrices: List[sp.csr_matrix], tensors: List[dict]):
        self.matrices, self.tensors = matrices, tensors

    def compute(self) -> int:
        stored = 0
        for m in self.matrices:
            packed = m.tocoo().tocsr()
            packed.sum_duplicates()
            stored += packed.nnz
        for T in self.tensors:
            i, j, k = T["coords"]
            order = np.lexsort((k, j, i))
            i, j, vals = i[order], j[order], T["vals"][order]
            fibre = np.ones(i.size, dtype=bool)
            fibre[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
            np.bincount(i[fibre], minlength=T["shape"][0])
            stored += vals.size
        return stored


# --------------------------------------------------------------------------- #
# references, one per statement kind
# --------------------------------------------------------------------------- #
class SpMV:
    """a(i) = B(i,j) * c(j)"""

    def __init__(self, B: sp.csr_matrix, xs: List[np.ndarray]):
        self.B, self.xs = B, xs

    def compute(self, k: int):
        return self.B @ self.xs[k % len(self.xs)]

    matches = staticmethod(dense_matches)
    #: for a served result, which arrives as a dense copy of the output
    copy_matches = staticmethod(np.array_equal)


class SpMM:
    """A(i,j) = B(i,k) * C(k,j)"""

    def __init__(self, B: sp.csr_matrix, Cs: List[np.ndarray]):
        self.B, self.Cs = B, Cs

    def compute(self, k: int):
        return self.B @ self.Cs[k % len(self.Cs)]

    matches = staticmethod(dense_matches)
    copy_matches = staticmethod(np.array_equal)


class SDDMM:
    """A(i,j) = B(i,j) * C(i,k) * D(k,j), per stored non-zero of B."""

    def __init__(self, B: sp.csr_matrix, Cs, Ds):
        self.B, self.Cs, self.Ds = B, Cs, Ds
        self.rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))

    def values(self, k: int) -> np.ndarray:
        C = self.Cs[k % len(self.Cs)]
        Dt = self.Ds[k % len(self.Ds)].T
        dots = np.einsum("nk,nk->n", C[self.rows], Dt[self.B.indices])
        return self.B.data * dots

    def compute(self, k: int):
        return self.B.indptr, self.B.indices, self.values(k)

    matches = staticmethod(csr_matches)

    def copy_matches(self, value: np.ndarray, expected) -> bool:
        """A dense copy of the sparse result: every stored value in place
        and, values being positive, nothing anywhere else."""
        data = expected[2]
        return (np.array_equal(value[self.rows, self.B.indices], data)
                and value.sum() == data.sum())


class FusedSDDMMSpMM:
    """E(i,j) = B(i,j)*C(i,k)*D(k,j);  H(x,y) = E(x,z)*F(z,y)"""

    def __init__(self, B: sp.csr_matrix, Cs, Ds, Fs):
        self.sddmm = SDDMM(B, Cs, Ds)
        self.Fs = Fs

    def compute(self, k: int):
        B = self.sddmm.B
        E = sp.csr_matrix((self.sddmm.values(k), B.indices, B.indptr),
                          shape=B.shape)
        return E @ self.Fs[k % len(self.Fs)]

    matches = staticmethod(dense_matches)


class SpAdd3:
    """A(i,j) = B(i,j) + C(i,j) + D(i,j), sparse output."""

    def __init__(self, B, C, D, C_vals: Optional[List[np.ndarray]] = None):
        self.B, self.C, self.D, self.C_vals = B, C, D, C_vals

    def compute(self, k: int):
        C = self.C
        if self.C_vals is not None:
            C = sp.csr_matrix(
                (self.C_vals[k % len(self.C_vals)], C.indices, C.indptr),
                shape=C.shape,
            )
        out = (self.B + C + self.D).tocsr()
        out.sort_indices()
        return _csr_parts(out)

    matches = staticmethod(csr_matches)


class SpTTV:
    """A(i,j) = T(i,j,k) * c(k), per stored non-zero, summed per (i,j) fibre.

    ``dense_out`` selects the dense (I, J) output a DDC operand produces;
    otherwise the output is CSR over the tensor's distinct (i, j) pairs.
    """

    def __init__(self, T, cs, *, dense_out: bool):
        (i, j, kk), self.vals, self.shape = T["coords"], T["vals"], T["shape"]
        self.kk, self.cs, self.dense_out = kk, cs, dense_out
        self.key = i * self.shape[1] + j
        first = np.ones(self.key.size, dtype=bool)
        first[1:] = self.key[1:] != self.key[:-1]
        self.starts = np.flatnonzero(first)
        self.indices = j[self.starts]
        counts = np.bincount(i[self.starts], minlength=self.shape[0])
        self.indptr = np.concatenate([[0], np.cumsum(counts)])

    def compute(self, k: int):
        w = self.vals * self.cs[k % len(self.cs)][self.kk]
        if self.dense_out:
            n = self.shape[0] * self.shape[1]
            return np.bincount(self.key, weights=w, minlength=n).reshape(
                self.shape[:2]
            )
        data = np.add.reduceat(w, self.starts) if w.size else w
        return self.indptr, self.indices, data

    def matches(self, out, expected) -> bool:
        return (dense_matches if self.dense_out else csr_matches)(out, expected)


class SpMTTKRP:
    """A(i,l) = T(i,j,k) * C(j,l) * D(k,l), per stored non-zero."""

    def __init__(self, T, Cs, Ds):
        (i, self.j, self.kk), self.vals, shape = T["coords"], T["vals"], T["shape"]
        self.Cs, self.Ds = Cs, Ds
        nnz = self.vals.size
        # Row-selector: (I x nnz) ones, so S @ prod sums products per slice.
        self.S = sp.csr_matrix(
            (np.ones(nnz), (i, np.arange(nnz))), shape=(shape[0], nnz)
        )

    def compute(self, k: int):
        C = self.Cs[k % len(self.Cs)]
        D = self.Ds[k % len(self.Ds)]
        return self.S @ (self.vals[:, None] * C[self.j] * D[self.kk])

    matches = staticmethod(dense_matches)
