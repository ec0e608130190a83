"""Matrix Market / FROSTT ``.tns`` I/O and packed-artifact persistence.

SuiteSparse ships Matrix Market files and FROSTT ships ``.tns`` coordinate
files; these readers/writers let the suite exchange data with the real
datasets when they are available (and are exercised by the test suite on
the synthetic stand-ins).

Text formats exchange *coordinates* — loading one re-packs from scratch
and re-derives every partition.  :func:`save_packed` / :func:`load_packed`
are the warm path: they persist the packed level structure together with
the compile-once / run-many state (kernel cache, mapping traces; see
:mod:`repro.core.store`), so a fresh process skips packing
*and* reaches cached steady-state on its first execute.
"""
from __future__ import annotations

import gzip
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..core.store import PackedArtifact, load_packed, save_packed
from ..core.store_index import ArtifactStore, gc_artifacts
from ..taco.formats import Format
from ..taco.tensor import Tensor

__all__ = [
    "write_matrix_market", "read_matrix_market", "write_tns", "read_tns",
    "save_packed", "load_packed", "PackedArtifact",
    "ArtifactStore", "gc_artifacts",
]


def _open(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def write_matrix_market(path: Union[str, Path], mat: sp.spmatrix) -> None:
    coo = mat.tocoo()
    with _open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{r + 1} {c + 1} {v:.17g}\n")


def read_matrix_market(path: Union[str, Path]) -> sp.csr_matrix:
    with _open(path, "r") as f:
        header = f.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: not a MatrixMarket file")
        symmetric = "symmetric" in header
        pattern = "pattern" in header
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        nrows, ncols, nnz = (int(x) for x in line.split())
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for i in range(nnz):
            parts = f.readline().split()
            rows[i] = int(parts[0]) - 1
            cols[i] = int(parts[1]) - 1
            vals[i] = 1.0 if pattern else float(parts[2])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    if symmetric:
        # Mirror the stored (lower) triangle, excluding the diagonal.
        mask = rows != cols
        m = sp.coo_matrix(
            (
                np.concatenate([vals, vals[mask]]),
                (np.concatenate([rows, cols[mask]]), np.concatenate([cols, rows[mask]])),
            ),
            shape=(nrows, ncols),
        )
    return m.tocsr()


def write_tns(path: Union[str, Path], tensor: Tensor) -> None:
    """FROSTT format: 1-based coordinates, one non-zero per line."""
    coords, vals = tensor.to_coo()
    with _open(path, "w") as f:
        for t in range(vals.size):
            cs = " ".join(str(int(c[t]) + 1) for c in coords)
            f.write(f"{cs} {vals[t]:.17g}\n")


def read_tns(
    path: Union[str, Path],
    shape: Optional[Tuple[int, ...]] = None,
    format: Optional[Format] = None,
    name: str = "T",
) -> Tensor:
    rows: List[List[int]] = []
    vals: List[float] = []
    order = None
    with _open(path, "r") as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if order is None:
                order = len(parts) - 1
                rows = [[] for _ in range(order)]
            for d in range(order):
                rows[d].append(int(parts[d]) - 1)
            vals.append(float(parts[-1]))
    if order is None:
        raise ValueError(f"{path}: empty tensor file")
    coords = [np.asarray(r, dtype=np.int64) for r in rows]
    if shape is None:
        shape = tuple(int(c.max()) + 1 if c.size else 1 for c in coords)
    return Tensor.from_coo(name, coords, np.asarray(vals), shape, format)
