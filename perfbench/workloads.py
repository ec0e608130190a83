"""Seeded input generators for the four perfbench workloads.

Everything the program under test sees is made here, from ``--seed`` alone:
the benchmark hands ``repro`` SciPy matrices, COO coordinate arrays and NumPy
arrays, never the seed and never a ``repro.data`` generator, so the inputs
stay the same when the program changes.

All values are small integers stored as float64.  Every sum of products a
kernel forms is then exactly representable, so the checks in
:mod:`perfbench.verify` are ``array_equal`` and do not depend on the order in
which a schedule adds things up.

``python3 perfbench/workloads.py --list`` prints each workload, its sizes and
the recorded reason it was chosen.
"""
from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

#: Dense operands are generated in this many variants; a warm loop rotates
#: through them with value-only writes so a step that does nothing fails.
ROTATIONS = 4

#: name -> (one-line reason, full sizes, ``--quick`` sizes).  The reasons are
#: the ones BENCHMARK.json records; sizes are the only thing ``--quick``
#: changes.
WORKLOADS: Dict[str, Tuple[str, Dict[str, Any], Dict[str, Any]]] = {
    "spmv_large": (
        "CSR SpMV, 2M nnz on nodes=4: pack and the generated leaf do nearly "
        "all the work, launch overhead almost none; the one workload with "
        "the store warm-start phase",
        dict(n=200_000, nnz=2_000_000),
        dict(n=3_000, nnz=30_000),
    ),
    "small_launch": (
        "SpMV/SpMM/SDDMM on one 20k-nnz CSR operand over 64 pieces, front "
        "door then repro.serve: leaf work is tiny, so cache-hit, residency "
        "reset, launch replay and queue overheads dominate",
        dict(n=2_000, nnz=20_000, k=8),
        dict(n=400, nnz=4_000, k=8),
    ),
    "compile_matrix": (
        "every kind x format x strategy the auto-scheduler emits on "
        "cpu(4)/gpu(4) plus the five-statement program, n=200, caches "
        "cleared per case: compile-bound, negligible leaf time",
        dict(n=200, nnz=2_000, tnnz=4_000, k=8),
        dict(n=48, nnz=300, tnnz=400, k=4),
    ),
    "program_mixed_gpu": (
        "one lazy Program on gpus=4 (fused SDDMM->SpMM, SpAdd3 assembly, "
        "SpMTTKRP, SpTTV) over a skewed RMAT graph and a CSF3 tensor: "
        "non-zero splits, reductions and sparse-output writes",
        dict(scale=15, edge_factor=8, add_edge_factor=2,
             shape=(2000, 1500, 1000), tnnz=330_000, k=16),
        dict(scale=8, edge_factor=8, add_edge_factor=2,
             shape=(60, 50, 40), tnnz=2_000, k=4),
    ),
}

#: compile_matrix: (kind, sparse-operand format, strategy) the auto-scheduler
#: can emit; each runs on Machine.cpu(4) and Machine.gpu(4), and the
#: five-statement program runs once per machine: 16 * 2 + 2 = 34 cases.
COMPILE_CASES: List[Tuple[str, str, str]] = [
    ("spmv", "csr", "rows"), ("spmv", "csr", "nonzeros"),
    ("spmm", "csr", "rows"), ("spmm", "csr", "nonzeros"),
    ("spmm", "csr", "grid"),
    ("sddmm", "csr", "rows"), ("sddmm", "csr", "nonzeros"),
    ("spttv", "csf3", "rows"), ("spttv", "csf3", "nonzeros"),
    ("spttv", "ddc", "rows"), ("spttv", "ddc", "nonzeros"),
    ("spmttkrp", "csf3", "rows"), ("spmttkrp", "csf3", "nonzeros"),
    ("spmttkrp", "ddc", "rows"), ("spmttkrp", "ddc", "nonzeros"),
    ("spadd3", "csr", "rows"),
]


def sizes(name: str, quick: bool = False) -> Dict[str, Any]:
    """The size parameters of workload ``name``."""
    return dict(WORKLOADS[name][2 if quick else 1])


# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
def _ints(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(1, 5, size=shape).astype(np.float64)


def _rotations(rng: np.random.Generator, shape) -> List[np.ndarray]:
    return [_ints(rng, shape) for _ in range(ROTATIONS)]


def _csr(rng, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """Canonical CSR over the distinct coordinates, integer values."""
    key = np.unique(rows.astype(np.int64) * shape[1] + cols)
    m = sp.csr_matrix(
        (_ints(rng, key.size), (key // shape[1], key % shape[1])), shape=shape
    )
    m.sort_indices()
    return m


def uniform_csr(rng, n: int, nnz: int) -> sp.csr_matrix:
    """``nnz`` uniform draws over an n x n matrix (duplicates dropped)."""
    return _csr(rng, rng.integers(0, n, nnz), rng.integers(0, n, nnz), (n, n))


def rmat_csr(rng, scale: int, edge_factor: int) -> sp.csr_matrix:
    """Graph500 recursive-matrix graph: heavy row-degree skew."""
    a, b, c = 0.57, 0.19, 0.19
    n = 1 << scale
    nedges = n * edge_factor
    rows = np.zeros(nedges, dtype=np.int64)
    cols = np.zeros(nedges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(nedges)
        bit = 1 << (scale - level - 1)
        cols += bit * ((r >= a) & (r < a + b) | (r >= a + b + c))
        rows += bit * (r >= a + b)
    return _csr(rng, rows, cols, (n, n))


def _zipf(rng, n: int, count: int, alpha: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=float) ** (-alpha)
    idx = rng.choice(n, size=count, p=w / w.sum())
    return rng.permutation(n)[idx].astype(np.int64)


def tensor3(rng, shape, nnz: int, *, skewed: bool) -> Dict[str, Any]:
    """A 3-tensor as sorted, distinct COO coordinates with integer values.

    ``skewed`` draws every mode from a Zipf-like law (the FROSTT nell-2
    shape); otherwise coordinates are uniform.
    """
    if skewed:
        modes = [_zipf(rng, s, nnz, a) for s, a in zip(shape, (1.1, 0.99, 0.88))]
    else:
        modes = [rng.integers(0, s, nnz).astype(np.int64) for s in shape]
    key = np.unique((modes[0] * shape[1] + modes[1]) * shape[2] + modes[2])
    coords = [key // (shape[1] * shape[2]), (key // shape[2]) % shape[1],
              key % shape[2]]
    return {"coords": coords, "vals": _ints(rng, key.size),
            "shape": tuple(int(s) for s in shape)}


# --------------------------------------------------------------------------- #
# the four workloads
# --------------------------------------------------------------------------- #
def _spmv_large(rng, n, nnz):
    return {"B": uniform_csr(rng, n, nnz), "x": _rotations(rng, n)}


def _small_launch(rng, n, nnz, k):
    return {
        "B": uniform_csr(rng, n, nnz),
        "x": _rotations(rng, n),
        "C": _rotations(rng, (n, k)),
        "D": _rotations(rng, (k, n)),
    }


def _compile_matrix(rng, n, nnz, tnnz, k):
    tshape = (n, max(3, n // 2), max(3, n // 3))
    return {
        "B": uniform_csr(rng, n, nnz),
        "B2": uniform_csr(rng, n, nnz),
        "B3": uniform_csr(rng, n, nnz),
        "T": tensor3(rng, tshape, tnnz, skewed=False),
        "x": _rotations(rng, n),
        "C": _rotations(rng, (n, k)),
        "D": _rotations(rng, (k, n)),
        "tc": _rotations(rng, tshape[2]),
        "TC": _rotations(rng, (tshape[1], k)),
        "TD": _rotations(rng, (tshape[2], k)),
    }


def _program_mixed_gpu(rng, scale, edge_factor, add_edge_factor, shape, tnnz, k):
    n = 1 << scale
    G2 = rmat_csr(rng, scale, add_edge_factor)
    return {
        "B": rmat_csr(rng, scale, edge_factor),
        "B2": G2,
        "B3": rmat_csr(rng, scale, add_edge_factor),
        # B2's values rotate too, so the assembled SpAdd3 output changes
        # from step to step like every other output.
        "B2_vals": _rotations(rng, G2.nnz),
        "T": tensor3(rng, shape, tnnz, skewed=True),
        "C": _rotations(rng, (n, k)),
        "D": _rotations(rng, (k, n)),
        "F": _rotations(rng, (n, k)),
        "tc": _rotations(rng, shape[2]),
        "TC": _rotations(rng, (shape[1], k)),
        "TD": _rotations(rng, (shape[2], k)),
    }


_GENERATORS = {
    "spmv_large": _spmv_large,
    "small_launch": _small_launch,
    "compile_matrix": _compile_matrix,
    "program_mixed_gpu": _program_mixed_gpu,
}


def generate(name: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """The inputs of workload ``name`` for ``seed`` (same seed, same bytes)."""
    # The workload name is mixed into the stream so two workloads never share
    # a matrix, whatever the seed.
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    rng = np.random.default_rng([int(seed), salt])
    return _GENERATORS[name](rng, **sizes(name, quick))


# --------------------------------------------------------------------------- #
# digests and sizes
# --------------------------------------------------------------------------- #
def _arrays(obj) -> List[np.ndarray]:
    if isinstance(obj, np.ndarray):
        return [obj]
    if sp.issparse(obj):
        return [obj.indptr, obj.indices, obj.data]
    if isinstance(obj, dict):
        return [a for key in sorted(obj) for a in _arrays(obj[key])]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return [np.asarray(obj)]


def digest(inputs: Dict[str, Any]) -> str:
    """sha256 over every input array, in key order (dtype and shape included)."""
    h = hashlib.sha256()
    for a in _arrays(inputs):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def array_bytes(inputs: Dict[str, Any]) -> Dict[str, int]:
    """Bytes of each input entry (computed from array sizes, not measured)."""
    return {key: int(sum(a.nbytes for a in _arrays(inputs[key])))
            for key in sorted(inputs)}


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--list", action="store_true",
                    help="print workloads, sizes and reasons")
    ap.parse_args(argv)
    for name, (why, full, quick) in WORKLOADS.items():
        print(f"{name}\n  why:   {why}\n  sizes: {full}\n  quick: {quick}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
