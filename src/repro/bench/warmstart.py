"""Cold-start vs warm-start: cross-process compile-once / run-many.

PR 1's amortization (kernel cache, partition memo, mapping-trace replay)
reaches steady state only *within* a process; the artifact store
(:mod:`repro.core.store`) extends it across processes.  This scenario
checks that boundary with three actors, all running the iterative-SpMV
loop of :mod:`repro.bench.iterative`:

* the **parent** packs the tensors, runs a few iterations to populate
  every cache layer, saves the artifact, then keeps iterating in-process —
  its post-save iterations are the bit-identical reference for the warm
  child;
* a **cold child** (fresh Python process) builds the same tensors from the
  seed and iterates with caching on — its first iteration pays packing,
  compilation, partitioning and trace recording (the per-process cold
  start);
* a **warm child** (fresh Python process) loads the artifact and iterates
  — its *first* execution must hit the kernel cache (no compile), miss no
  partitions, replay the stored mapping trace (no re-record), and produce
  simulated metrics bit-identical to the parent's in-process cached path.

``tests/integration/test_warmstart.py`` and
``tests/bench/test_mmap_drivers.py`` assert that contract; how much
wall-clock the store removes from a fresh process is ``perfbench``'s
``warmstart_s`` / ``core.store.*`` rows
(``python3 perfbench/run.py --workload spmv_large``).

Children are real subprocesses (``python -m repro.bench.warmstart``);
results travel as JSON, which round-trips floats exactly, so equality
checks on simulated seconds are genuinely bit-level.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..api.session import Session
from ..core.store import save_packed
from .iterative import build_spmv_workload, power_iterate, run_iterative_spmv
from .models import default_config

__all__ = [
    "WarmstartParams",
    "WarmstartResult",
    "run_warmstart",
]


@dataclass(frozen=True)
class WarmstartParams:
    """Shape of the scenario (shared verbatim with the child processes)."""

    n: int = 20_000
    density: float = 1e-4
    pieces: int = 16
    seed: int = 43
    warm_iterations: int = 3  # parent iterations before saving
    iterations: int = 20  # measured iterations (parent-after-save & children)
    #: Serve the artifact's region sidecars as read-only memory maps in the
    #: warm child (the larger-than-RAM warm start).  The iterate ``c`` is
    #: promoted up front (the loop writes it each step) and the output
    #: ``a`` as the kernel's write target — both before cache re-seeding,
    #: so the warm-start contract must hold identically to the eager load.
    mmap: bool = False


@dataclass
class WarmstartResult:
    """Everything the warm-start contract tests assert on.  ``cold`` and
    ``warm`` are the children's :class:`~repro.bench.iterative.IterativeResult`
    fields as they crossed the process boundary."""

    params: WarmstartParams
    #: The artifact directory — empty when the scenario ran in a temporary
    #: directory, which is removed before :func:`run_warmstart` returns.
    store_dir: str
    parent_sims: List[float]
    parent_checksum: float
    cold: Dict = field(default_factory=dict)
    warm: Dict = field(default_factory=dict)

    # -- the warm-start contract (acceptance criteria) ----------------------
    @property
    def warm_first_hit_kernel_cache(self) -> bool:
        return self.warm["first_kernel_hits"] >= 1

    @property
    def warm_first_partition_misses(self) -> int:
        return self.warm["first_partition_misses"]

    @property
    def warm_first_trace_records(self) -> int:
        return self.warm["trace_records_after_first"]

    @property
    def warm_first_trace_hits(self) -> int:
        return self.warm["trace_hits_after_first"]

    @property
    def metrics_bit_identical(self) -> bool:
        """Warm child's simulated seconds == parent's in-process cached
        path, float-for-float (JSON round-trips doubles exactly)."""
        return self.warm["sim_seconds"] == self.parent_sims

    @property
    def checksum_bit_identical(self) -> bool:
        return self.warm["checksum"] == self.parent_checksum


def _spawn_child(role: str, p: WarmstartParams, store_dir: str,
                 out_path: Path) -> Dict:
    src_dir = Path(__file__).resolve().parents[2]  # .../src
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "repro.bench.warmstart",
        "--role", role, "--store", store_dir,
        "--params", json.dumps(asdict(p)), "--out", str(out_path),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"warmstart {role} child failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(out_path.read_text())


def run_warmstart(
    store_dir: Optional[str] = None,
    params: Optional[WarmstartParams] = None,
    **overrides,
) -> WarmstartResult:
    """Run the full three-actor scenario; see the module docstring.

    Keyword overrides (``n=..., iterations=...``) adjust
    :class:`WarmstartParams`.  The artifact is written under ``store_dir``;
    by default a temporary directory is used and removed on return (the
    result's ``store_dir`` is then empty).
    """
    p = params or WarmstartParams(**overrides)
    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="spdistal-warmstart-")
        store_dir = tmp.name
    try:
        art_dir = str(Path(store_dir) / "artifact")

        # Parent: pack, warm every cache layer, save, then keep iterating —
        # the post-save iterations are the in-process cached reference the
        # warm child must match bit-for-bit.
        cfg = default_config()
        network = cfg.legion_network()
        B, c, a = build_spmv_workload(p.n, p.density, p.seed)
        with Session(machine=cfg.cpu_machine(p.pieces), network=network) as sess:
            def iterate(iterations):
                return power_iterate(
                    B, c, a, p.pieces, iterations, network,
                    lambda s: sess.execute(s).metrics, sess.runtime,
                )

            iterate(p.warm_iterations)
            save_packed(art_dir, B, runtime=sess.runtime)
            ref = iterate(p.iterations)

        cold = _spawn_child("cold", p, art_dir, Path(store_dir) / "cold.json")
        warm = _spawn_child("warm", p, art_dir, Path(store_dir) / "warm.json")
        return WarmstartResult(
            params=p,
            store_dir=art_dir if tmp is None else "",
            parent_sims=ref.sim_seconds,
            parent_checksum=ref.checksum,
            cold=cold,
            warm=warm,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def main(argv=None) -> int:
    """Child-process entry point (``python -m repro.bench.warmstart``)."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("cold", "warm"), required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--params", required=True, help="WarmstartParams as JSON")
    ap.add_argument("--out", required=True, help="where to write the result JSON")
    args = ap.parse_args(argv)
    p = WarmstartParams(**json.loads(args.params))
    if args.role == "cold":
        res = run_iterative_spmv(p.n, p.density, p.pieces, p.iterations,
                                 seed=p.seed)
    else:
        res = run_iterative_spmv(pieces=p.pieces, iterations=p.iterations,
                                 source=args.store, mmap=p.mmap)
    Path(args.out).write_text(json.dumps(asdict(res)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
