"""Reduce an ``--out`` directory to the host-independent statistics.

    python3 perfbench/run.py --seed 1 --traced --out OUT
    python3 perfbench/baseline.py OUT > perfbench/results/baseline.json

Only what does not depend on the host's speed is kept: ratios and shares,
counters, computed sizes, and every simulated-clock value.  Raw host seconds,
megabytes of resident memory and requests per second stay in ``OUT``, which is
machine-local and belongs outside version control.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]
from perfbench import metrics  # noqa: E402

HOST_UNITS = {"s", "ns", "MB", "1/s"}
SIM_SECONDS = {"sim_seconds", "legion.metrics.sim_compute_s",
               "legion.metrics.sim_comm_s"}


def reduce_run(run: dict) -> dict:
    values = dict(run.get("end_to_end", {}))
    values.update(run.get("per_layer", {}))
    kept = {}
    for name, unit in metrics.UNITS.items():
        v = values.get(name)
        if v is None or (unit in HOST_UNITS and name not in SIM_SECONDS):
            continue
        kept[name] = v["median"] if isinstance(v, dict) else v
    return {
        "seed": run["seed"], "seconds": run["seconds"], "sizes": run["sizes"],
        "input_digest": run["input_digest"],
        "input_bytes_computed": run["input_bytes_computed"],
        "fail_share": run["fail_share"],
        "metrics": kept,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = {}
    for path in sorted(Path(argv[0]).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        run = json.loads(path.read_text())
        out[run["workload"]] = reduce_run(run)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
