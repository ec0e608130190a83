"""Compare two sets of perfbench results.

    python3 perfbench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]
    python3 perfbench/compare.py A.json B.json

Each file is a ``<workload>.json`` written by ``run.py --out`` (a directory
stands for every ``*.json`` in it, except traces).  Files before ``--`` are
the base set A, files after it the set B; with exactly two files and no
``--`` they are one run each.

One row per (workload, metric): both medians, both quartile pairs, the ratio
B / A *with its base*, the bound, and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is worse by more than the bound;
* ``unresolved``  the run-to-run spread of either side (distance between its
                  quartiles over its median) is wider than the bound, so the
                  comparison cannot tell — unless every run of B reads better
                  than every run of A, which is ``ok``.

Deterministic metrics (simulated clock, counters) are compared for equality:
any difference is ``worse``.  Metrics with a bound of their own (the
end-to-end ones, ``warmstart_s``, ``serve_p50_s``, ``artifact_bytes``) and the
deterministic ones are *gated*: exit status 1 if any of them is ``worse``.
Every other per-layer row is judged against a 10 % yardstick for orientation
only; its verdict is shown in parentheses and never changes the exit status.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]
from perfbench import metrics  # noqa: E402

_BETTER = {n: b for n, _u, b, _bound in metrics.END_TO_END}
_BETTER.update({n: b for n, _u, b in metrics.PER_LAYER})
_BOUND = {n: bound for n, _u, _b, bound in metrics.END_TO_END}
_BOUND.update(metrics.LAYER_BOUNDS)
#: per-layer timings have no bound of their own; rows are judged against this
DEFAULT_BOUND = 0.10


def _files(args: List[str]) -> List[Path]:
    out: List[Path] = []
    for a in args:
        p = Path(a)
        if p.is_dir():
            out += sorted(f for f in p.glob("*.json")
                          if not f.name.endswith(".trace.json"))
        else:
            out.append(p)
    return out


def _scalar(v: Any) -> Optional[float]:
    if isinstance(v, dict):
        v = v.get("median")
    return float(v) if isinstance(v, (int, float)) else None


def load(paths: List[Path]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run."""
    table: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        run = json.loads(path.read_text())
        values: Dict[str, Any] = {}
        values.update(run.get("end_to_end", {}))
        values.update(run.get("end_to_end", {}).get("sim", {}))
        values.update(run.get("per_layer", {}))
        values["fail_share"] = run.get("fail_share")
        for name in _BETTER:
            x = _scalar(values.get(name))
            if x is not None:
                table.setdefault((run["workload"], name), []).append(x)
    return table


def _quartiles(xs: List[float]) -> Tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def judge(name: str, a: List[float], b: List[float]) -> Dict[str, Any]:
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
    row = {"a": ma, "a_q": (a1, a3), "b": mb, "b_q": (b1, b3),
           "ratio": mb / ma if ma else float("nan")}
    row["gated"] = name in metrics.EXACT or name in _BOUND
    if name in metrics.EXACT:
        row["bound"] = "exact"
        # every value seen on one side must be seen on the other (sets, so the
        # two sides may hold different numbers of runs of the same seeds)
        row["verdict"] = "ok" if set(a) == set(b) else "worse"
        return row
    bound = _BOUND.get(name, DEFAULT_BOUND)
    row["bound"] = bound
    lower = _BETTER[name] == "lower"
    worse_by = (mb - ma) / abs(ma) if ma else 0.0
    if not lower:
        worse_by = -worse_by
    spread = max((a3 - a1) / abs(ma) if ma else 0.0,
                 (b3 - b1) / abs(mb) if mb else 0.0)
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "worse" if worse_by > bound else "ok"
    row["spread"] = spread
    return row


def compare(a_paths: List[Path], b_paths: List[Path]) -> List[Dict[str, Any]]:
    a, b = load(a_paths), load(b_paths)
    rows = []
    for key in sorted(set(a) & set(b)):
        row = judge(key[1], a[key], b[key])
        row["workload"], row["metric"] = key
        rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    head = (f"{'workload':<18}{'metric':<44}{'A median':>13}{'A q1..q3':>25}"
            f"{'B median':>13}{'B q1..q3':>25}{'B/A':>9}  {'bound':>6}  verdict")
    lines = [head]
    for r in rows:
        bound = r["bound"] if isinstance(r["bound"], str) else f"{r['bound']:.0%}"
        lines.append(
            f"{r['workload']:<18}{r['metric']:<44}{r['a']:>13.6g}"
            f"{'%.5g..%.5g' % r['a_q']:>25}{r['b']:>13.6g}"
            f"{'%.5g..%.5g' % r['b_q']:>25}{r['ratio']:>8.3f}x"
            f"  {bound:>6}  "
            + (r["verdict"] if r["gated"] else f"({r['verdict']})")
        )
    lines.append("(B/A: ratio of medians, base A)")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" in argv:
        cut = argv.index("--")
        a_args, b_args = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        a_args, b_args = argv[:1], argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(_files(a_args), _files(b_args))
    print(format_rows(rows))
    counts = {v: sum(r["gated"] and r["verdict"] == v for r in rows)
              for v in ("ok", "worse", "unresolved")}
    print(f"gated rows: {counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
