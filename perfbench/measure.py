"""Timed loops and the statistics every perfbench timing is reported with.

A timing is the median of per-block medians: the loop is split into at least
five blocks, ``gc.collect()`` runs before each block (never inside one), and
the block medians are combined by their median, so one slow stretch of the
host moves one block and not the result.  Alongside the median the summary
gives the sample count, the quartiles over all samples, and the highest
percentile that still has at least ten samples beyond it.
"""
from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MIN_BLOCKS = 5
#: Once the first blocks show how long a sample takes, later blocks are sized
#: so that the whole budget is spent in about this many blocks.
TARGET_BLOCKS = 12
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

Sample = Tuple[float, ...]


def run_blocks(
    sample: Callable[[], Optional[Sample]],
    *,
    budget_s: float,
    min_samples: int,
) -> List[List[Sample]]:
    """Call ``sample`` in blocks until ``budget_s`` host seconds are spent and
    at least ``min_samples`` samples in ``MIN_BLOCKS`` blocks exist.

    ``sample`` returns a tuple of seconds (one per quantity it times), or
    ``None`` when the operation failed; a failed operation yields no timing.
    """
    block_n = max(1, -(-min_samples // MIN_BLOCKS))
    start = time.perf_counter()
    blocks: List[List[Sample]] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(blocks) >= MIN_BLOCKS and elapsed >= budget_s:
            return blocks
        if len(blocks) == MIN_BLOCKS:
            done = sum(len(b) for b in blocks) or 1
            per_sample = elapsed / done
            left = max(budget_s - elapsed, 0.0)
            block_n = max(
                block_n, int(left / (TARGET_BLOCKS - MIN_BLOCKS) / per_sample)
            )
        gc.collect()
        block = []
        for _ in range(block_n):
            s = sample()
            if s is not None:
                block.append(s)
        blocks.append(block)


def column(blocks: Sequence[Sequence[Sample]], k: int) -> List[List[float]]:
    return [[s[k] for s in b] for b in blocks]


def summarize(blocks: Sequence[Sequence[float]]) -> Dict[str, float]:
    """median (of block medians), n, q1, q3, and the tail percentile."""
    blocks = [b for b in blocks if b]
    flat = sorted(x for b in blocks for x in b)
    n = len(flat)
    if n == 0:
        return {"median": float("nan"), "n": 0}
    block_medians = [statistics.median(b) for b in blocks]
    out = {
        "median": statistics.median(block_medians),
        "n": n,
        "block_medians": block_medians,
    }
    if n >= 2:
        q = statistics.quantiles(flat, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    for p in _TAILS:
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            out["tail_percentile"] = p
            out["tail"] = flat[n - 1 - beyond]
            break
    return out
