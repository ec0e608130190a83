"""Static cost model: price a statement's communication without executing.

The companion to :mod:`repro.analysis.commplan`: where the planner
derives *what moves*, this module derives *what it costs*.  Leaf compute
is predicted by the per-(kernel × strategy)
:class:`~repro.legion.machine.Work` models of the kernel table
(:mod:`repro.core.kernelspec`), which read only the packed operands'
**pattern** (rect-``pos`` arrays, level sizes — never the values) and
mirror exactly what the real leaf kernels in :mod:`repro.kernels` report;
communication and overheads are priced by running the planner's mirror
and folding its steps through the very same
:meth:`~repro.legion.metrics.ExecutionMetrics.simulated_seconds` the
simulator uses.

For the specialized kernels (SpMV/SpMM/SDDMM/SpTTV/SpMTTKRP, the fused
SDDMM→SpMM and SpAdd assembly) the Work formulas are exact — a predicted
cost equals the simulated seconds of a real isolated trial, which is what
lets ``Session.autotune`` pick a strategy as the model's argmin without
executing any candidate.  The generic COO engine's work depends on
intermediate result sizes, so its estimate is approximate and
:attr:`CostEstimate.exact` is False.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import OOMError
from ..legion.metrics import ExecutionMetrics
from ..legion.network import Network
from ..legion.runtime import Runtime
from .commplan import MetricsSignature, _mirror, _signature

__all__ = ["CostEstimate", "predict_cost"]


@dataclass
class CostEstimate:
    """The statically predicted cost of one compiled statement — also one
    candidate of a :meth:`repro.Session.autotune` search."""

    strategy: str
    seconds: float  #: predicted simulated seconds of one isolated trial
    comm_bytes: float
    signature: Optional[MetricsSignature] = None
    #: True when the Work model mirrors the leaf exactly (specialized
    #: kernels on packed operands); False for the generic engine's estimate.
    exact: bool = True
    oom: bool = False

    @property
    def ok(self) -> bool:
        return not self.oom and np.isfinite(self.seconds)


def predict_cost(
    ck,
    *,
    network: Optional[Network] = None,
    runtime: Optional[Runtime] = None,
) -> CostEstimate:
    """Statically predict one isolated trial's simulated seconds.

    Runs the communication planner's mirror with the kernel's Work model
    (its kind's entry in :mod:`repro.core.kernelspec`: a launch's name →
    every piece's :class:`~repro.legion.machine.Work`, derived from the
    operands' packed pattern) and prices the resulting steps through the
    same :meth:`~repro.legion.metrics.ExecutionMetrics.simulated_seconds`
    the simulator itself folds — compute, receiver-side communication
    serialization, task and sync overheads.  A plan that exceeds a
    processor's memory comes back with ``oom=True`` and infinite seconds
    instead of raising, so autotune never picks it.
    """
    from ..core.kernelspec import SPECS

    spec = SPECS[ck.kind]
    work = spec.work_model(ck)
    try:
        steps, rt = _mirror([ck], ck.machine, runtime=runtime, work=work,
                            network=network)
    except OOMError:
        return CostEstimate(
            strategy=ck.strategy, seconds=float("inf"), comm_bytes=0.0,
            exact=spec.exact, oom=True,
        )
    metrics = ExecutionMetrics(steps=list(steps))
    return CostEstimate(
        strategy=ck.strategy,
        seconds=metrics.simulated_seconds(rt.network),
        comm_bytes=metrics.total_comm_bytes(),
        signature=_signature(steps, rt),
        exact=spec.exact,
    )
