"""Static cost model: price a communication plan without executing.

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
lets ``Session.autotune(prune=True)`` rank candidate strategies
statically and trial-execute only the predicted best.  The generic COO engine's
work depends on intermediate result sizes, so its estimate is
approximate and :attr:`CostEstimate.exact` is False.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import OOMError
from ..legion.metrics import ExecutionMetrics
from ..legion.network import Network
from ..legion.runtime import Runtime
from .commplan import (
    CommPlan, MetricsSignature, WorkModel, _mirror_kernel, _plan_of,
    _seed_tdn_homes,
)

__all__ = ["CostEstimate", "kernel_work_model", "predict_cost"]


@dataclass
class CostEstimate:
    """The statically predicted cost of one compiled statement."""

    strategy: str
    seconds: float  #: predicted simulated seconds of one isolated trial
    comm_bytes: float
    signature: Optional[MetricsSignature] = None
    plan: Optional[CommPlan] = None
    #: True when the Work model mirrors the leaf exactly (specialized
    #: kernels on packed operands); False for the generic engine's estimate.
    exact: bool = True
    oom: bool = False

    @property
    def ok(self) -> bool:
        return not self.oom and np.isfinite(self.seconds)


def kernel_work_model(ck) -> Tuple[WorkModel, bool]:
    """A (work model, exact?) pair for a compiled kernel, from its entry
    in the kernel table (:mod:`repro.core.kernelspec`).

    The model maps ``(phase, piece)`` to the :class:`Work` the leaf task
    for that piece will return, derived purely from the operands' packed
    pattern.  ``exact`` is True when the formulas mirror the leaf
    kernel's own accounting.
    """
    from ..core.kernelspec import SPECS

    spec = SPECS[ck.kind]
    return spec.work_model(ck), spec.exact


def predict_cost(
    ck,
    *,
    network: Optional[Network] = None,
    runtime: Optional[Runtime] = None,
) -> CostEstimate:
    """Statically predict one isolated trial's simulated seconds.

    Runs the communication planner's mirror with the kernel's Work model
    and prices the resulting steps through the same
    :meth:`~repro.legion.metrics.ExecutionMetrics.simulated_seconds`
    the simulator itself folds — compute, receiver-side communication
    serialization, task and sync overheads.  A plan that exceeds a
    processor's memory comes back with ``oom=True`` and infinite seconds
    instead of raising, so autotune ranking can sink it.
    """
    work, exact = kernel_work_model(ck)
    rt = Runtime(ck.machine, network)
    _seed_tdn_homes(ck, rt, runtime)
    try:
        steps = _mirror_kernel(ck, rt, work)
    except OOMError:
        return CostEstimate(
            strategy=ck.strategy, seconds=float("inf"), comm_bytes=0.0,
            exact=exact, oom=True,
        )
    plan = _plan_of(ck, steps, rt)
    metrics = ExecutionMetrics(steps=list(steps))
    return CostEstimate(
        strategy=ck.strategy,
        seconds=metrics.simulated_seconds(rt.network),
        comm_bytes=metrics.total_comm_bytes(),
        signature=plan.signature,
        plan=plan,
        exact=exact,
    )
