"""NumPy-style ``einsum`` over the SpDISTAL pipeline.

``repro.einsum("ij,j->i", B, c)`` builds the tensor-index-notation
statement the subscripts describe, synthesizes the canonical distributed
schedule for the session's machine (:mod:`repro.api.autoschedule`),
compiles through the same kernel cache / partition memo / mapping-trace
layers as every other statement, and executes on the session runtime.
Operands may be packed :class:`~repro.taco.tensor.Tensor` objects, SciPy
sparse matrices, or NumPy arrays (the latter two are packed on the fly).

Supported subscripts are the product-and-reduce fragment the paper's
kernels cover: distinct letters per operand, ``,`` between operands, an
optional ``->`` output (defaulting to NumPy's convention — letters that
appear exactly once, alphabetically).  Additive specs join operands with
``+`` instead of ``,`` — ``"ij+ij->ij"`` is elementwise addition; all
terms (and the output) must carry identical subscripts, and a sparse
``out=`` executes as the paper's two-phase SpAdd assembly.  Diagonals
(repeated letters within one operand) and ellipses are outside tensor
index notation and raise ``ValueError``.
"""
from __future__ import annotations

import threading
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..taco.expr import Access, Assignment
from ..taco.index_vars import IndexVar
from ..taco.schedule import Schedule
from ..taco.tensor import Tensor

__all__ = ["einsum"]

_implicit_session = None
#: Guards the check-then-set on ``_implicit_session``: two threads racing
#: the first sessionless ``einsum`` must agree on one implicit session
#: (two would split the runtime's mapping traces and the packing memo).
_SESSION_LOCK = threading.Lock()


def _default_session():
    """The lazily created implicit session (a 1-node CPU machine), used
    when ``einsum`` is called without ``session=``."""
    global _implicit_session
    if _implicit_session is None:
        with _SESSION_LOCK:
            if _implicit_session is None:
                from .session import Session

                _implicit_session = Session()
    return _implicit_session


def _parse_spec(spec: str, n_operands: int) -> Tuple[List[str], str, bool]:
    spec = spec.replace(" ", "")
    if "..." in spec:
        raise ValueError("einsum ellipses are not supported")
    if "->" in spec:
        lhs, _, out = spec.partition("->")
    else:
        lhs, out = spec, None
    additive = "+" in lhs
    if additive:
        if "," in lhs:
            raise ValueError(
                "einsum additive specs join every operand with '+'; "
                "mixing ',' and '+' is not supported"
            )
        inputs = lhs.split("+")
    else:
        inputs = lhs.split(",")
    if len(inputs) != n_operands:
        raise ValueError(
            f"einsum spec {spec!r} names {len(inputs)} operands, "
            f"got {n_operands}"
        )
    seen: Dict[str, int] = {}
    for sub in inputs:
        if not sub.isalpha():
            raise ValueError(f"invalid einsum subscripts {sub!r}")
        if len(set(sub)) != len(sub):
            raise ValueError(
                f"repeated index in operand subscripts {sub!r} "
                "(diagonals are not supported)"
            )
        for ch in sub:
            seen[ch] = seen.get(ch, 0) + 1
    if additive:
        # Addition aligns mode-for-mode: every term names the same
        # subscripts and the output is exactly those subscripts.
        if any(sub != inputs[0] for sub in inputs[1:]):
            raise ValueError(
                "einsum additive terms must carry identical subscripts "
                f"(got {'+'.join(inputs)!r})"
            )
        if out is None:
            out = inputs[0]
        elif out != inputs[0]:
            raise ValueError(
                f"einsum additive output must be {inputs[0]!r}, "
                f"got {out!r}"
            )
        return inputs, out, True
    if out is None:
        out = "".join(sorted(ch for ch, n in seen.items() if n == 1))
    else:
        if out and not out.isalpha():
            raise ValueError(f"invalid einsum output subscripts {out!r}")
        if len(set(out)) != len(out):
            raise ValueError("repeated index in einsum output subscripts")
        missing = [ch for ch in out if ch not in seen]
        if missing:
            raise ValueError(
                f"output subscripts {''.join(missing)!r} never appear "
                "in an operand"
            )
    if not out:
        raise ValueError(
            "einsum full reductions (empty output) are not supported; "
            "keep at least one output index"
        )
    return inputs, out, False


def build_assignment(
    parsed: Tuple[List[str], str, bool],
    tensors: Sequence[Tensor],
    make_out: Callable[[Tuple[int, ...]], Tensor],
    error: Type[Exception] = ValueError,
) -> Assignment:
    """The tensor-index-notation statement a parsed spec (the result of
    :func:`_parse_spec`) describes over packed ``tensors`` — the one
    spec → :class:`Assignment` builder (``einsum`` and the serving layer
    both go through it).

    ``make_out(out_shape)`` supplies the output tensor once the subscripts
    fix its shape.  An operand whose order or extents contradict the
    subscripts raises ``error``.
    """
    inputs, out_sub, additive = parsed
    ivars: Dict[str, IndexVar] = {}
    sizes: Dict[str, int] = {}
    for sub, t in zip(inputs, tensors):
        if len(sub) != t.order:
            raise error(
                f"operand {t.name} has order {t.order} but subscripts "
                f"{sub!r} name {len(sub)} indices"
            )
        for ch, dim in zip(sub, t.shape):
            if ch in sizes and sizes[ch] != dim:
                raise error(
                    f"index {ch!r} has inconsistent extents "
                    f"{sizes[ch]} and {dim}"
                )
            sizes[ch] = dim
            ivars.setdefault(ch, IndexVar(ch))
    accesses = [
        Access(t, tuple(ivars[ch] for ch in sub))
        for sub, t in zip(inputs, tensors)
    ]
    rhs = reduce(
        (lambda a, b: a + b) if additive else (lambda a, b: a * b), accesses
    )
    out = make_out(tuple(sizes[ch] for ch in out_sub))
    return Assignment(Access(out, tuple(ivars[ch] for ch in out_sub)), rhs)


def einsum(
    spec: str,
    *operands,
    session=None,
    out: Optional[Tensor] = None,
    schedule: Optional[Schedule] = None,
    autotune: bool = False,
    trials: int = 2,
    name: str = "out",
) -> Tensor:
    """Evaluate ``spec`` over ``operands`` on the SpDISTAL pipeline.

    Returns the output tensor (pass ``out=`` to write into an existing
    one, e.g. a sparse-formatted output); the execution's metrics are
    available as ``session.last_result``.  ``schedule=`` overrides the
    auto-synthesized mapping with a hand-built
    :class:`~repro.taco.schedule.Schedule`.

    ``autotune=True`` searches the schedule-family candidates through
    :meth:`~repro.api.session.Session.autotune` (``trials`` timed trials
    per candidate) before executing — the first call pays the search, and
    the recorded decision makes every later ``einsum`` of the same
    statement family (this process or a warm-started one) synthesize the
    winning strategy directly.
    """
    if not operands:
        raise ValueError("einsum needs at least one operand")
    if autotune and schedule is not None:
        raise ValueError("pass either autotune=True or schedule=, not both")
    s = session if session is not None else _default_session()
    parsed = inputs, out_sub, additive = _parse_spec(spec, len(operands))

    # Content-keyed packing: equal raw operands come back as the *same*
    # packed tensor objects, so the identity-keyed kernel cache hits on a
    # repeated call instead of compiling everything again.
    tensors: List[Tensor] = [
        s.packed_operand(f"op{k}", op) for k, op in enumerate(operands)
    ]
    def output(out_shape):
        if out is not None:
            if out.shape != out_shape:
                raise ValueError(
                    f"out tensor shape {out.shape} does not match the "
                    f"einsum output shape {out_shape}"
                )
            return out
        # The output tensor's identity participates in the kernel
        # fingerprint too, so a repeated identical einsum must reuse one
        # output object.  The memo value pins the operand tensors,
        # keeping the id()-based key collision-free.
        out_key = (
            name, tuple(inputs), out_sub, additive,
            tuple(id(t) for t in tensors), out_shape,
        )
        memo = s._einsum_out_memo.get(out_key)
        if memo is None:
            memo = s._einsum_out_memo[out_key] = (
                tuple(tensors), Tensor.zeros(name, out_shape)
            )
        return memo[1]

    asg = build_assignment(parsed, tensors, output)
    out = asg.lhs.tensor
    out.assignment = asg
    if autotune:
        # warm=False: the execute below runs (and trace-records) the
        # winner on the session runtime anyway — a warm-up pass here
        # would launch the statement twice per call.
        s.autotune(asg, trials=trials, warm=False)
    if schedule is None:
        target = asg
    elif isinstance(schedule, Schedule):
        target = schedule
    elif callable(schedule):
        # The index variables are created inside einsum, so a hand mapping
        # is most naturally a builder over the generated assignment:
        #   einsum(..., schedule=lambda asg: Schedule(asg).divide(...)...)
        target = schedule(asg)
    else:
        raise TypeError("schedule= must be a Schedule or a builder callable")
    s.execute(target)
    return out
