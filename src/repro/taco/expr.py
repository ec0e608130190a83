"""Tensor index notation (TIN) abstract syntax.

A TIN statement assigns an expression built from accesses, ``+`` and ``*``
into a left-hand-side access (paper §II-A).  Index variables appearing only
on the right-hand side are sum-reduced over their domain.

Example (SpMV)::

    a[i] = B[i, j] * c[j]          # via Tensor.__setitem__
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .index_vars import IndexVar

__all__ = ["IndexExpr", "Access", "Add", "Mul", "Literal", "Assignment"]


class IndexExpr:
    """Base class for TIN expressions; supports ``+`` and ``*``."""

    def __add__(self, other) -> "IndexExpr":
        return Add._make(self, _wrap(other))

    def __radd__(self, other) -> "IndexExpr":
        return Add._make(_wrap(other), self)

    def __mul__(self, other) -> "IndexExpr":
        return Mul._make(self, _wrap(other))

    def __rmul__(self, other) -> "IndexExpr":
        return Mul._make(_wrap(other), self)

    # -- analysis ---------------------------------------------------------
    def index_vars(self) -> List[IndexVar]:
        """Distinct index variables in first-appearance order."""
        out: List[IndexVar] = []
        self._collect_vars(out)
        return out

    def accesses(self) -> List["Access"]:
        out: List[Access] = []
        self._collect_accesses(out)
        return out

    def tensors(self) -> List:
        seen, out = set(), []
        for a in self.accesses():
            if id(a.tensor) not in seen:
                seen.add(id(a.tensor))
                out.append(a.tensor)
        return out

    def _collect_vars(self, out: List[IndexVar]) -> None:
        raise NotImplementedError

    def _collect_accesses(self, out: List["Access"]) -> None:
        raise NotImplementedError


class Literal(IndexExpr):
    def __init__(self, value: float):
        self.value = float(value)

    def _collect_vars(self, out):
        pass

    def _collect_accesses(self, out):
        pass

    def __repr__(self) -> str:
        return repr(self.value)


class Access(IndexExpr):
    """A tensor indexed by a list of index variables, e.g. ``B(i, j)``."""

    def __init__(self, tensor, indices: Sequence[IndexVar]):
        self.tensor = tensor
        self.indices: Tuple[IndexVar, ...] = tuple(indices)
        if len(self.indices) != tensor.order:
            raise ValueError(
                f"{tensor.name} has order {tensor.order} but was accessed "
                f"with {len(self.indices)} indices"
            )

    def _collect_vars(self, out):
        for iv in self.indices:
            if iv not in out:
                out.append(iv)

    def _collect_accesses(self, out):
        out.append(self)

    def __repr__(self) -> str:
        idx = ", ".join(v.name for v in self.indices)
        return f"{self.tensor.name}({idx})"


class _NaryOp(IndexExpr):
    symbol = "?"

    def __init__(self, operands: Sequence[IndexExpr]):
        self.operands: Tuple[IndexExpr, ...] = tuple(operands)

    @classmethod
    def _make(cls, a: IndexExpr, b: IndexExpr) -> "IndexExpr":
        ops: List[IndexExpr] = []
        for x in (a, b):
            if isinstance(x, cls):
                ops.extend(x.operands)
            else:
                ops.append(x)
        return cls(ops)

    def _collect_vars(self, out):
        for op in self.operands:
            op._collect_vars(out)

    def _collect_accesses(self, out):
        for op in self.operands:
            op._collect_accesses(out)

    def __repr__(self) -> str:
        return "(" + f" {self.symbol} ".join(map(repr, self.operands)) + ")"


class Add(_NaryOp):
    symbol = "+"


class Mul(_NaryOp):
    symbol = "*"


def _wrap(x) -> IndexExpr:
    if isinstance(x, IndexExpr):
        return x
    if isinstance(x, (int, float)):
        return Literal(x)
    raise TypeError(f"cannot use {type(x).__name__} in an index expression")


class Assignment:
    """``lhs = rhs`` (or ``lhs += rhs`` when ``accumulate``)."""

    def __init__(self, lhs: Access, rhs: IndexExpr, *, accumulate: bool = False):
        self.lhs = lhs
        self.rhs = _wrap(rhs)
        self.accumulate = accumulate

    @property
    def reduction_vars(self) -> List[IndexVar]:
        """RHS-only variables, which are sum-reduced (paper §II-A)."""
        lhs = set(self.lhs.indices)
        return [v for v in self.rhs.index_vars() if v not in lhs]

    def index_vars(self) -> List[IndexVar]:
        """All distinct variables: LHS order first, then reduction variables."""
        out = list(self.lhs.indices)
        for v in self.rhs.index_vars():
            if v not in out:
                out.append(v)
        return out

    def accesses(self) -> List[Access]:
        return [self.lhs] + self.rhs.accesses()

    def tensors(self) -> List:
        seen, out = set(), []
        for a in self.accesses():
            if id(a.tensor) not in seen:
                seen.add(id(a.tensor))
                out.append(a.tensor)
        return out

    def is_additive(self) -> bool:
        """True when the RHS is a pure addition of accesses (e.g. SpAdd3)."""
        return isinstance(self.rhs, Add) and all(
            isinstance(op, Access) for op in self.rhs.operands
        )

    def __repr__(self) -> str:
        op = "+=" if self.accumulate else "="
        return f"{self.lhs!r} {op} {self.rhs!r}"
