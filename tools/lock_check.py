"""Static lock-discipline check for the shared cache state.

The process-wide cache tiers (:mod:`repro.core.cache`) and the codegen
lifecycle counters (:mod:`repro.codegen.registry`) are mutated
concurrently by every session in the process — the multi-tenant serving layer
(:mod:`repro.api.serving`) multiplexes tenant threads over exactly this
state.  Their thread-safety contract is lexical: **every mutation of a
watched structure happens inside a ``with <designated lock>:`` block**.
That discipline is easy to break silently — a new helper that pokes
``self._map`` or bumps a counter without taking the lock is still correct
under the GIL *most* of the time — so this tool enforces it statically.

For each watched file an AST pass walks every function body tracking the
set of lexically-held locks (``with self._lock:``, ``with _LOCK:``, …) and
flags any **mutation** of a watched target — assignment / augmented
assignment / deletion whose base resolves to the target, or a call of a
mutating method (``pop``, ``clear``, ``update``, ``setdefault``, …) on it —
outside its designated lock.  Reads are not flagged (the lock-free
double-checked fast paths are intentional); ``__init__`` bodies are exempt
where the rule says so (the lock is being constructed there); module-level
statements are exempt (import-time initialization is single-threaded).

This module is the ``lock`` plugin of ``tools/check.py`` (no command
line of its own)::

    PYTHONPATH=src python tools/check.py --only lock

and enforced in the tier-1 suite by ``tests/tools/test_lock_check.py``.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

#: method names whose call mutates the receiver (dict/list/OrderedDict).
MUTATORS = {
    "pop", "popitem", "clear", "update", "setdefault", "move_to_end",
    "append", "extend", "insert", "remove", "sort", "reverse",
}

__all__ = ["Rule", "Violation", "WATCH", "check_source"]


@dataclass(frozen=True)
class Rule:
    """One lock discipline: ``targets`` mutate only under ``lock``.

    ``scope`` restricts the rule to methods of one class (``None`` watches
    the whole module); ``exempt`` names methods/functions whose bodies may
    mutate freely (constructors building the lock itself).
    """

    targets: Tuple[str, ...]
    lock: str
    scope: Optional[str] = None
    exempt: Tuple[str, ...] = ()


@dataclass
class Violation:
    file: str
    line: int
    target: str
    lock: str
    context: str  # "Class.method" or "function"

    def __str__(self) -> str:
        return (f"{self.file}:{self.line}: {self.context} mutates "
                f"{self.target} outside `with {self.lock}:`")


#: The enforced disciplines, mirroring the docstrings of the watched files.
WATCH = {
    "src/repro/core/cache.py": (
        Rule(
            targets=("self._map", "self.total_bytes", "self.hits",
                     "self.misses", "self.evictions"),
            lock="self._lock",
            scope="_SizedLRU",
            exempt=("__init__",),
        ),
        # the generated-module table (one entry per lowering template)
        Rule(targets=("_aot_table", "_aot_counters"), lock="_AOT_LOCK"),
    ),
    "src/repro/codegen/registry.py": (
        Rule(targets=("_counters",), lock="_LOCK"),
    ),
    # The multi-tenant server: tensor catalog, pre-warmed session entries,
    # the single-flight map, per-tenant budget/stat records and the compile
    # counter are all mutated by request threads and must stay under the
    # server lock (docs/serving.md).
    "src/repro/api/serving.py": (
        Rule(
            targets=("self._catalog", "self._entries", "self._building",
                     "self._tenants", "self.compiles"),
            lock="self._lock",
            scope="Server",
            exempt=("__init__",),
        ),
    ),
    # The implicit einsum session: the module-global check-then-set in
    # _default_session must stay under its lock — two racing sessionless
    # einsum calls must agree on one session (one runtime, one memo).
    "src/repro/api/einsum.py": (
        Rule(targets=("_implicit_session",), lock="_SESSION_LOCK"),
    ),
}


def _base_path(node: ast.AST) -> Optional[str]:
    """The dotted base a mutation lands on: ``self._map[k]`` -> ``self._map``,
    ``_counters["x"]`` -> ``_counters``, ``self.hits`` -> ``self.hits``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, rules: Sequence[Rule], filename: str):
        self.rules = rules
        self.filename = filename
        self.violations: List[Violation] = []
        self._class: Optional[str] = None
        self._func: List[str] = []
        self._locks: Set[str] = set()

    # -- scope tracking ------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = prev

    def _visit_func(self, node) -> None:
        self._func.append(node.name)
        prev_locks, self._locks = self._locks, set(self._locks)
        self.generic_visit(node)
        self._locks = prev_locks
        self._func.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_With(self, node: ast.With) -> None:
        entered = set()
        for item in node.items:
            path = _base_path(item.context_expr)
            if path is not None:
                entered.add(path)
        self._locks |= entered
        for stmt in node.body:
            self.visit(stmt)
        self._locks -= entered

    # -- mutation sites ------------------------------------------------- #
    def _check(self, node: ast.AST, line: int) -> None:
        if not self._func:  # module / class body: import-time, exempt
            return
        path = _base_path(node)
        if path is None:
            return
        for rule in self.rules:
            if rule.scope is not None and self._class != rule.scope:
                continue
            if self._func[0] in rule.exempt:
                continue
            if path in rule.targets and rule.lock not in self._locks:
                ctx = (f"{self._class}.{self._func[-1]}" if self._class
                       else self._func[-1])
                self.violations.append(Violation(
                    self.filename, line, path, rule.lock, ctx,
                ))

    def visit_Assign(self, node: ast.Assign) -> None:
        stack = list(node.targets)
        while stack:
            t = stack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):  # unpacking targets
                stack.extend(t.elts)
            elif isinstance(t, ast.Starred):
                stack.append(t.value)
            else:
                self._check(t, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._check(t, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in MUTATORS:
            self._check(fn.value, node.lineno)
        self.generic_visit(node)


def check_source(source: str, rules: Sequence[Rule],
                 filename: str = "<string>") -> List[Violation]:
    """All lock-discipline violations in ``source`` under ``rules``."""
    checker = _Checker(rules, filename)
    checker.visit(ast.parse(source, filename))
    return checker.violations
