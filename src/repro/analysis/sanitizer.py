"""AST allowlist for kernel-module source: what a leaf module may look like.

No source is generated or ``exec``'d anywhere in the package (bound leaves
are plain functions; ``tools/check.py``'s ``no-exec`` plugin keeps it so).
This allowlist is kept because perfbench's ``analysis.sanitizer.verify_s``
row times it; retiring that row deletes this module.  It states what a
kernel module's source may look like:

* imports restricted to ``numpy`` / ``scipy`` / ``math`` — at module
  scope only;
* no calls to or references of exec/eval/compile/``__import__``/open/
  getattr-family names, no dunder attribute access, no ``global`` /
  ``nonlocal`` statements;
* the module body is docstring + imports + literal constant assignments
  (``META = {...}``, ``_BLOCK_BYTES = 1 << 17``) + function definitions, one
  of which must be ``bind``.

Violations raise a typed :class:`~repro.errors.SanitizerError` naming
the offending path and source line.
"""
from __future__ import annotations

import ast
from typing import Optional

from ..errors import SanitizerError

__all__ = ["ALLOWED_IMPORT_ROOTS", "FORBIDDEN_NAMES", "verify_aot_source"]

#: Top-level modules generated kernels may import (numpy, scipy.sparse
#: and the stdlib math module — nothing with I/O or process reach).
ALLOWED_IMPORT_ROOTS = frozenset({"numpy", "scipy", "math"})

#: Names whose mere reference fails verification: dynamic execution,
#: dynamic import, I/O, attribute smuggling and interpreter escape.
FORBIDDEN_NAMES = frozenset({
    "eval", "exec", "compile", "__import__", "open", "input",
    "breakpoint", "globals", "locals", "vars", "getattr", "setattr",
    "delattr", "exit", "quit", "memoryview", "__builtins__",
})


def _fail(path, message: str, node: Optional[ast.AST] = None) -> None:
    line = getattr(node, "lineno", None) if node is not None else None
    raise SanitizerError(path, message, line=line)


def _is_literal(node: ast.AST) -> bool:
    """Literal-ish expressions the module body may assign: constants,
    containers of literals, and constant arithmetic (``1 << 18``)."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            k is not None and _is_literal(k) and _is_literal(v)
            for k, v in zip(node.keys, node.values)
        )
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) and _is_literal(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_literal(node.operand)
    return False


def _check_import(path, node) -> None:
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:  # ast.ImportFrom
        if node.level:
            _fail(path, "relative imports are not allowed", node)
        names = [node.module or ""]
    for name in names:
        root = name.split(".", 1)[0]
        if root not in ALLOWED_IMPORT_ROOTS:
            _fail(
                path,
                f"import of {name!r} is outside the generated-module "
                f"allowlist {sorted(ALLOWED_IMPORT_ROOTS)}",
                node,
            )


def verify_aot_source(source: str, *, filename: str = "<aot>") -> ast.Module:
    """Verify ``source`` against the generated-module allowlist.

    Returns the parsed module on success so callers can reuse the AST;
    raises :class:`~repro.errors.SanitizerError` (with the offending
    line) on the first violation.  Never executes the source.
    """
    try:
        tree = ast.parse(source, filename=str(filename))
    except SyntaxError as e:
        raise SanitizerError(
            filename, f"not parseable as Python: {e.msg}", line=e.lineno
        ) from e

    # -- module-body structural allowlist ---------------------------------
    has_bind = False
    for k, stmt in enumerate(tree.body):
        if (
            k == 0
            and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            continue  # module docstring
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _check_import(filename, stmt)
            continue
        if isinstance(stmt, ast.Assign):
            if not all(
                isinstance(t, ast.Name) and not t.id.startswith("__")
                for t in stmt.targets
            ):
                _fail(filename, "module-level assignment must bind plain "
                                "names", stmt)
            if not _is_literal(stmt.value):
                _fail(filename, "module-level assignment must be a literal "
                                "constant", stmt)
            continue
        if isinstance(stmt, ast.FunctionDef):
            has_bind = has_bind or stmt.name == "bind"
            continue
        _fail(
            filename,
            f"module-level {type(stmt).__name__} is outside the "
            "generated-module shape (docstring, imports, constants, "
            "function definitions)",
            stmt,
        )
    if not has_bind:
        _fail(filename, "generated module must define bind()")

    # -- whole-tree reference checks --------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if node not in tree.body:
                _fail(filename, "imports are only allowed at module scope",
                      node)
        elif isinstance(node, ast.Name):
            if node.id in FORBIDDEN_NAMES:
                _fail(filename, f"reference to forbidden name {node.id!r}",
                      node)
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("__") and node.attr.endswith("__"):
                _fail(filename,
                      f"dunder attribute access {node.attr!r} is not allowed",
                      node)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            _fail(filename,
                  f"{type(node).__name__.lower()} statements are not allowed",
                  node)
        elif isinstance(node, (ast.AsyncFunctionDef, ast.ClassDef)):
            _fail(filename,
                  f"{type(node).__name__} is outside the generated-module "
                  "shape", node)
    return tree
