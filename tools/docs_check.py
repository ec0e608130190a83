"""Documentation lint: every public module under ``src/repro`` must carry a
module-level docstring.

The docs site (``README.md``, ``docs/``) points into module docstrings for
the authoritative, code-adjacent documentation — a missing docstring is a
hole in the site.  A module is *public* unless its own name (or any
package on its path) starts with an underscore; ``__init__.py`` files are
public and checked too.

The check is ``ast``-based (no imports are executed), so it is safe to run
on any checkout; ``min_words`` also flags placeholder one-worders.  This
module is the ``docs`` plugin of ``tools/check.py`` (no command line of
its own): ``python tools/check.py --only docs``.
"""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_ROOT = REPO / "src" / "repro"


def is_public(path: Path, root: Path) -> bool:
    rel = path.relative_to(root)
    for part in rel.parts:
        name = part[:-3] if part.endswith(".py") else part
        if name.startswith("_") and name != "__init__":
            return False
    return True


def module_docstring(path: Path):
    """The module docstring of ``path``, or None (parse errors count as a
    missing docstring — a module the linter cannot read cannot be read by
    anyone else either)."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return None
    return ast.get_docstring(tree)


def check(root: Path, min_words: int) -> list:
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if not is_public(path, root):
            continue
        doc = module_docstring(path)
        if doc is None:
            offenders.append((path, "missing module docstring"))
        elif len(doc.split()) < min_words:
            offenders.append((path, f"docstring under {min_words} words"))
    return offenders
