#!/usr/bin/env python
"""Unified static-check runner: every repo invariant, one entry point.

Each invariant is a *plugin* sharing one AST/source cache and one
findings model.  ``lock_check.py``, ``docs_check.py`` and ``api_check.py``
hold the rule tables and checkers of the lock-discipline, docstring and
export/example plugins; they have no command line of their own.  The
codebase passes defined here:

* **nondet** — a nondeterminism lint over the deterministic layers
  (``src/repro/kernels``, ``src/repro/codegen``, ``src/repro/analysis``,
  ``src/repro/distal``, ``src/repro/bench``): unseeded
  ``np.random`` / ``random`` usage and wall-clock reads
  (``time.time``/``perf_counter``, ``datetime.now``) are flagged with
  exact lines, because the leaf kernels, their bind functions and the
  static analyzers must be reproducible functions of their inputs.  An
  intentional read (the bench harness timing its own host overhead)
  carries an inline waiver ``# nondet: ok <reason>`` on the flagged
  line — a waiver without a reason is itself a finding;
* **kernelspec** — one switchboard: outside the kernel table
  (``src/repro/core/kernelspec.py``) and the fusion pass
  (``src/repro/core/passes.py``), no code under ``src/repro`` may compare
  a ``.kind`` against a string literal naming a kernel kind — per-kind
  behaviour is a lookup in the table.  Same waiver convention:
  ``# kind: ok <reason>``.  And no dispatch on a format's *name*: under
  ``src/repro/{core,codegen,kernels,analysis,api}`` no string literal
  may name a format (``csr``, ``csc``, ``csf3``, ``ddc``, any case) — a
  format is a stack of level types, walked through the level functions
  of ``repro.taco.levels``.  Waiver: ``# format: ok <reason>``.  And no
  level-type switch: outside ``src/repro/taco/`` no ``isinstance`` may
  name ``DenseLevel`` or ``CompressedLevel`` — what depends on a level's
  format is a method of its class.  Waiver: ``# level: ok <reason>``.
  And no index list on the compiler's cold path: under
  ``src/repro/core/`` and in ``src/repro/legion/dependent.py`` no
  ``.indices()`` call may materialize a subset's positions — compile and
  bind read level structure, dependent partitioning computes bounds
  arrays, and only the leaf passes over the non-zeros.  Waiver:
  ``# nnz: ok <reason>``.  And no
  hand-built schedule in the benchmarks: under ``src/repro/bench/`` no
  ``.divide(`` / ``.pos(`` / ``.fuse(`` / ``.distribute(`` call may build
  a mapping — the figures run what ``repro.api.auto_schedule`` synthesizes
  from the kernel table.  Waiver: ``# schedule: ok <reason>``;
* **no-exec** — no source is ever compiled: nowhere under ``src/repro``
  does code call the builtins ``exec``, ``eval`` or ``compile`` (bare or
  through ``builtins``), so no leaf, artifact or request can become
  running code; a leaf is bound by calling a bind function
  (``KernelSpec.bound``).  The private SciPy surface the leaves run on
  stays pinned in one place — ``scipy.sparse._sparsetools`` is named by
  code only in ``kernels/segment.py`` (the checked import) — no module
  holding a bind function reduces with ``np.bincount``, and nothing under
  ``src/repro`` reads the process environment;
* **residency** — a residency table (a region's live table or its homes)
  is written only by its class (``_Residency`` in
  ``src/repro/legion/residency.py``): nowhere else under ``src/repro``
  does code assign, augment or delete the index columns ``starts`` /
  ``ends`` / ``owners`` / ``arrivals``, the piece column ``_row_pieces``,
  the unmade load ``_unmade``, ``vol``, ``span``, ``whole`` or
  ``first_home`` (or an item of one), or call an in-place mutator on them.  The facts the table
  records about whole partitions, which let a launch skip staging, stay
  true only while every writer goes through the class.  And nothing under
  ``src/repro/legion/`` calls ``id(``: a launch trace and a fact name a
  partition by its content (``Partition.key``) and a region by its uid, so
  a pickled runtime is what was saved, with no re-keying.  Waiver:
  ``# id: ok <reason>``.  And no module under ``src/repro`` binds a
  ``_SizedLRU`` at module level but ``core/cache.py``'s kernel cache:
  every other cache belongs to the session or server that owns it;
* **schedule** — a schedule's fields ``loop_order`` / ``relations`` /
  ``distributed`` / ``communicated`` / ``parallelized`` /
  ``precomputed`` are written only in ``src/repro/taco/schedule.py``:
  nowhere else under ``src/repro`` does code assign, augment or delete
  one (or an item of one), or call an in-place mutator on it.  A
  synthesized schedule keys the kernel cache by what built those fields
  (its ``synthesis_key``), which stays true only while every write goes
  through a builder call, which drops the key.  Likewise a compiled
  kernel's fields ``_streamed`` / ``backend`` / ``parts`` /
  ``privileges`` / ``pieces`` / ``schedule`` are written only in
  ``src/repro/core/compiler.py``, and its ``cache_key`` only in
  ``src/repro/core/cache.py``: a kernel is what its key says, with no
  state set after its compile.  Waiver: ``# kernel: ok <reason>``;
* **commplan** — every (kernel × sweep format × strategy × machine kind)
  the kernel table declares must yield a coherent static communication plan
  (:mod:`repro.analysis.commplan`): the plan derives without error and
  reports no diagnostic of any type;
* **fusion** — the seeded SDDMM→SpMM chain must fuse, and the fused
  statement must plan coherently under each of its legal strategies;
  the same chain with a consumer streaming its dense operand must not fuse.
* **release** — no statement keeps its operands for the cyclic
  collector: with ``gc`` disabled, every (kernel × sweep format ×
  strategy × machine kind × backend) the kernel table declares is run four
  times on a fresh session — a recording launch and three replays, which
  a write-disjoint codegen launch takes as one call of its launch thunk —
  the captured SDDMM→SpMM program twice, and the assembled
  ``A = B + C + D; y = A c`` chain (whose SpAdd kernel keeps an assembly
  plan and whose output keeps its regions) three times; once the
  session, the statement and the process caches are dropped, every
  operand and the output must already be dead (``weakref``).  A
  reference cycle through a packed tensor pins its level arrays until a
  generation-2 collection, which makes ``peak_rss_mb`` a coin flip;
* **hypothesis** (slow) — every test module that uses Hypothesis, re-run
  under the larger-budget ``thorough`` profile of ``tests/conftest.py``
  (tier-1 itself runs them derandomised).

Every finding is ``file:line: message``; plugins report a one-line
summary when clean.  Usage::

    PYTHONPATH=src python tools/check.py             # fast default set
    PYTHONPATH=src python tools/check.py --all       # + slow plugins
    PYTHONPATH=src python tools/check.py --list
    PYTHONPATH=src python tools/check.py --only lock,nondet
    PYTHONPATH=src python tools/check.py --json

``tests/tools/test_check_runner.py`` wires the fast set into tier-1.
"""
from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
SRC = REPO / "src"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

JSON_SCHEMA_VERSION = 4

__all__ = [
    "Finding", "CheckResult", "Plugin", "PLUGINS", "SourceCache",
    "run_checks", "main",
]


# --------------------------------------------------------------------- #
# findings model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Finding:
    """One exact-line problem reported by a plugin."""

    file: str  #: repo-relative path ("-" for repo-level findings)
    line: Optional[int]
    message: str

    def __str__(self) -> str:
        at = f":{self.line}" if self.line is not None else ""
        return f"{self.file}{at}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line, "message": self.message}


@dataclass
class CheckResult:
    """The outcome of one plugin run."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    summary: str = ""

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "summary": self.summary,
            "findings": [f.to_json() for f in self.findings],
        }


class SourceCache:
    """Parse each checked file once, share text + AST across plugins."""

    def __init__(self, repo: Path = REPO):
        self.repo = repo
        self._cache: Dict[str, Tuple[str, ast.Module]] = {}

    def get(self, relpath: str) -> Tuple[str, ast.Module]:
        if relpath not in self._cache:
            text = (self.repo / relpath).read_text()
            self._cache[relpath] = (text, ast.parse(text, filename=relpath))
        return self._cache[relpath]


@dataclass(frozen=True)
class Plugin:
    """One registered check: a name, a blurb, and a runner."""

    name: str
    description: str
    run: Callable[[SourceCache], CheckResult]
    slow: bool = False  #: excluded from the default set (subprocesses etc.)


# --------------------------------------------------------------------- #
# wrapped legacy checks
# --------------------------------------------------------------------- #
def _run_lock(cache: SourceCache) -> CheckResult:
    import lock_check

    findings = []
    for relpath, rules in lock_check.WATCH.items():
        text, tree = cache.get(relpath)
        checker = lock_check._Checker(rules, relpath)
        checker.visit(tree)
        for v in checker.violations:
            findings.append(Finding(
                v.file, v.line,
                f"{v.context} mutates {v.target} outside "
                f"`with {v.lock}:`",
            ))
    watched = sum(
        len(r.targets) for rules in lock_check.WATCH.values() for r in rules
    )
    return CheckResult(
        "lock", findings,
        f"{watched} watched targets across {len(lock_check.WATCH)} files, "
        "every mutation under its designated lock",
    )


def _run_docs(cache: SourceCache) -> CheckResult:
    import docs_check

    offenders = docs_check.check(docs_check.DEFAULT_ROOT, min_words=3)
    findings = [
        Finding(str(path.relative_to(REPO)), 1, why)
        for path, why in offenders
    ]
    n = sum(
        1 for p in docs_check.DEFAULT_ROOT.rglob("*.py")
        if docs_check.is_public(p, docs_check.DEFAULT_ROOT)
    )
    return CheckResult("docs", findings, f"{n} public modules documented")


def _run_exports(cache: SourceCache) -> CheckResult:
    import api_check

    findings = [
        Finding("src/repro/__init__.py", None, p)
        for p in api_check.export_problems()
    ]
    return CheckResult(
        "exports", findings,
        f"{len(api_check.REQUIRED_EXPORTS)} required exports resolve and "
        "are documented",
    )


def _run_examples(cache: SourceCache) -> CheckResult:
    import api_check

    findings = [
        Finding(f"examples/{name}", None, detail)
        for name, detail in api_check.example_failures()
    ]
    n = len(list(api_check.EXAMPLES.glob("*.py")))
    return CheckResult(
        "examples", findings, f"{n} examples ran clean under PYTHONPATH=src"
    )


def _run_hypothesis(cache: SourceCache) -> CheckResult:
    """Every test module that uses Hypothesis, under the ``thorough``
    profile of ``tests/conftest.py`` (fresh seeds, ten times the tier-1
    example budget wherever a test leaves the budget to the profile)."""
    import subprocess

    import api_check

    modules = sorted(
        str(p.relative_to(REPO)) for p in (REPO / "tests").rglob("test_*.py")
        if "from hypothesis import" in p.read_text()
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=thorough", *modules],
        cwd=REPO, env=api_check.src_env(), capture_output=True, text=True,
        timeout=3600,
    )
    findings = [] if proc.returncode == 0 else [
        Finding("tests", None, f"pytest exited {proc.returncode}:\n{proc.stdout}")
    ]
    return CheckResult(
        "hypothesis", findings,
        f"{len(modules)} Hypothesis test modules pass under the thorough profile",
    )


# --------------------------------------------------------------------- #
# nondeterminism lint (new)
# --------------------------------------------------------------------- #
#: directories whose code must be a pure function of its inputs.
NONDET_ROOTS = (
    "src/repro/kernels", "src/repro/codegen",
    "src/repro/analysis", "src/repro/distal", "src/repro/bench",
)

#: inline waiver for an intentional finding: the flagged line carries
#: ``# <tag>: ok <reason>`` (tags: ``nondet``, ``kind``, ``format``,
#: ``level``, ``nnz``, ``schedule``, ``id``, ``kernel``); the reason is
#: mandatory.
_WAIVER_RE = r"#\s*%s:\s*ok\b[ \t]*(.*)"

#: attribute chains whose *call* (or use) injects nondeterminism.
_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _reporter(relpath: str, text: str, tag: str, findings: List[Finding]):
    """``report(line, message)`` appending to ``findings`` unless the line
    carries a ``# <tag>: ok <reason>`` waiver (one without a reason is
    itself a finding)."""
    waiver = re.compile(_WAIVER_RE % tag)
    waived: Dict[int, str] = {}
    for n, line in enumerate(text.splitlines(), 1):
        m = waiver.search(line)
        if m is not None:
            waived[n] = m.group(1).strip()

    def report(line: int, message: str) -> None:
        if line not in waived:
            findings.append(Finding(relpath, line, message))
        elif not waived[line]:
            findings.append(Finding(
                relpath, line,
                f"{tag} waiver without a reason: write "
                f"`# {tag}: ok <why this is intentional>`",
            ))

    return report


def _scan_nondet(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    report = _reporter(relpath, text, "nondet", findings)

    # only flag maximal attribute chains, so np.random.random(...) yields
    # one finding rather than one per nested Attribute node
    inner = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            dotted = _dotted(node)
            if dotted is None:
                continue
            # unseeded randomness: module-level np.random.* / stdlib
            # random.* references that are not the construction of an
            # explicitly seeded Generator.  Method calls on a Generator
            # instance (``rng.random(...)``) are the seeded fix, not a
            # finding.
            if (dotted[0] in ("np", "numpy") and "random" in dotted[1:]) \
                    or dotted[0] == "random":
                if dotted[-1] in ("default_rng", "Generator", "SeedSequence"):
                    continue  # seeded-generator construction is the fix
                report(
                    node.lineno,
                    f"unseeded randomness: {'.'.join(dotted)} — these layers "
                    "must be deterministic (pass a seeded "
                    "np.random.Generator instead)",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            # scipy.sparse.random without an explicit random_state draws
            # from the global NumPy state.
            if (dotted[-1] == "random"
                    and dotted[0] in ("sp", "sparse", "scipy")
                    and not any(kw.arg == "random_state"
                                for kw in node.keywords)):
                report(
                    node.lineno,
                    f"unseeded randomness: {'.'.join(dotted)}() without "
                    "random_state= — pass the scenario's seeded Generator",
                )
            if tuple(dotted[-2:]) in _WALLCLOCK_CALLS:
                report(
                    node.lineno,
                    f"wall-clock read: {'.'.join(dotted)}() — deterministic "
                    "layers must not depend on the clock "
                    "(`# nondet: ok <reason>` waives an intentional read)",
                )
    return findings


def _run_nondet(cache: SourceCache) -> CheckResult:
    findings: List[Finding] = []
    scanned = 0
    for root in NONDET_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            relpath = str(path.relative_to(REPO))
            text, tree = cache.get(relpath)
            findings.extend(_scan_nondet(relpath, text, tree))
            scanned += 1
    return CheckResult(
        "nondet", findings,
        f"{scanned} modules under {', '.join(NONDET_ROOTS)} free of "
        "unseeded randomness and unwaived wall-clock reads",
    )


# --------------------------------------------------------------------- #
# one switchboard: no per-kind branches outside the kernel table
# --------------------------------------------------------------------- #
#: the modules that may name kernel kinds: the table itself, and the
#: fusion pass (its legality rule is about two specific kinds).
KERNELSPEC_EXEMPT = ("src/repro/core/kernelspec.py", "src/repro/core/passes.py")


def _scan_kind_compares(
    relpath: str, text: str, tree: ast.Module, kinds
) -> List[Finding]:
    """``x.kind == "spmv"`` / ``x.kind in ("spmv", ...)`` and friends."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "kind", findings)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(e, ast.Attribute) and e.attr == "kind" for e in sides):
            continue
        named = sorted({
            c.value
            for e in sides for c in ast.walk(e)
            if isinstance(c, ast.Constant) and c.value in kinds
        })
        if named:
            report(
                node.lineno,
                f".kind compared against {', '.join(map(repr, named))} — "
                "per-kind behaviour belongs in the kernel table "
                "(repro.core.kernelspec); look it up instead "
                "(`# kind: ok <reason>` waives an intentional compare)",
            )
    return findings


#: the layers that decide and generate what runs: none may name a format.
FORMAT_NAME_ROOTS = tuple(
    f"src/repro/{pkg}/" for pkg in ("core", "codegen", "kernels", "analysis", "api")
)
_FORMAT_NAMES = ("csr", "csc", "csf3", "ddc")


def _scan_format_names(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """String literals that *are* a format name (``"csr"``, ``'DDC'``)."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "format", findings)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.lower() in _FORMAT_NAMES
        ):
            report(
                node.lineno,
                f"string literal {node.value!r} names a format — a format is "
                "a stack of level types; state a predicate over them and "
                "walk them through the level functions of repro.taco.levels "
                "(`# format: ok <reason>` waives an intentional name)",
            )
    return findings


#: the one package that may ask what type a storage level is.
LEVEL_CLASS_HOME = "src/repro/taco/"
_LEVEL_CLASSES = ("DenseLevel", "CompressedLevel")


def _scan_level_switches(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """``isinstance(x, CompressedLevel)`` — bare, dotted or in a tuple."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "level", findings)
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        named = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node.args[1])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if named.intersection(_LEVEL_CLASSES):
            report(
                node.lineno,
                "level-type switch outside the level classes — what depends "
                "on a level's format is a method of its class in "
                "repro.taco.levels (`# level: ok <reason>` waives an "
                "intentional test)",
            )
    return findings


#: the compiler, whose cold path reads level structure, not the non-zeros,
#: and dependent partitioning, which computes every colour's bounds as arrays.
INDEX_LIST_ROOT = ("src/repro/core/", "src/repro/legion/dependent.py")


def _scan_index_lists(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """``subset.indices()`` — a subset's positions materialized as a list."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "nnz", findings)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "indices"
            and not node.args
        ):
            report(
                node.lineno,
                ".indices() materializes a subset's index list — under "
                "core/ bound it through the level functions (coord_bounds, "
                "child_range), in dependent partitioning compute the "
                "partition's bounds arrays, or slice a view with as_slice() "
                "(`# nnz: ok <reason>` waives an intentional list)",
            )
    return findings


#: the benchmarks, which run the schedules the front door synthesizes.
SCHEDULE_FREE_ROOT = "src/repro/bench/"
_SCHEDULE_CALLS = ("divide", "pos", "fuse", "distribute")


def _scan_schedule_calls(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """``s.divide(...)`` / ``.pos(`` / ``.fuse(`` / ``.distribute(`` — a
    mapping built by hand."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "schedule", findings)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHEDULE_CALLS
        ):
            report(
                node.func.end_lineno,  # the method's own line in a chain
                f".{node.func.attr}() builds a schedule by hand — the "
                "benchmarks run what repro.api.auto_schedule synthesizes "
                "from the kernel table; pass strategy= instead "
                "(`# schedule: ok <reason>` waives an intentional mapping)",
            )
    return findings


def _run_kernelspec(cache: SourceCache) -> CheckResult:
    from repro.core.kernelspec import SPECS

    findings: List[Finding] = []
    scanned = 0
    kinds = set(SPECS)
    for path in sorted((SRC / "repro").rglob("*.py")):
        relpath = str(path.relative_to(REPO))
        text, tree = cache.get(relpath)
        if relpath.startswith(FORMAT_NAME_ROOTS):
            findings.extend(_scan_format_names(relpath, text, tree))
        if not relpath.startswith(LEVEL_CLASS_HOME):
            findings.extend(_scan_level_switches(relpath, text, tree))
        if relpath.startswith(INDEX_LIST_ROOT):
            findings.extend(_scan_index_lists(relpath, text, tree))
        if relpath.startswith(SCHEDULE_FREE_ROOT):
            findings.extend(_scan_schedule_calls(relpath, text, tree))
        if relpath in KERNELSPEC_EXEMPT:
            continue
        findings.extend(_scan_kind_compares(relpath, text, tree, kinds))
        scanned += 1
    return CheckResult(
        "kernelspec", findings,
        f"{scanned} modules under src/repro branch on no kernel kind by "
        f"name, the dispatch layers name no format, no module outside "
        f"repro/taco switches on a level class, core/ and dependent.py materialize no "
        f"unwaived index list and bench/ builds no schedule by hand; "
        f"{len(SPECS)} kinds live in the kernel table",
    )


# --------------------------------------------------------------------- #
# no source is compiled: no exec surface, one sparsetools site
# --------------------------------------------------------------------- #
#: the builtins that turn text into running code, called bare or through
#: ``builtins``.
EXEC_BUILTINS = ("exec", "eval", "compile")
_EXEC_CALLS = {(n,) for n in EXEC_BUILTINS} | {("builtins", n) for n in EXEC_BUILTINS}


def _scan_exec_calls(relpath: str, tree: ast.Module) -> List[Finding]:
    """Calls of the builtins ``exec`` / ``eval`` / ``compile``, bare or as
    ``builtins.<name>`` (a method of the same name — ``re.compile``,
    ``session.compile`` — is not one)."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _EXEC_CALLS:
            findings.append(Finding(
                relpath, node.lineno,
                f"calls {'.'.join(dotted)}(): nothing under src/repro turns "
                "text into code — bind a leaf by calling a bind function",
            ))
    return findings


def _scan_environ_reads(relpath: str, tree: ast.Module) -> List[Finding]:
    """``os.environ`` / ``os.getenv`` uses: what runs is decided by
    arguments, never by the environment."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (_dotted(node) or ())[-2:] in (("os", "environ"), ("os", "getenv"))
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(
                a.name in ("environ", "getenv") for a in node.names)
        else:
            continue
        if hit:
            findings.append(Finding(
                relpath, node.lineno,
                "reads the process environment — pass an argument instead",
            ))
    return findings


#: the one module that may name ``scipy.sparse._sparsetools``.
SPARSETOOLS_IMPORT_SITE = "src/repro/kernels/segment.py"


def _scan_sparsetools(relpath: str, tree: ast.Module) -> List[Finding]:
    """Code that names ``_sparsetools`` — an import or an attribute access
    — outside the site that may (docstrings and prose are not code)."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = any("_sparsetools" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = "_sparsetools" in (node.module or "") or any(
                a.name == "_sparsetools" for a in node.names)
        elif isinstance(node, ast.Attribute):
            named = node.attr == "_sparsetools"
        else:
            continue
        if named and relpath != SPARSETOOLS_IMPORT_SITE:
            findings.append(Finding(
                relpath, node.lineno,
                "names scipy.sparse._sparsetools: the private SciPy surface "
                f"is pinned at {SPARSETOOLS_IMPORT_SITE} (import the "
                "primitive from there)",
            ))
    return findings


def _scan_bincount(relpath: str, tree: ast.Module) -> List[Finding]:
    """``bincount`` named in a module that holds a bind function: every
    bound leaf that reduces runs on the segment-reduce primitive."""
    return [
        Finding(relpath, node.lineno, "np.bincount beside a bind function — "
                "reduce with csr_matvec / csr_matvecs over the segment "
                "boundaries (repro.kernels.segment)")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "bincount")
        or (isinstance(node, ast.Name) and node.id == "bincount")
    ]


def _bind_modules() -> List[str]:
    """The modules holding a bind function the kernel table names."""
    from repro.core.kernelspec import SPECS

    names = {fn.__module__ for spec in SPECS.values() for fn in spec.bound.values()}
    return sorted(f"src/{n.replace('.', '/')}.py" for n in names)


def _run_no_exec(cache: SourceCache) -> CheckResult:
    """No exec surface anywhere under ``src/repro``; the private SciPy
    surface at one site; no ``bincount`` beside a bind function; nothing
    takes orders from the environment."""
    findings: List[Finding] = []
    modules = sorted(str(p.relative_to(REPO)) for p in (SRC / "repro").rglob("*.py"))
    for relpath in modules:
        tree = cache.get(relpath)[1]
        findings.extend(_scan_exec_calls(relpath, tree))
        findings.extend(_scan_sparsetools(relpath, tree))
        findings.extend(_scan_environ_reads(relpath, tree))
    binders = _bind_modules()
    for relpath in binders:
        findings.extend(_scan_bincount(relpath, cache.get(relpath)[1]))
    return CheckResult(
        "no-exec", findings,
        f"{len(modules)} modules under src/repro call no exec / eval / "
        f"compile and read no environment; scipy.sparse._sparsetools is "
        f"named at one site; "
        f"{len(binders)} bind-function modules reduce without bincount",
    )


# --------------------------------------------------------------------- #
# a residency table changes only through its class
# --------------------------------------------------------------------- #
#: ``(module, class)`` of the residency table, the one writer of its fields.
RESIDENCY_HOME = ("src/repro/legion/residency.py", "_Residency")
#: the table's fields: its pieces, their index and totals, and the facts
#: about whole partitions that are true only while every write goes
#: through the class.
RESIDENCY_FIELDS = ("_row_pieces", "_unmade", "starts", "ends", "owners", "arrivals",
                    "vol", "span", "whole", "first_home")
#: methods that mutate a list, dict or set in place.
_MUTATORS = frozenset((
    "append", "insert", "extend", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "sort", "reverse", "add", "discard",
))


def _written_field(node: ast.AST, fields: Tuple[str, ...]) -> Optional[str]:
    """The field of ``fields`` that ``node`` writes through — ``x.<field>``
    or an item of it, at any depth — if any."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in fields:
        return node.attr
    return None


def _field_writes(tree: ast.Module, fields: Tuple[str, ...],
                  exempt=frozenset()) -> List[Tuple[int, str]]:
    """``(line, field)`` of every assignment (plain, augmented, ``del``) to
    one of ``fields`` or an item of one, and every in-place mutator call on
    one, outside the nodes whose ids are in ``exempt``."""
    writes = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            targets = [node.func.value]
        else:
            continue
        flat = [e for t in targets
                for e in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])]
        written = [f for f in (_written_field(e, fields) for e in flat) if f]
        if written:
            writes.append((node.lineno, written[0]))
    return sorted(writes)


def _scan_residency_writes(relpath: str, tree: ast.Module) -> List[Finding]:
    """Assignments (plain, augmented, ``del``) to a residency field or an
    item of one, and in-place mutator calls on them, outside the class
    that owns the table."""
    exempt = set()
    for node in ast.walk(tree):
        if (relpath, getattr(node, "name", None)) == RESIDENCY_HOME \
                and isinstance(node, ast.ClassDef):
            exempt = {id(n) for n in ast.walk(node)}
    return [
        Finding(relpath, line,
                f"writes the residency field {field!r} outside "
                f"{RESIDENCY_HOME[1]}: go through its methods (add, "
                "invalidate_others, load, hold_whole), or a recorded fact "
                "about a whole partition can turn false")
        for line, field in _field_writes(tree, RESIDENCY_FIELDS, exempt)
    ]


#: the runtime's modules, whose traces and facts pickle: nothing there
#: names an object by ``id``.
ID_FREE_ROOT = "src/repro/legion/"


def _scan_id_calls(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """Calls of the builtin ``id`` (a method of that name is not one)."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "id", findings)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "id":
            report(node.lineno,
                   "id() names an object by its address, which a pickle does "
                   "not keep — name a partition by its content "
                   "(Partition.key), a region by its uid "
                   "(`# id: ok <reason>` waives an intentional call)")
    return findings


#: ``(module, name)`` of the one module-level ``_SizedLRU`` under
#: ``src/repro``: the kernel cache.  Any other cache is state a session or
#: server owns, so two of them cannot leak into each other.
MODULE_CACHE = ("src/repro/core/cache.py", "_kernel_cache")


def _scan_module_caches(relpath: str, tree: ast.Module) -> List[Finding]:
    """``_SizedLRU(...)`` calls at module level (outside every function and
    class body) other than the binding :data:`MODULE_CACHE` names."""
    findings: List[Finding] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.Assign) and (relpath, [
                getattr(t, "id", None) for t in stmt.targets]) == (
                MODULE_CACHE[0], [MODULE_CACHE[1]]):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and \
                    (_dotted(node.func) or ("",))[-1] == "_SizedLRU":
                findings.append(Finding(
                    relpath, node.lineno,
                    "a module-level _SizedLRU is process-global state "
                    "every session shares; keep the cache on the Session "
                    f"or Server that owns it ({MODULE_CACHE[0]}'s "
                    f"{MODULE_CACHE[1]} is the one process cache)"))
    return findings


def _run_residency(cache: SourceCache) -> CheckResult:
    modules = sorted(str(p.relative_to(REPO)) for p in (SRC / "repro").rglob("*.py"))
    findings: List[Finding] = []
    for relpath in modules:
        text, tree = cache.get(relpath)
        findings.extend(_scan_residency_writes(relpath, tree))
        findings.extend(_scan_module_caches(relpath, tree))
        if relpath.startswith(ID_FREE_ROOT):
            findings.extend(_scan_id_calls(relpath, text, tree))
    return CheckResult(
        "residency", findings,
        f"{len(modules)} modules under src/repro write the residency fields "
        f"only inside {RESIDENCY_HOME[1]}; {ID_FREE_ROOT} calls no id(); "
        f"{MODULE_CACHE[1]} is the one module-level _SizedLRU",
    )


# --------------------------------------------------------------------- #
# a schedule's fields are written only by its module
# --------------------------------------------------------------------- #
#: The one module that writes a schedule's fields.
SCHEDULE_HOME = "src/repro/taco/schedule.py"
#: A schedule's loops, relations and directives: a synthesized schedule
#: keys the kernel cache by what built them, which stays true only while
#: every write goes through a builder call (which drops that key).
SCHEDULE_FIELDS = ("loop_order", "relations", "distributed", "communicated",
                   "parallelized", "precomputed")


def _scan_schedule_writes(relpath: str, tree: ast.Module) -> List[Finding]:
    """Assignments (plain, augmented, ``del``) to a schedule field or an
    item of one, and in-place mutator calls on them, outside
    :data:`SCHEDULE_HOME`."""
    if relpath == SCHEDULE_HOME:
        return []
    return [
        Finding(relpath, line,
                f"writes the schedule field {field!r} outside "
                f"{SCHEDULE_HOME}: go through a Schedule method (a builder "
                "call, forward_reads), or a synthesized schedule can stay "
                "keyed by a synthesis that no longer built it")
        for line, field in _field_writes(tree, SCHEDULE_FIELDS)
    ]


#: Each compiled-kernel field and the one module that writes it: the
#: kernel cache shares a kernel under a key naming its schedule, tensors
#: and machine, so what it streams, its backend, partitions, privileges,
#: pieces and schedule are set by its compile and by nothing after.
KERNEL_HOMES = {
    **dict.fromkeys(("_streamed", "backend", "parts", "privileges", "pieces",
                     "schedule"), "src/repro/core/compiler.py"),
    "cache_key": "src/repro/core/cache.py",
}


def _scan_kernel_writes(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    """Assignments (plain, augmented, ``del``) to a compiled-kernel field
    or an item of one, and in-place mutator calls on them, outside the
    field's module (:data:`KERNEL_HOMES`)."""
    findings: List[Finding] = []
    report = _reporter(relpath, text, "kernel", findings)
    fields = tuple(f for f, home in KERNEL_HOMES.items() if home != relpath)
    for line, field in _field_writes(tree, fields):
        report(line,
               f"writes the kernel field {field!r} outside "
               f"{KERNEL_HOMES[field]}: a cached kernel is shared under a key "
               "that names its schedule, so set it when the kernel is built "
               "(`# kernel: ok <reason>` waives a field of another object)")
    return findings


def _run_schedule(cache: SourceCache) -> CheckResult:
    modules = sorted(str(p.relative_to(REPO)) for p in (SRC / "repro").rglob("*.py"))
    findings: List[Finding] = []
    for relpath in modules:
        text, tree = cache.get(relpath)
        findings.extend(_scan_schedule_writes(relpath, tree))
        findings.extend(_scan_kernel_writes(relpath, text, tree))
    return CheckResult(
        "schedule", findings,
        f"{len(modules)} modules under src/repro write a schedule's fields "
        f"only inside {SCHEDULE_HOME}, a compiled kernel's only where "
        "KERNEL_HOMES says",
    )


# --------------------------------------------------------------------- #
# static communication-plan coherence (new)
# --------------------------------------------------------------------- #
def _commplan_workload(kind: str, fmt_obj, n: int = 18, density: float = 0.25):
    """A small seeded statement of one kind over a sparse operand in
    format ``fmt_obj`` (output tensor with its assignment attached),
    mirroring the differential oracle's builders."""
    import numpy as np
    import scipy.sparse as sp

    from repro.taco import CSR, DDC, Tensor, index_vars

    rng = np.random.default_rng(0)
    vals = lambda size: rng.integers(1, 5, size).astype(float)
    dense = lambda shape: rng.integers(1, 5, shape).astype(float)

    def csr(rows, cols):
        nnz = max(1, int(rows * cols * density))
        mat = sp.coo_matrix(
            (vals(nnz), (rng.integers(0, rows, nnz), rng.integers(0, cols, nnz))),
            shape=(rows, cols),
        )
        mat.sum_duplicates()
        return mat.tocsr()

    if kind == "spmv":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        c = Tensor.from_dense("c", dense((n,)))
        a = Tensor.zeros("a", (n,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        return a
    if kind == "spmm":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        C = Tensor.from_dense("C", dense((n, 5)))
        out = Tensor.zeros("A", (n, 5))
        i, kk, j = index_vars("i k j")
        out[i, j] = B[i, kk] * C[kk, j]
        return out
    if kind == "sddmm":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        C = Tensor.from_dense("C", dense((n, 4)))
        D = Tensor.from_dense("D", dense((4, n)))
        out = Tensor.zeros("A", (n, n), CSR)
        i, j, kk = index_vars("i j k")
        out[i, j] = B[i, j] * C[i, kk] * D[kk, j]
        return out
    if kind in ("spttv", "spmttkrp"):
        shape = (n, max(3, n // 2), max(3, n // 3))
        nnz = max(1, int(shape[0] * shape[1] * shape[2] * density))
        idx = [rng.integers(0, s, nnz) for s in shape]
        T = Tensor.from_coo("T", idx, vals(nnz), shape, fmt_obj)
        if kind == "spttv":
            c = Tensor.from_dense("c", dense((shape[2],)))
            out = Tensor.zeros("A", shape[:2], None if fmt_obj is DDC else CSR)
            i, j, kk = index_vars("i j k")
            out[i, j] = T[i, j, kk] * c[kk]
            return out
        C = Tensor.from_dense("C", dense((shape[1], 4)))
        D = Tensor.from_dense("D", dense((shape[2], 4)))
        out = Tensor.zeros("A", (n, 4))
        i, j, kk, ll = index_vars("i j k l")
        out[i, ll] = T[i, j, kk] * C[j, ll] * D[kk, ll]
        return out
    if kind == "spadd":
        Bt, Ct, Dt = (Tensor.from_scipy(nm, csr(n, n), CSR) for nm in "BCD")
        out = Tensor.zeros("A", (n, n), CSR)
        i, j = index_vars("i j")
        out[i, j] = Bt[i, j] + Ct[i, j] + Dt[i, j]
        return out
    return None  # no user-written statement classifies as this kind


def _plan_findings(sched, machine, combo: str) -> List[Finding]:
    """Findings against one schedule's static communication plan: it must
    derive, with no diagnostic of any type."""
    from repro.analysis.commplan import commplan_diagnostics

    where = "src/repro/analysis/commplan.py"
    try:
        diags = commplan_diagnostics(sched, machine)
    except Exception as e:  # a plan must always derive
        return [Finding(
            where, None,
            f"schedule {combo} has no static plan: {type(e).__name__}: {e}",
        )]
    return [
        Finding(where, None, f"schedule {combo} is incoherent: {d}")
        for d in diags
    ]


def _run_commplan(cache: SourceCache) -> CheckResult:
    """Every auto-synthesized schedule must yield a coherent static plan:
    each (kernel × sweep format × strategy) the kernel table declares, on cpu
    and gpu machines, over a small seeded workload.  The fused kind has
    no user-written statement; the ``fusion`` plugin covers it through
    the pass pipeline."""
    import itertools

    from repro.api.autoschedule import auto_schedule
    from repro.core import SPECS, clear_caches
    from repro.errors import ScheduleError
    from repro.legion import Machine

    findings: List[Finding] = []
    checked = 0
    clear_caches()
    try:
        for spec, machine_kind in itertools.product(
            SPECS.values(), ("cpu", "gpu")
        ):
            machine = Machine.gpu(4) if machine_kind == "gpu" else Machine.cpu(4)
            for fmt, strategy in itertools.product(spec.formats, spec.strategies):
                out = _commplan_workload(spec.kind, fmt)
                if out is None:
                    continue
                try:
                    sched = auto_schedule(out, machine, strategy=strategy)
                except ScheduleError:
                    continue  # strategy not synthesizable on this machine
                findings.extend(_plan_findings(
                    sched, machine,
                    f"{spec.kind}/{fmt.name}/{strategy}/{machine_kind}",
                ))
                checked += 1
    finally:
        clear_caches()
    return CheckResult(
        "commplan", findings,
        f"{checked} auto-synthesized schedules yield coherent static "
        "communication plans",
    )


# --------------------------------------------------------------------- #
# SDDMM→SpMM fusion coherence (new)
# --------------------------------------------------------------------- #
def _fusable_chain(machine, stream=False):
    """A seeded SDDMM→SpMM chain as auto-scheduled statements; with
    ``stream`` the consumer streams its dense operand ``F`` (a
    ``communicate`` at the loop inside its distributed one)."""
    import numpy as np
    import scipy.sparse as sp

    from repro.api.autoschedule import auto_schedule
    from repro.taco import CSR, Tensor, index_vars

    rng = np.random.default_rng(3)
    n, r, f = 24, 5, 6
    nnz = max(1, int(n * n * 0.2))
    mat = sp.coo_matrix(
        (rng.integers(1, 5, nnz).astype(float),
         (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
        shape=(n, n),
    )
    mat.sum_duplicates()
    B = Tensor.from_scipy("B", mat.tocsr(), CSR)
    U = Tensor.from_dense("U", rng.integers(1, 5, (n, r)).astype(float))
    V = Tensor.from_dense("V", rng.integers(1, 5, (r, n)).astype(float))
    F = Tensor.from_dense("F", rng.integers(1, 5, (n, f)).astype(float))
    E = Tensor.zeros("E", (n, n), CSR)
    H = Tensor.zeros("H", (n, f))
    i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
    E[i, j] = B[i, j] * U[i, k] * V[k, j]
    H[i2, k2] = E[i2, j2] * F[j2, k2]
    consumer = auto_schedule(H.assignment, machine)
    if stream:
        consumer.communicate(
            F, consumer.divide_rel_of(consumer.distributed[-1]).inner)
    return [auto_schedule(E.assignment, machine), consumer]


def _run_fusion(cache: SourceCache) -> CheckResult:
    """Every synthesized fusable chain must fuse into a coherent plan.

    On both machine kinds, the pass pipeline must fuse the seeded
    SDDMM→SpMM chain into one ``fused_sddmm_spmm`` statement, and under
    each of the fused kind's legal strategies that statement's static
    communication plan must be coherent (:func:`_plan_findings`).  The
    same chain with a consumer that streams its dense operand must stay
    unfused: the fused statement would keep that operand resident.
    """
    from repro.api.autoschedule import auto_schedule
    from repro.core import SPECS, clear_caches
    from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
    from repro.errors import ScheduleError
    from repro.legion import Machine

    findings: List[Finding] = []
    checked = 0
    clear_caches()
    try:
        for machine_kind in ("cpu", "gpu"):
            machine = Machine.gpu(4) if machine_kind == "gpu" else Machine.cpu(4)
            streaming = pipeline_plan(_fusable_chain(machine, stream=True), machine)
            if len(streaming.schedules) != 2:
                findings.append(Finding(
                    "src/repro/core/passes.py", None,
                    f"SDDMM→SpMM chain whose consumer streams F fused on "
                    f"{machine_kind}, dropping the stream",
                ))
            scheds = _fusable_chain(machine)
            plan = pipeline_plan(scheds, machine)
            fuse_rec = next(r for r in plan.records if r.name == "fuse")
            if not fuse_rec.fired or len(plan.schedules) != 1:
                findings.append(Finding(
                    "src/repro/core/passes.py", None,
                    f"fusable SDDMM→SpMM chain did not fuse on "
                    f"{machine_kind}: {fuse_rec.describe()}",
                ))
                continue
            fused_asg = plan.schedules[0].assignment
            for strategy in SPECS[FUSED_SDDMM_SPMM].strategies:
                try:
                    sched = auto_schedule(fused_asg, machine, strategy=strategy)
                except ScheduleError:
                    continue  # strategy not synthesizable for this machine
                findings.extend(_plan_findings(
                    sched, machine,
                    f"{FUSED_SDDMM_SPMM}/{strategy}/{machine_kind}",
                ))
                checked += 1
    finally:
        clear_caches()
    return CheckResult(
        "fusion", findings,
        f"{checked} fused SDDMM→SpMM schedules derive coherent static "
        "communication plans",
    )


# --------------------------------------------------------------------- #
# operands are released by reference counting alone (new)
# --------------------------------------------------------------------- #
def _assembled_chain():
    """``A = B + C + D; y(i) = A(i,j) * c(j)``: an assembled output and a
    kernel that consumes it (which stays cached across runs, holding A)."""
    import numpy as np

    from repro.taco import Tensor, index_vars

    A = _commplan_workload("spadd", None)
    c = Tensor.from_dense("c", np.arange(1.0, A.shape[1] + 1))
    y = Tensor.zeros("y", (A.shape[0],))
    i, j = index_vars("i j")
    y[i] = A[i, j] * c[j]


def _unreleased(build, machine, backend: str, strategy: Optional[str] = None,
                runs: int = 2):
    """Run the statements ``build()`` writes ``runs`` times on a fresh session, drop
    the session, the statements and the process caches, and return the
    names of their tensors that are still alive — call with the cyclic
    collector disabled, so a survivor is a reference cycle.  The statements
    run as the program the session captures, compiled for ``backend``, the
    first under ``strategy`` when one is named.  ``None`` when nothing ran
    (no statement written, or the strategy is not synthesizable here)."""
    import weakref

    import repro
    from repro.api.autoschedule import auto_schedule
    from repro.core import clear_caches, compile_program
    from repro.errors import ScheduleError

    def run():
        with repro.session(machine=machine) as s:
            with s.program() as p:
                build()
            if not len(p):
                return None
            if strategy is not None:
                try:
                    p[0].use_schedule(
                        auto_schedule(p[0].assignment, machine, strategy=strategy))
                except ScheduleError:
                    return None
            program = compile_program(p.schedules(), machine, backend=backend)
            for _ in range(runs):
                program.execute(s.runtime)
            return {
                t.name: weakref.ref(t)
                for stmt in p.statements for t in stmt.assignment.tensors()
            }

    refs = run()
    clear_caches()
    if refs is None:
        return None
    return [name for name, ref in refs.items() if ref() is not None]


def _run_release(cache: SourceCache) -> CheckResult:
    """Every auto-synthesized statement, and the captured fusable program,
    frees its operands and output without a collection (see the module
    docstring); enumerated from the kernel table like ``commplan``."""
    import gc
    import itertools

    from repro.core import SPECS
    from repro.legion import Machine

    findings: List[Finding] = []
    checked = 0

    def check_one(combo, *args):
        nonlocal checked
        alive = _unreleased(*args)
        if alive is None:
            return
        checked += 1
        if alive:
            findings.append(Finding(
                "src/repro/taco/tensor.py", None,
                f"statement {combo} leaves {', '.join(alive)} to the cyclic "
                "collector: something it ran holds them in a reference cycle",
            ))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for machine_kind, backend in itertools.product(
            ("cpu", "gpu"), ("codegen", "interp")
        ):
            machine = Machine.gpu(4) if machine_kind == "gpu" else Machine.cpu(4)
            where = f"{machine_kind}/{backend}"
            for spec in SPECS.values():
                for fmt, strategy in itertools.product(spec.formats, spec.strategies):
                    check_one(
                        f"{spec.kind}/{fmt.name}/{strategy}/{where}",
                        lambda: _commplan_workload(spec.kind, fmt),
                        machine, backend, strategy, 4,
                    )
            check_one(f"program/{where}", lambda: _fusable_chain(machine),
                      machine, backend)
            check_one(f"assembled-chain/{where}", _assembled_chain,
                      machine, backend, None, 3)
    finally:
        if was_enabled:
            gc.enable()
    return CheckResult(
        "release", findings,
        f"{checked} statements free their operands without a collection",
    )


# --------------------------------------------------------------------- #
# registry + CLI
# --------------------------------------------------------------------- #
PLUGINS: List[Plugin] = [
    Plugin("lock", "shared state mutates only under its designated lock",
           _run_lock),
    Plugin("docs", "every public module carries a real docstring",
           _run_docs),
    Plugin("exports", "repro.__all__ matches the documented API surface",
           _run_exports),
    Plugin("nondet", "deterministic layers free of unseeded RNG and "
           "unwaived wall-clock reads", _run_nondet),
    Plugin("kernelspec", "no .kind compared against a kernel-kind literal "
           "outside the kernel table; no format named in the dispatch layers; "
           "no level-type switch outside repro/taco; no unwaived index list "
           "under core/; no hand-built schedule under bench/", _run_kernelspec),
    Plugin("no-exec", "no exec / eval / compile under src/repro; the private "
           "SciPy surface at one site; codegen and kernels read no "
           "environment", _run_no_exec),
    Plugin("residency", "a region's residency table is written only through "
           "its class; the runtime names nothing by id(); the kernel cache "
           "is the one module-level _SizedLRU", _run_residency),
    Plugin("schedule", "a schedule's fields are written only by "
           "taco/schedule.py, a compiled kernel's only by core/compiler.py "
           "(its cache key by core/cache.py)", _run_schedule),
    Plugin("commplan", "auto-synthesized schedules yield coherent static "
           "communication plans", _run_commplan),
    Plugin("fusion", "fusable SDDMM→SpMM chains fuse into coherent static "
           "plans", _run_fusion),
    Plugin("release", "statements free their operands without the cyclic "
           "collector", _run_release),
    Plugin("examples", "every examples/*.py runs clean (subprocesses)",
           _run_examples, slow=True),
    Plugin("hypothesis", "the property tests pass under the larger-budget "
           "Hypothesis profile (subprocess)", _run_hypothesis, slow=True),
]


def run_checks(names: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the named plugins (default: all fast ones) over one shared
    source cache; returns their results in registry order."""
    by_name = {p.name: p for p in PLUGINS}
    if names is None:
        selected = [p for p in PLUGINS if not p.slow]
    else:
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise KeyError(
                f"unknown check(s) {unknown}; available: {sorted(by_name)}"
            )
        selected = [by_name[n] for n in names]
    cache = SourceCache()
    return [p.run(cache) for p in selected]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="unified static-check runner (see module docstring)"
    )
    ap.add_argument("--list", action="store_true",
                    help="list registered plugins and exit")
    ap.add_argument("--only", type=str, default=None,
                    help="comma-separated plugin names to run")
    ap.add_argument("--all", action="store_true",
                    help="include slow plugins (examples and thorough-profile "
                         "Hypothesis subprocesses)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit results as a stable JSON document")
    args = ap.parse_args(argv)

    if args.list:
        for p in PLUGINS:
            tag = " [slow]" if p.slow else ""
            print(f"{p.name:14s} {p.description}{tag}")
        return 0

    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
    elif args.all:
        names = [p.name for p in PLUGINS]
    else:
        names = None  # fast default set
    try:
        results = run_checks(names)
    except KeyError as e:
        print(f"check: {e.args[0]}", file=sys.stderr)
        return 2

    if args.as_json:
        print(json.dumps({
            "version": JSON_SCHEMA_VERSION,
            "ok": all(r.ok for r in results),
            "checks": [r.to_json() for r in results],
        }, indent=2))
    else:
        for r in results:
            if r.ok:
                print(f"OK   {r.name}: {r.summary}")
            else:
                for f in r.findings:
                    print(f"FAIL {r.name}: {f}")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
