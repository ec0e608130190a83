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
  exact lines, because generated kernels, their templates and the static
  analyzers must be reproducible functions of their inputs.  An
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
  format is a method of its class.  Waiver: ``# level: ok <reason>``;
* **aot-sanitizer** — generated code comes from the templates and from
  nowhere else: every lowering template the kernel table declares must
  emit and pass the generated-module AST allowlist
  (:mod:`repro.analysis.sanitizer`); the artifact load path
  (``core/store.py``, ``core/store_index.py``) imports neither
  :mod:`repro.codegen` nor :mod:`repro.analysis`, so nothing read from
  disk can reach ``exec``; nothing under ``src/repro/codegen`` or in
  the sanitizer reads the process environment; and the private SciPy
  surface the leaves run on stays pinned in one place —
  ``scipy.sparse._sparsetools`` is named by code only in
  ``kernels/segment.py`` (the checked import) and on the one import line
  ``codegen/lowering.py`` writes into generated modules, a generated
  module imports from SciPy nothing but ``csr_matvec`` / ``csr_matvecs``,
  and no template reduces with ``np.bincount``;
* **commplan** — every (kernel × sweep format × strategy × machine kind)
  the kernel table declares must yield a coherent static communication plan
  (:mod:`repro.analysis.commplan`): the plan derives without error and
  reports no privilege-incoherent distribution and no
  missing-``communicate`` duplicate transfers;
* **fusion** — the seeded SDDMM→SpMM chain must fuse, and the fused
  statement must plan coherently under each of its legal strategies.
* **release** — no statement keeps its operands for the cyclic
  collector: with ``gc`` disabled, every (kernel × sweep format ×
  strategy × machine kind × backend) the kernel table declares, and the
  captured SDDMM→SpMM program, is run twice on a fresh session (the
  assembled ``A = B + C + D; y = A c`` chain, whose SpAdd kernel keeps an
  assembly plan and whose output keeps its regions, three times); once the
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

JSON_SCHEMA_VERSION = 2

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
#: ``# <tag>: ok <reason>`` (tags: ``nondet``, ``kind``); the reason is
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
        if relpath in KERNELSPEC_EXEMPT:
            continue
        findings.extend(_scan_kind_compares(relpath, text, tree, kinds))
        scanned += 1
    return CheckResult(
        "kernelspec", findings,
        f"{scanned} modules under src/repro branch on no kernel kind by "
        f"name, the dispatch layers name no format and no module outside "
        f"repro/taco switches on a level class; {len(SPECS)} kinds live in "
        "the kernel table",
    )


# --------------------------------------------------------------------- #
# generated code: templates pass the allowlist, no other way in
# --------------------------------------------------------------------- #
#: the artifact load path, and the packages it must not import — the ones
#: that can ``exec`` (the sanitizer is re-exported by ``repro.analysis``,
#: so the whole package is off limits).
STORE_MODULES = ("src/repro/core/store.py", "src/repro/core/store_index.py")
STORE_FORBIDDEN_IMPORTS = ("repro.codegen", "repro.analysis")


def _scan_imports(
    relpath: str, tree: ast.Module, forbidden: Tuple[str, ...]
) -> List[Finding]:
    """Imports in ``relpath`` (anywhere, relative ones resolved against its
    package) of a ``forbidden`` module or anything inside one."""
    package = relpath[len("src/"):-len(".py")].split("/")[:-1]
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            if any(name == f or name.startswith(f + ".") for f in forbidden):
                findings.append(Finding(
                    relpath, node.lineno,
                    f"imports {name}: the artifact load path must not be "
                    "able to reach exec",
                ))
    return findings


def _scan_environ_reads(relpath: str, tree: ast.Module) -> List[Finding]:
    """``os.environ`` / ``os.getenv`` uses: which code is generated and
    whether it runs is decided by arguments, never by the environment."""
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


#: where code may name ``scipy.sparse._sparsetools``: the checked import,
#: and the import line the emitter writes into generated modules.
SPARSETOOLS_IMPORT_SITE = "src/repro/kernels/segment.py"
SPARSETOOLS_EMIT_SITE = "src/repro/codegen/lowering.py"
SPARSETOOLS_NAMES = ("csr_matvec", "csr_matvecs")


def _scan_sparsetools(relpath: str, tree: ast.Module) -> List[Finding]:
    """Code that names ``_sparsetools`` — an import, an attribute access,
    or a string that is an import line for generated source — outside the
    site that may (docstrings and prose are not code)."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = any("_sparsetools" in a.name for a in node.names)
            site = SPARSETOOLS_IMPORT_SITE
        elif isinstance(node, ast.ImportFrom):
            named = "_sparsetools" in (node.module or "") or any(
                a.name == "_sparsetools" for a in node.names)
            site = SPARSETOOLS_IMPORT_SITE
        elif isinstance(node, ast.Attribute):
            named, site = node.attr == "_sparsetools", SPARSETOOLS_IMPORT_SITE
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = any(
                "_sparsetools" in line and line.split()[:1] in (["from"], ["import"])
                for line in node.value.splitlines()
            )
            site = SPARSETOOLS_EMIT_SITE
        else:
            continue
        if named and relpath != site:
            findings.append(Finding(
                relpath, node.lineno,
                "names scipy.sparse._sparsetools: the private SciPy surface "
                f"is pinned at {SPARSETOOLS_IMPORT_SITE} (import the "
                "primitive from there) and on the one import line "
                f"{SPARSETOOLS_EMIT_SITE} emits",
            ))
    return findings


def _scan_generated_scipy_imports(combo: str, tree: ast.Module) -> List[Finding]:
    """A generated module's SciPy imports: ``from
    scipy.sparse._sparsetools import`` the two pinned names, nothing else."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            bad = [
                f"{node.module}.{a.name}" for a in node.names
                if node.module != "scipy.sparse._sparsetools"
                or a.name not in SPARSETOOLS_NAMES
            ]
        else:
            continue
        for name in bad:
            findings.append(Finding(
                SPARSETOOLS_EMIT_SITE, None,
                f"template {combo} imports {name}: generated modules take "
                f"from SciPy only {' / '.join(SPARSETOOLS_NAMES)}",
            ))
    return findings


def _scan_bincount(relpath: str, text: str) -> List[Finding]:
    """``bincount`` anywhere in the emitter, template strings included: every
    reducing template runs on the segment-reduce primitive."""
    return [
        Finding(relpath, n, "np.bincount in a lowering template — reduce "
                "with csr_matvec / csr_matvecs over the segment boundaries, "
                "as the interpreter leaves do (repro.kernels.segment)")
        for n, line in enumerate(text.splitlines(), 1) if "bincount" in line
    ]


def _run_aot_sanitizer(cache: SourceCache) -> CheckResult:
    """Every template the kernel table declares must emit and pass the
    allowlist; the store cannot import an ``exec`` surface; codegen and
    the sanitizer take no orders from the environment."""
    from repro.analysis.sanitizer import verify_aot_source
    from repro.codegen import lowering
    from repro.core.kernelspec import SPECS
    from repro.errors import SanitizerError

    findings = []
    for relpath in STORE_MODULES:
        findings.extend(_scan_imports(
            relpath, cache.get(relpath)[1], STORE_FORBIDDEN_IMPORTS))
    env_free = sorted(
        str(p.relative_to(REPO)) for p in (SRC / "repro/codegen").rglob("*.py")
    ) + ["src/repro/analysis/sanitizer.py"]
    for relpath in env_free:
        findings.extend(_scan_environ_reads(relpath, cache.get(relpath)[1]))
    for path in sorted((SRC / "repro").rglob("*.py")):
        relpath = str(path.relative_to(REPO))
        findings.extend(_scan_sparsetools(relpath, cache.get(relpath)[1]))
    findings.extend(_scan_bincount(
        SPARSETOOLS_EMIT_SITE, cache.get(SPARSETOOLS_EMIT_SITE)[0]))
    checked = 0
    # kinds that iterate alike declare the same (shape, strategy) key
    for shape, strategy in sorted(
        {key for spec in SPECS.values() for key in spec.template_keys()}
    ):
        combo = f"{shape}/{strategy}"
        try:
            tree = verify_aot_source(
                lowering.emit_source(shape, strategy), filename=combo)
            findings.extend(_scan_generated_scipy_imports(combo, tree))
        except KeyError:
            problem = "is declared by the kernel table but has no template"
        except SanitizerError as e:
            problem = f"fails the sanitizer allowlist: {e}"
        else:
            checked += 1
            continue
        findings.append(Finding(
            "src/repro/codegen/lowering.py", None, f"template {combo} {problem}"
        ))
    return CheckResult(
        "aot-sanitizer", findings,
        f"{checked} generated templates pass the exec-load allowlist; "
        f"{len(STORE_MODULES)} store modules import no exec surface; "
        f"{len(env_free)} codegen modules read no environment; "
        "scipy.sparse._sparsetools is named at its two sites only",
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
    derive, with no error-severity diagnostic (privilege-incoherent
    distribution) and no missing-``communicate`` duplicate transfer.

    ``RedundantCommunicate`` is advisory — whether a placement moves data
    depends on residency state, so a cold plan legitimately reports
    auto-inserted ``communicate`` placements as idle — and is not flagged.
    """
    from repro.analysis.commplan import commplan_diagnostics, communication_plan
    from repro.errors import MissingCommunicate

    where = "src/repro/analysis/commplan.py"
    try:
        plan = communication_plan(sched, machine)
        diags = commplan_diagnostics(sched, machine, plan=plan)
    except Exception as e:  # a plan must always derive
        return [Finding(
            where, None,
            f"schedule {combo} has no static plan: {type(e).__name__}: {e}",
        )]
    return [
        Finding(where, None, f"schedule {combo} is incoherent: {d}")
        for d in diags
        if d.severity == "error" or d.error_type is MissingCommunicate
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
def _fusable_chain(machine):
    """A seeded SDDMM→SpMM chain as auto-scheduled statements."""
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
    return [
        auto_schedule(E.assignment, machine),
        auto_schedule(H.assignment, machine),
    ]


def _run_fusion(cache: SourceCache) -> CheckResult:
    """Every synthesized fusable chain must fuse into a coherent plan.

    On both machine kinds, the pass pipeline must fuse the seeded
    SDDMM→SpMM chain into one ``fused_sddmm_spmm`` statement, and under
    each of the fused kind's legal strategies that statement's static
    communication plan must be coherent (:func:`_plan_findings`).
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
    run as the program the session captures, the first under ``strategy``
    when one is named.  ``None`` when nothing ran (no statement written, or
    the strategy is not synthesizable here)."""
    import weakref

    import repro
    from repro.api.autoschedule import auto_schedule
    from repro.core import clear_caches
    from repro.errors import ScheduleError

    def run():
        with repro.session(machine=machine, backend=backend) as s:
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
            for _ in range(runs):
                p.run()
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
                        machine, backend, strategy,
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
           "no level-type switch outside repro/taco", _run_kernelspec),
    Plugin("aot-sanitizer", "templates pass the exec-load allowlist; the "
           "store imports no exec surface; codegen reads no environment",
           _run_aot_sanitizer),
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
