"""Tier-1 enforcement of the unified check runner (``tools/check.py``).

Running every fast plugin clean here wires the whole invariant set —
lock discipline, docstring coverage, the exported API surface, the
nondeterminism lint, the one-kernel-table lint and the AOT
template/sanitizer agreement — into the plain ``pytest`` loop.  The
self-tests pin the runner's own semantics (plugin selection, JSON schema
stability, exact-line findings from the nondet and kind-compare scanners)
so the enforcement cannot rot into a vacuous pass.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check  # noqa: E402


def test_every_fast_plugin_runs_clean_on_the_repo():
    results = check.run_checks()  # the default (fast) set
    failures = [
        f"{r.name}: {f}" for r in results for f in r.findings
    ]
    assert not failures, "\n".join(failures)
    # the fast set is every non-slow plugin, each producing a summary
    assert [r.name for r in results] == [
        p.name for p in check.PLUGINS if not p.slow
    ]
    assert all(r.summary for r in results)


def test_cli_all_fast_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check.py")],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK   lock" in proc.stdout


def test_json_schema_is_stable():
    results = check.run_checks(["lock", "nondet"])
    doc = {
        "version": check.JSON_SCHEMA_VERSION,
        "ok": all(r.ok for r in results),
        "checks": [r.to_json() for r in results],
    }
    doc = json.loads(json.dumps(doc))  # round-trips as plain JSON
    assert doc["version"] == 2  # v2: commplan plugin + nondet waivers
    assert set(doc) == {"version", "ok", "checks"}
    for entry in doc["checks"]:
        assert set(entry) == {"name", "ok", "summary", "findings"}
        for f in entry["findings"]:
            assert set(f) == {"file", "line", "message"}


def test_only_selects_and_rejects_unknown():
    (result,) = check.run_checks(["docs"])
    assert result.name == "docs"
    with pytest.raises(KeyError):
        check.run_checks(["no-such-check"])


def test_cli_only_unknown_exits_two_listing_names():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check.py"),
         "--only", "bogus,nondet,also-bogus"],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    # the message names every unknown plugin and the registry to pick from
    assert "bogus" in proc.stderr and "also-bogus" in proc.stderr
    for p in check.PLUGINS:
        assert p.name in proc.stderr


def test_list_names_every_plugin():
    names = {p.name for p in check.PLUGINS}
    assert {"lock", "docs", "exports", "nondet", "kernelspec",
            "aot-sanitizer", "commplan", "release", "examples"} <= names
    # the commplan planner coherence sweep runs in the fast (tier-1) set
    assert "commplan" in {p.name for p in check.PLUGINS if not p.slow}
    # the slow plugins are the two subprocess runners
    assert [p.name for p in check.PLUGINS if p.slow] == ["examples", "hypothesis"]


def test_release_sweep_names_a_statement_that_keeps_a_back_reference(monkeypatch):
    """Seeded violation: an output that holds its own ``Assignment`` (whose
    ``lhs.tensor`` is the output again) survives until a collection, and
    drags its operands along; the sweep must name the statement and them."""
    workload = check._commplan_workload

    def cyclic_spmv(kind, fmt):
        out = workload(kind, fmt)
        if kind == "spmv":
            out.kept = out.assignment
        return out

    monkeypatch.setattr(check, "_commplan_workload", cyclic_spmv)
    (result,) = check.run_checks(["release"])
    assert not result.ok
    messages = [f.message for f in result.findings]
    assert all("statement spmv/" in m for m in messages)
    assert any("spmv/CSR/rows/cpu/codegen leaves a, B, c" in m for m in messages)
    import gc

    assert gc.isenabled()  # the sweep restores the collector


def test_hypothesis_profiles_make_the_verdict_run_and_host_independent():
    """tests/conftest.py registers them; ``check.py --all`` selects the
    larger one through the ``hypothesis`` plugin."""
    from hypothesis import settings

    tier1, thorough = settings.get_profile("tier1"), settings.get_profile("thorough")
    assert tier1.derandomize and tier1.deadline is None and tier1.database is None
    assert thorough.deadline is None and thorough.database is None
    assert thorough.max_examples == 10 * tier1.max_examples
    # whichever of the two this run was started with is in force
    assert settings().deadline is None and settings().database is None


class TestNondetScanner:
    def _scan(self, source):
        return check._scan_nondet("fake.py", source, ast.parse(source))

    def test_flags_unseeded_random_and_wallclock_with_lines(self):
        src = (
            "import numpy as np\n"
            "import time\n"
            "def kernel(x):\n"
            "    noise = np.random.random(x.shape)\n"   # line 4
            "    t0 = time.perf_counter()\n"            # line 5
            "    return noise, t0\n"
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [4, 5]
        assert "unseeded randomness" in findings[0].message
        assert "wall-clock" in findings[1].message

    def test_seeded_generator_is_the_documented_fix(self):
        src = (
            "import numpy as np\n"
            "def kernel(x, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
        )
        # default_rng construction itself is allowed...
        flagged = [f for f in self._scan(src) if "default_rng" in f.message]
        assert not flagged

    def test_clean_kernel_produces_no_findings(self):
        src = (
            "import numpy as np\n"
            "def kernel(vals, out):\n"
            "    out[...] = np.add.reduce(vals)\n"
        )
        assert self._scan(src) == []

    def test_seeded_generator_methods_are_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def build(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random(n)\n"
        )
        assert self._scan(src) == []

    def test_waiver_with_reason_silences_the_finding(self):
        src = (
            "import time\n"
            "def bench():\n"
            "    return time.perf_counter()"
            "  # nondet: ok measures host overhead\n"
        )
        assert self._scan(src) == []

    def test_waiver_without_reason_is_itself_a_finding(self):
        src = (
            "import time\n"
            "def bench():\n"
            "    return time.perf_counter()  # nondet: ok\n"
        )
        findings = self._scan(src)
        assert len(findings) == 1
        assert "without a reason" in findings[0].message

    def test_scipy_sparse_random_needs_random_state(self):
        src = (
            "import scipy.sparse as sp\n"
            "import numpy as np\n"
            "def build(n, rng):\n"
            "    bad = sp.random(n, n, density=0.1)\n"
            "    good = sp.random(n, n, density=0.1, random_state=rng)\n"
            "    return bad, good\n"
        )
        findings = self._scan(src)
        assert [f.line for f in findings] == [4]
        assert "random_state" in findings[0].message


def test_lint_plugins_have_no_cli_of_their_own(capsys):
    # lock/docs/exports run through the runner; the modules behind them
    # are importable rule tables and checkers, not scripts
    import api_check
    import docs_check
    import lock_check

    assert check.main(["--only", "lock,docs,exports"]) == 0, (
        capsys.readouterr().out
    )
    for module in (lock_check, docs_check, api_check):
        assert not hasattr(module, "main")


class TestKindCompareScanner:
    KINDS = {"spmv", "spmm", "generic"}

    def _scan(self, source):
        return check._scan_kind_compares(
            "fake.py", source, ast.parse(source), self.KINDS
        )

    def test_flags_kind_compared_against_kind_literals(self):
        src = (
            "def f(ck, kc):\n"
            "    if ck.kind == 'spmv':\n"                     # line 2
            "        return 1\n"
            "    if kc.kind in ('spmm', 'generic'):\n"        # line 4
            "        return 2\n"
            "    return 'spmv' != kc.kind\n"                  # line 6
        )
        findings = self._scan(src)
        assert [f.line for f in findings] == [2, 4, 6]
        assert "'generic', 'spmm'" in findings[1].message

    def test_other_kinds_and_lookups_are_not_flagged(self):
        src = (
            "def f(ck, machine, SPECS):\n"
            "    if machine.kind == 'gpu':\n"     # not a kernel kind
            "        return SPECS[ck.kind]\n"     # the table lookup
            "    return ck.kind == other.kind\n"  # no literal
        )
        assert self._scan(src) == []

    def test_waiver_needs_a_reason(self):
        ok = "x = ck.kind == 'spmv'  # kind: ok manifest filter, not behaviour\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("x = ck.kind == 'spmv'  # kind: ok\n")
        assert "without a reason" in finding.message


class TestFormatNameScanner:
    """The other half of the ``kernelspec`` plugin: the dispatch layers
    walk level types; none may name a format."""

    def _scan(self, source):
        return check._scan_format_names("fake.py", source, ast.parse(source))

    def test_flags_format_name_literals_in_any_case(self):
        src = (
            "def f(fmt, key):\n"
            "    if fmt == 'csf3':\n"                        # line 2
            "        return ('spttv', \"DDC\", 'rows')\n"    # line 3
            "    return {'csr': 1}.get(key, 'Csc')\n"         # line 4 (twice)
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [2, 3, 4, 4]
        assert "'csf3'" in findings[0].message

    def test_objects_substrings_and_docs_are_not_flagged(self):
        src = (
            '"""Walks CSR and CSF3 stacks alike."""\n'
            "from repro.taco.formats import CSR, DDC\n"
            "formats = (CSR, DDC)\n"
            "x = t.csr_arrays()\n"
            "name = 'csr_rows'\n"
        )
        assert self._scan(src) == []

    def test_waiver_needs_a_reason(self):
        ok = "x = m.format == 'csc'  # format: ok SciPy's own attribute\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("x = m.format == 'csc'  # format: ok\n")
        assert "without a reason" in finding.message

    def test_only_the_dispatch_layers_are_scanned(self):
        assert "src/repro/core/kernelspec.py".startswith(check.FORMAT_NAME_ROOTS)
        assert "src/repro/codegen/lowering.py".startswith(check.FORMAT_NAME_ROOTS)
        assert not "src/repro/taco/tensor.py".startswith(check.FORMAT_NAME_ROOTS)


class TestLevelSwitchScanner:
    """The third part of the ``kernelspec`` plugin: only ``repro/taco`` may
    ask what type a storage level is."""

    def _scan(self, source):
        return check._scan_level_switches("fake.py", source, ast.parse(source))

    def test_flags_isinstance_on_a_level_class_bare_dotted_or_in_a_tuple(self):
        src = (
            "def f(lvl, t):\n"
            "    if isinstance(lvl, CompressedLevel):\n"                 # line 2
            "        return 1\n"
            "    if not isinstance(lvl, tensor.DenseLevel):\n"           # line 4
            "        return 2\n"
            "    return isinstance(t.levels[1], (int, DenseLevel))\n"    # line 6
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [2, 4, 6]
        assert "fake.py:2: level-type switch outside the level classes" in str(findings[0])

    def test_constructing_and_other_isinstance_are_not_flagged(self):
        src = (
            "from ..taco.tensor import CompressedLevel, DenseLevel\n"
            "out.levels = [DenseLevel(n, n), CompressedLevel(pos, crd)]\n"
            "ok = isinstance(s, RectSubset) and lvl.is_dense\n"
        )
        assert self._scan(src) == []

    def test_waiver_needs_a_reason(self):
        ok = "x = isinstance(l, DenseLevel)  # level: ok a debugging repr\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("x = isinstance(l, DenseLevel)  # level: ok\n")
        assert "without a reason" in finding.message

    def test_everything_but_the_taco_package_is_scanned(self):
        assert "src/repro/taco/levels.py".startswith(check.LEVEL_CLASS_HOME)
        assert not "src/repro/core/assembly.py".startswith(check.LEVEL_CLASS_HOME)


class TestGeneratedCodeBoundary:
    """The static assertions of the ``aot-sanitizer`` plugin."""

    def test_store_importing_an_exec_surface_is_flagged(self):
        src = (
            "import json\n"
            "from ..errors import StoreError\n"
            "from . import cache as _cache\n"
            "from ..analysis.sanitizer import verify_aot_source\n"   # line 4
            "def load(path):\n"
            "    from ..codegen import registry\n"                   # line 6
            "    from .. import analysis\n"                          # line 7
            "    import repro.codegen.lowering\n"                    # line 8
        )
        findings = check._scan_imports(
            "src/repro/core/store.py", ast.parse(src),
            check.STORE_FORBIDDEN_IMPORTS,
        )
        assert [f.line for f in findings] == [4, 6, 7, 8]
        assert "repro.analysis.sanitizer.verify_aot_source" in findings[0].message
        assert "repro.codegen.registry" in findings[1].message

    def test_environment_reads_are_flagged(self):
        src = (
            "import os\n"
            "from os import getenv\n"                                # line 2
            "def backend(explicit=None):\n"
            "    if os.environ.get('REPRO_CODEGEN') == '0':\n"       # line 4
            "        return 'interp'\n"
            "    return explicit or os.getenv('X', 'codegen')\n"     # line 6
            "def clean(path):\n"
            "    return os.path.join(path, 'environ')\n"
        )
        findings = check._scan_environ_reads("fake.py", ast.parse(src))
        assert sorted(f.line for f in findings) == [2, 4, 6]

    def test_sparsetools_named_outside_its_two_sites_is_flagged(self):
        src = (
            '"""Prose may say scipy.sparse._sparsetools freely."""\n'
            "import scipy.sparse._sparsetools as st\n"              # line 2
            "from scipy.sparse import _sparsetools\n"               # line 3
            "from scipy.sparse._sparsetools import csr_matvec\n"    # line 4
            "def f(sp):\n"
            "    return sp.sparse._sparsetools.csr_matvecs\n"       # line 6
            "LINE = 'from scipy.sparse._sparsetools import coo_tocsr\\n'\n"  # 7
            "NOTE = 'see _sparsetools'\n"
        )
        tree = ast.parse(src)
        findings = check._scan_sparsetools("src/repro/kernels/spmm.py", tree)
        assert sorted(f.line for f in findings) == [2, 3, 4, 6, 7]
        assert "src/repro/kernels/segment.py" in findings[0].message
        # each site may hold its own form, and only that one
        at_import_site = check._scan_sparsetools(check.SPARSETOOLS_IMPORT_SITE, tree)
        assert [f.line for f in at_import_site] == [7]
        at_emit_site = check._scan_sparsetools(check.SPARSETOOLS_EMIT_SITE, tree)
        assert sorted(f.line for f in at_emit_site) == [2, 3, 4, 6]

    def test_generated_module_importing_more_of_scipy_is_flagged(self):
        src = (
            "import numpy as np\n"
            "from scipy.sparse._sparsetools import csr_matvec, csr_matvecs\n"
            "import scipy.sparse as sp\n"
            "from scipy.sparse import csr_matrix\n"
            "from scipy.sparse._sparsetools import coo_tocsr\n"
        )
        findings = check._scan_generated_scipy_imports("spmm/rows", ast.parse(src))
        assert [f.message.split()[3].rstrip(":") for f in findings] == [
            "scipy.sparse", "scipy.sparse.csr_matrix",
            "scipy.sparse._sparsetools.coo_tocsr",
        ]
        assert all("spmm/rows" in f.message for f in findings)

    def test_bincount_in_a_template_is_flagged(self):
        text = (
            "_BODY = \'\'\'\n"
            "def thunk():\n"
            "    ov[:] = np.bincount(rows, weights=v * c[cc], minlength=nr)\n"
            "\'\'\'\n"
        )
        findings = check._scan_bincount("src/repro/codegen/lowering.py", text)
        assert [f.line for f in findings] == [3]
