"""Tier-1 enforcement of the unified check runner (``tools/check.py``).

Running every fast plugin clean here wires the whole invariant set —
lock discipline, docstring coverage, the exported API surface, the
nondeterminism lint, the one-kernel-table lint, the no-exec scan, the
residency-writer scan and the schedule- and kernel-writer scans —
into the plain ``pytest`` loop.  The self-tests pin the runner's own
semantics (plugin selection, JSON schema stability, exact-line findings
from every scanner)
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
    assert doc["version"] == 4  # v3: no-exec replaces aot-sanitizer; v4: residency
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
            "no-exec", "residency", "schedule", "commplan", "release",
            "examples"} <= names
    assert "aot-sanitizer" not in names
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
        assert "src/repro/codegen/__init__.py".startswith(check.FORMAT_NAME_ROOTS)
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


class TestIndexListScanner:
    """The fourth part of the ``kernelspec`` plugin: the compiler's cold
    path reads level structure, so ``core/`` materializes no subset's
    index list."""

    def _scan(self, source):
        return check._scan_index_lists("fake.py", source, ast.parse(source))

    def test_flags_indices_calls_with_lines(self):
        src = (
            "def windows(lvl, part, c):\n"
            "    vals = lvl.coord_of(part[c].indices())\n"           # line 2
            "    idx = subset.indices()\n"                           # line 3
            "    return vals.min(), idx[-1], part.level_positions[0][c].indices()\n"  # 4
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [2, 3, 4]
        assert "fake.py:2: .indices() materializes a subset's index list" in str(findings[0])

    def test_views_bounds_and_other_indices_are_not_flagged(self):
        src = (
            "key = subset.as_slice()\n"
            "lo, hi = lvl.coord_bounds(subset)\n"
            "n = len(out.indices)\n"                 # an attribute, not a call
            "i = acc.indices.index(var)\n"
            "rows = np.indices((2, 3))\n"            # takes arguments
        )
        assert self._scan(src) == []

    def test_waiver_needs_a_reason(self):
        ok = "idx = s.indices()  # nnz: ok an ArraySubset's own array\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("idx = s.indices()  # nnz: ok\n")
        assert "nnz waiver without a reason" in finding.message

    def test_only_the_compiler_and_dependent_partitioning_are_scanned(self):
        assert "src/repro/core/compiler.py".startswith(check.INDEX_LIST_ROOT)
        assert "src/repro/legion/dependent.py".startswith(check.INDEX_LIST_ROOT)
        assert not "src/repro/legion/region.py".startswith(check.INDEX_LIST_ROOT)

    def test_dependent_partitioning_lists_only_an_index_list_colour(self):
        """The array paths build no index list: the one ``.indices()`` in
        dependent partitioning is ``preimage``'s colour that already is
        one, and it carries the only waiver."""
        relpath = "src/repro/legion/dependent.py"
        text = (REPO / relpath).read_text()
        assert check._scan_index_lists(relpath, text, ast.parse(text)) == []
        bare = text.replace("  # nnz: ok", "  #")
        lines = [f.line for f in check._scan_index_lists(relpath, bare, ast.parse(bare))]
        assert lines == [198]
        assert text.splitlines()[197].strip().startswith("targets = subset.indices()")


class TestScheduleCallScanner:
    """The fifth part of the ``kernelspec`` plugin: the benchmarks run the
    schedules ``auto_schedule`` synthesizes, so ``bench/`` builds none."""

    def _scan(self, source):
        return check._scan_schedule_calls("fake.py", source, ast.parse(source))

    def test_flags_schedule_building_calls_with_lines(self):
        src = (
            "def run(a, i, io, ii, n):\n"
            "    s = a.schedule().divide(i, io, ii, n)\n"               # line 2
            "    s = s.distribute(io)\n"                                # line 3
            "    return (a.schedule().fuse(i, j, f)\n"                  # line 4
            "            .pos(f, fp, B[i, j]))\n"                       # line 5
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [2, 3, 4, 5]
        assert "fake.py:2: .divide() builds a schedule by hand" in str(findings[0])
        assert ".distribute()" in findings[1].message

    def test_synthesized_schedules_and_other_calls_are_not_flagged(self):
        src = (
            "s = auto_schedule(a, machine, strategy='rows')\n"
            "uni = distribute(B, 'B(x,y) -> M(x)', mach)\n"     # a function
            "q = x.divide\n"                                    # no call
            "s = s.communicate(C, s.divide_rel_of(s.distributed[0]).inner)\n"
            "s.communicate([a, B], io).parallelize(ii)\n"
        )
        assert self._scan(src) == []

    def test_waiver_needs_a_reason(self):
        ok = "s = s.divide(i, io, ii, 2)  # schedule: ok a one-off grid probe\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("s = s.divide(i, io, ii, 2)  # schedule: ok\n")
        assert "schedule waiver without a reason" in finding.message

    def test_only_the_benchmarks_are_scanned(self):
        assert "src/repro/bench/figures.py".startswith(check.SCHEDULE_FREE_ROOT)
        assert not "src/repro/api/autoschedule.py".startswith(
            check.SCHEDULE_FREE_ROOT)


class TestNoExecScanners:
    """The static assertions of the ``no-exec`` plugin."""

    def test_exec_eval_and_compile_calls_are_flagged(self):
        src = (
            "import builtins, re\n"
            "def load(text, session):\n"
            "    code = compile(text, '<leaf>', 'exec')\n"            # line 3
            "    exec(code, {})\n"                                    # line 4
            "    x = eval('1 + 1')\n"                                 # line 5
            "    builtins.exec(text)\n"                               # line 6
            "    pat = re.compile('x')\n"                             # a method
            "    kernel = session.compile()\n"                        # a method
            "    run = exec\n"                                        # no call
            "    return 'exec(text)'\n"                               # a string
        )
        findings = check._scan_exec_calls("src/repro/x.py", ast.parse(src))
        assert [f.line for f in findings] == [3, 4, 5, 6]
        assert "calls builtins.exec()" in findings[3].message
        assert str(findings[0]).startswith("src/repro/x.py:3: calls compile()")

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

    def test_environment_reads_are_flagged_anywhere_under_src(self):
        planted = "import os\nROOT = os.environ.get('STORE_ROOT')\n"
        cache = check.SourceCache()
        cache._cache["src/repro/bench/warmstore.py"] = (planted, ast.parse(planted))
        result = check._run_no_exec(cache)
        assert [(f.file, f.line) for f in result.findings] == [
            ("src/repro/bench/warmstore.py", 2)]

    def test_sparsetools_named_outside_its_site_is_flagged(self):
        src = (
            '"""Prose may say scipy.sparse._sparsetools freely."""\n'
            "import scipy.sparse._sparsetools as st\n"              # line 2
            "from scipy.sparse import _sparsetools\n"               # line 3
            "from scipy.sparse._sparsetools import csr_matvec\n"    # line 4
            "def f(sp):\n"
            "    return sp.sparse._sparsetools.csr_matvecs\n"       # line 6
            "LINE = 'from scipy.sparse._sparsetools import coo_tocsr'\n"
            "from .segment import csr_matvec\n"                    # the fix
        )
        tree = ast.parse(src)
        findings = check._scan_sparsetools("src/repro/kernels/spmm.py", tree)
        assert sorted(f.line for f in findings) == [2, 3, 4, 6]
        assert "src/repro/kernels/segment.py" in findings[0].message
        assert check._scan_sparsetools(check.SPARSETOOLS_IMPORT_SITE, tree) == []

    def test_bincount_beside_a_bind_function_is_flagged(self):
        src = (
            '"""No bincount here, in prose."""\n'
            "import numpy as np\n"
            "from numpy import bincount\n"
            "def segdot_bind(pos, crd, vals, c, out, pieces, accumulate):\n"
            "    rows = np.repeat(np.arange(len(pos)), 2)\n"
            "    out[:] = np.bincount(rows, weights=vals)\n"         # line 6
            "    return bincount(rows)\n"                            # line 7
        )
        findings = check._scan_bincount("src/repro/kernels/spmv.py", ast.parse(src))
        assert [f.line for f in findings] == [6, 7]

    def test_the_bind_modules_are_the_tables(self):
        assert check._bind_modules() == [
            "src/repro/kernels/sddmm.py", "src/repro/kernels/spmm.py",
            "src/repro/kernels/spmttkrp.py", "src/repro/kernels/spmv.py",
        ]


class TestResidencyScanner:
    """The ``residency`` plugin: only the table's class writes its fields."""

    SRC = (
        "class _Residency:\n"
        "    def add(self, proc, piece):\n"
        "        self._row_pieces.append(piece)\n"                   # line 3
        "        self.whole = {}\n"                                  # line 4
        "class Runtime:\n"
        "    def place(self, res, proc, piece, d):\n"
        "        res.arrivals[proc] = 0\n"                           # line 7
        "        res.vol[proc] += 8\n"                               # line 8
        "        res._row_pieces.insert(0, piece)\n"                 # line 9
        "        res.span, res.starts = None, []\n"                  # line 10
        "        del res.owners[proc]\n"                             # line 11
        "        res._row_pieces.append(piece)\n"                    # line 12
        "        res.whole[id(d)]: tuple = (d, {})\n"                # line 13
        "        res.add(proc, piece)\n"                             # the fix
        "        d.owners = list(d.owners())\n"                      # line 15
        "        total = sum(res.vol.values()) + len(res.starts)\n"  # reads
        "        return res.whole.get(None), d.owners(), res.arrivals\n"
    )

    def test_writes_outside_the_class_are_flagged_with_lines(self):
        findings = check._scan_residency_writes(
            check.RESIDENCY_HOME[0], ast.parse(self.SRC))
        assert [f.line for f in findings] == [7, 8, 9, 10, 11, 12, 13, 15]
        assert "residency field 'span'" in findings[3].message
        assert str(findings[0]).startswith(
            "src/repro/legion/residency.py:7: writes the residency field 'arrivals'")

    def test_a_write_to_a_homes_table_is_flagged(self):
        """A region's homes are a residency table too: writing one's
        fields from the runtime is flagged like writing the live table's,
        reading it (``pieces``, ``owner``) is not."""
        src = (
            "def place(rt, uid, k, subset):\n"
            "    rt._home[uid].arrivals = k\n"                          # line 2
            "    homes = rt._home[uid]\n"
            "    homes.arrivals[0] = k\n"                               # line 4
            "    rt._home[uid].starts = rt._home[uid].starts[:k]\n"     # line 5
            "    rt._home[uid]._row_pieces.append(subset)\n"            # line 6
            "    del homes.vol[k]\n"                                    # line 7
            "    homes.first_home = k\n"                                # line 8
            "    homes.add(k, subset)\n"                                # the fix
            "    return homes.pieces(subset), homes.owner(subset)\n"
        )
        findings = check._scan_residency_writes("src/repro/legion/runtime.py", ast.parse(src))
        assert [f.line for f in findings] == [2, 4, 5, 6, 7, 8]
        assert "residency field 'arrivals'" in findings[0].message

    @pytest.mark.parametrize("field", check.RESIDENCY_FIELDS)
    def test_every_field_is_flagged(self, field):
        """Each field of the table — the index columns and the piece
        column among them — assigned, augmented, deleted, written by item
        or mutated in place outside the class."""
        src = "".join(f"def f(res, x):\n    {stmt}\n" for stmt in (
            f"res.{field} = x", f"res.{field} += x", f"del res.{field}",
            f"res.{field}[0] = x", f"res.{field}.append(x)"))
        findings = check._scan_residency_writes("src/repro/core/x.py", ast.parse(src))
        assert [f.line for f in findings] == [2, 4, 6, 8, 10]
        assert all(f"residency field {field!r}" in f.message for f in findings)

    def test_the_class_is_exempt_only_in_its_own_module(self):
        findings = check._scan_residency_writes("src/repro/core/x.py", ast.parse(self.SRC))
        assert [f.line for f in findings][:2] == [3, 4]
        assert check.RESIDENCY_HOME == ("src/repro/legion/residency.py", "_Residency")


class TestIdScanner:
    """The ``residency`` plugin's second part: nothing under
    ``src/repro/legion/`` names an object by ``id``, as traces and facts
    pickle."""

    def _scan(self, source):
        return check._scan_id_calls("src/repro/legion/fake.py", source, ast.parse(source))

    def test_id_calls_are_flagged_with_lines(self):
        src = (
            "def place(rt, region, partition, procs):\n"
            "    fact = (id(partition), procs)\n"                     # line 2
            "    key = partition.key[1]\n"                            # the fix
            "    return {id(region): fact}, self.id(key), region.uid\n"  # line 4
        )
        findings = self._scan(src)
        assert [f.line for f in findings] == [2, 4]
        assert str(findings[0]).startswith(
            "src/repro/legion/fake.py:2: id() names an object by its address")

    def test_waiver_needs_a_reason(self):
        ok = "seen = {id(r)}  # id: ok a set local to one call\n"
        assert self._scan(ok) == []
        (finding,) = self._scan("seen = {id(r)}  # id: ok\n")
        assert "id waiver without a reason" in finding.message

    def test_only_the_runtime_modules_are_scanned(self, monkeypatch):
        """The plugin scans legion/ only: an ``id(`` planted under core/
        is not reported."""
        planted = {"src/repro/legion/runtime.py": "x = id(p)\n",
                   "src/repro/core/compiler.py": "y = id(t)\n"}
        real = check.SourceCache.get

        def get(cache, relpath):
            text = planted.get(relpath)
            return real(cache, relpath) if text is None else (text, ast.parse(text))

        monkeypatch.setattr(check.SourceCache, "get", get)
        result = check._run_residency(check.SourceCache())
        assert [(f.file, f.line) for f in result.findings] == [
            ("src/repro/legion/runtime.py", 1)]


class TestModuleCacheScanner:
    """The ``residency`` plugin's third part: the kernel cache is the one
    module-level ``_SizedLRU`` under ``src/repro``; any other cache is a
    session's or a server's."""

    SRC = (
        "_kernel_cache = _SizedLRU(64, 512)\n"                     # line 1
        "_decision_cache = _SizedLRU(1, 4096)\n"                   # line 2
        "_tables = {'a': _cache._SizedLRU(1, 1)}\n"                # line 3
        "if True:\n"
        "    _late = _SizedLRU(1, 1)\n"                            # line 5
        "class Session:\n"
        "    def __init__(self):\n"
        "        self._frontdoor = _cache._SizedLRU(1, 256)\n"     # owned
        "def table():\n"
        "    return _SizedLRU(1, 1)\n"                             # owned
    )

    def _lines(self, relpath):
        return [f.line for f in check._scan_module_caches(relpath, ast.parse(self.SRC))]

    def test_module_level_caches_are_flagged_with_lines(self):
        assert self._lines(check.MODULE_CACHE[0]) == [2, 3, 5]
        (first, *_) = check._scan_module_caches(
            check.MODULE_CACHE[0], ast.parse(self.SRC))
        assert "module-level _SizedLRU" in first.message

    def test_the_kernel_cache_is_exempt_only_in_its_own_module(self):
        assert self._lines("src/repro/api/serving.py") == [1, 2, 3, 5]
        assert check.MODULE_CACHE == ("src/repro/core/cache.py", "_kernel_cache")


class TestScheduleScanner:
    """The ``schedule`` plugin: only ``taco/schedule.py`` writes a
    schedule's fields — a synthesized schedule is keyed by what built them."""

    # The copy-folding clone as it was written outside the class.
    SRC = (
        "def _forward_reads(old, a, b):\n"
        "    sched = Schedule.__new__(Schedule)\n"
        "    sched.assignment = old.assignment\n"                     # not a field
        "    sched.loop_order = list(old.loop_order)\n"               # line 4
        "    sched.relations = [r for r in old.relations]\n"          # line 5
        "    sched.distributed, sched.precomputed = [], []\n"         # line 6
        "    sched.communicated = dict(old.communicated)\n"           # line 7
        "    sched.parallelized[a] = b\n"                             # line 8
        "    sched.relations.append(a)\n"                             # line 9
        "    sched.communicated.setdefault(a, []).extend([b])\n"      # line 10
        "    del sched.loop_order[0]\n"                               # line 11
        "    return old.forward_reads(a, b), len(old.relations)\n"    # the fix, a read
    )

    def test_writes_outside_the_module_are_flagged_with_lines(self):
        findings = check._scan_schedule_writes("src/repro/core/passes.py",
                                               ast.parse(self.SRC))
        assert [f.line for f in findings] == [4, 5, 6, 7, 8, 9, 10, 11]
        assert str(findings[0]).startswith(
            "src/repro/core/passes.py:4: writes the schedule field 'loop_order'")
        assert "schedule field 'distributed'" in findings[2].message

    @pytest.mark.parametrize("field", check.SCHEDULE_FIELDS)
    def test_every_field_is_flagged(self, field):
        src = "".join(f"def f(s, x):\n    {stmt}\n" for stmt in (
            f"s.{field} = x", f"s.{field} += x", f"del s.{field}",
            f"s.{field}[0] = x", f"s.{field}.append(x)", f"s.{field}.update(x)"))
        findings = check._scan_schedule_writes("src/repro/api/x.py", ast.parse(src))
        assert [f.line for f in findings] == [2, 4, 6, 8, 10, 12]
        assert all(f"schedule field {field!r}" in f.message for f in findings)

    def test_only_the_schedule_module_is_exempt(self):
        tree = ast.parse(self.SRC)
        assert check._scan_schedule_writes(check.SCHEDULE_HOME, tree) == []
        assert check.SCHEDULE_HOME == "src/repro/taco/schedule.py"
        assert len(check._scan_schedule_writes("src/repro/taco/expr.py", tree)) == 8


class TestKernelScanner:
    """The ``schedule`` plugin's second part: only ``core/compiler.py``
    writes a compiled kernel's fields, and only ``core/cache.py`` its
    cache key — a cached kernel is shared under a key that names its
    schedule, so nothing sets its state after the compile."""

    # The batched benchmark as it was written: a cached kernel mutated.
    SRC = (
        "def batched(ck, backend, C, key):\n"
        "    ck._streamed.add(C)\n"                                    # line 2
        "    ck.backend = backend\n"                                   # line 3
        "    ck.parts[C], ck.privileges[C] = None, None\n"             # line 4
        "    ck.pieces.append(None)\n"                                 # line 5
        "    del ck.schedule\n"                                        # line 6
        "    ck.cache_key = key\n"                                     # line 7
        "    return ck.execute(ck.machine), ck.parts[C], ck.backend\n"  # reads
    )

    def _scan(self, relpath, source):
        return check._scan_kernel_writes(relpath, source, ast.parse(source))

    def test_writes_outside_the_compiler_are_flagged_with_lines(self):
        findings = self._scan("src/repro/bench/harness.py", self.SRC)
        assert [f.line for f in findings] == [2, 3, 4, 5, 6, 7]
        assert str(findings[0]).startswith(
            "src/repro/bench/harness.py:2: writes the kernel field '_streamed' "
            "outside src/repro/core/compiler.py")
        assert "outside src/repro/core/cache.py" in findings[-1].message

    @pytest.mark.parametrize("field", sorted(check.KERNEL_HOMES))
    def test_every_field_is_flagged(self, field):
        src = "".join(f"def f(ck, x):\n    {stmt}\n" for stmt in (
            f"ck.{field} = x", f"ck.{field} += x", f"del ck.{field}",
            f"ck.{field}[0] = x", f"ck.{field}.update(x)"))
        findings = self._scan("src/repro/api/x.py", src)
        assert [f.line for f in findings] == [2, 4, 6, 8, 10]
        assert all(f"kernel field {field!r}" in f.message for f in findings)

    def test_each_field_is_written_in_its_own_module_only(self):
        compiler = [f.line for f in self._scan("src/repro/core/compiler.py", self.SRC)]
        cache = [f.line for f in self._scan("src/repro/core/cache.py", self.SRC)]
        assert (compiler, cache) == ([7], [2, 3, 4, 5, 6])

    def test_waiver_needs_a_reason(self):
        ok = "entry.schedule = s  # kernel: ok a pass entry, not a kernel\n"
        assert self._scan("src/repro/core/passes.py", ok) == []
        (finding,) = self._scan("src/repro/core/passes.py", "entry.schedule = s  # kernel: ok\n")
        assert "kernel waiver without a reason" in finding.message

    def test_the_plugin_runs_the_scan(self, monkeypatch):
        """A kernel-field write planted under bench/ fails the plugin."""
        planted = {"src/repro/bench/harness.py": "ck.backend = 'interp'\n"}
        real = check.SourceCache.get

        def get(cache, relpath):
            text = planted.get(relpath)
            return real(cache, relpath) if text is None else (text, ast.parse(text))

        monkeypatch.setattr(check.SourceCache, "get", get)
        result = check._run_schedule(check.SourceCache())
        assert [(f.file, f.line) for f in result.findings] == [
            ("src/repro/bench/harness.py", 1)]
