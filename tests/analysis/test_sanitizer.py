"""AST allowlist sanitizer: what a kernel module's source may and may not do.

Positive side: hand-written module sources of the shapes the allowlist
admits — a reducing body on the two ``_sparsetools`` entry points, a
blocked gather with module constants — must pass.  Negative side: each
forbidden construct —
smuggled imports, dunder access, exec/eval/open, global mutation,
missing ``bind`` — is rejected with a :class:`SanitizerError` carrying
the exact line.
"""
import pytest

from repro.analysis.sanitizer import ALLOWED_IMPORT_ROOTS, verify_aot_source
from repro.errors import SanitizerError

GOOD = '''"""Generated by repro.codegen — test module."""
import numpy as np

META = {"generator": "repro.codegen", "version": 1}
_CHUNK = 1 << 18
_JITTED = [False]


def _helper(x):
    return np.asarray(x) * 2


def bind(vals, out, pieces, Work, jit=None):
    def thunk():
        out[...] = _helper(vals)
        return Work(1.0, 1.0)
    return {0: thunk}
'''

#: hand-written sources of the shapes a bound leaf takes
REDUCING = '''"""A segmented dot over the two pinned SciPy entry points."""
import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs


def bind(pos, crd, vals, c, out, pieces, accumulate):
    indptr = np.append(pos[:, 0], pos[-1:, 1] + 1)

    def over(lo, hi, w):
        ip = indptr[lo : hi + 2]

        def thunk():
            csr_matvec(ip.size - 1, c.shape[0], ip, crd, vals, c, out[lo : hi + 1])
            return w
        return thunk

    return {color: over(lo, hi, w) for color, lo, hi, w in pieces}, over
'''

BLOCKED = '''"""A blocked sampled dot with module constants."""
import math

import numpy as np

_BLOCK_BYTES = 1 << 17
_COPY_AT = 2


def _rows_of(starts, p0, p1):
    return np.searchsorted(starts, np.arange(p0, p1 + 1), side="right") - 1


def bind(pos, crd, vals, C, D, out_vals, pieces, accumulate):
    block = max(1, _BLOCK_BYTES // (8 * max(C.shape[1], 1)))

    def thunk():
        rows = _rows_of(pos[:, 0], 0, crd.size - 1)
        for s in range(0, rows.size, block):
            e = min(s + block, rows.size)
            dots = np.einsum("ij,ij->i", C[rows[s:e]], D.T[crd[s:e]])
            out_vals[s:e] = vals[s:e] * dots
        return math.nan
    return {0: thunk}, None
'''


def _line_of(source: str, needle: str) -> int:
    for n, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return n
    raise AssertionError(f"{needle!r} not in source")


class TestAllowedShapes:
    def test_known_good_module_passes(self):
        tree = verify_aot_source(GOOD, filename="good.py")
        assert tree is not None

    @pytest.mark.parametrize("source", [REDUCING, BLOCKED], ids=["reducing", "blocked"])
    def test_hand_written_kernel_modules_pass(self, source):
        tree = verify_aot_source(source, filename="kernel.py")
        assert any(f.name == "bind" for f in tree.body if hasattr(f, "name"))

    def test_scipy_sparse_import_allowed(self):
        src = GOOD.replace(
            "import numpy as np",
            "import numpy as np\nimport scipy.sparse as sp",
        )
        verify_aot_source(src, filename="x.py")
        assert {"numpy", "scipy", "math"} == set(ALLOWED_IMPORT_ROOTS)


class TestRejections:
    def _expect(self, source, fragment, needle=None):
        with pytest.raises(SanitizerError) as exc:
            verify_aot_source(source, filename="evil.py")
        assert fragment in str(exc.value)
        if needle is not None:
            assert exc.value.line == _line_of(source, needle)
        return exc.value

    def test_smuggled_import_with_line(self):
        src = GOOD + "\nimport os\n"
        err = self._expect(src, "allowlist", "import os")
        assert err.path == "evil.py"

    def test_from_import_outside_allowlist(self):
        src = GOOD + "\nfrom subprocess import run\n"
        self._expect(src, "allowlist", "from subprocess")

    def test_import_inside_function_body(self):
        src = GOOD.replace(
            "    def thunk():",
            "    import math\n    def thunk():",
        )
        self._expect(src, "module scope", "    import math")

    def test_eval_exec_open_references(self):
        for name in ("eval", "exec", "open", "__import__", "getattr"):
            src = GOOD + f"\n\ndef f():\n    return {name}\n"
            self._expect(src, name, f"return {name}")

    def test_dunder_attribute_access(self):
        src = GOOD + "\n\ndef f(x):\n    return x.__class__\n"
        self._expect(src, "__class__", "__class__")

    def test_global_statement(self):
        src = GOOD + "\n\ndef f():\n    global META\n    META = {}\n"
        self._expect(src, "global", "global META")

    def test_module_level_call(self):
        src = GOOD + "\nprint('hi')\n"
        self._expect(src, "generated-module shape", "print('hi')")

    def test_non_literal_module_assignment(self):
        src = GOOD + "\nX = bind(1, 2, 3, 4)\n"
        self._expect(src, "literal constant", "X = bind")

    def test_class_definition(self):
        src = GOOD + "\nclass Meta:\n    pass\n"
        self._expect(src, "generated-module shape", "class Meta")

    def test_missing_bind(self):
        src = '"""doc."""\nimport numpy as np\n\ndef other():\n    pass\n'
        self._expect(src, "bind")

    def test_unparseable_source(self):
        with pytest.raises(SanitizerError) as exc:
            verify_aot_source("def broken(:\n", filename="bad.py")
        assert "parseable" in str(exc.value)
