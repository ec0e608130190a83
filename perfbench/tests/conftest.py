"""perfbench's own tests: ``python -m pytest perfbench/tests -q``.

They put the repository root and ``src/`` on the path themselves, so they run
with or without ``PYTHONPATH=src``.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
