"""Tier-1 enforcement of the static lock-discipline check.

``tools/lock_check.py`` (the ``lock`` plugin of ``tools/check.py``)
asserts that every mutation of the shared cache
structures (:mod:`repro.core.cache`, :mod:`repro.codegen`)
happens under the designated lock — the invariant the multi-tenant
serving layer leans on.  Running it here wires the check into the fast
tier-1 loop: an unlocked mutation introduced anywhere in the watched
files fails the plain ``pytest`` run, not just a manually-invoked tool.

The self-tests below also pin the checker's own semantics (it must catch
real violations and honor the documented exemptions), so the enforcement
cannot rot into a vacuous pass.
"""
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check  # noqa: E402
import lock_check  # noqa: E402


def test_repo_lock_discipline_holds(capsys):
    assert check.main(["--only", "lock"]) == 0, capsys.readouterr().out


def test_every_watched_file_exists_and_parses():
    # A renamed/moved watched file must fail loudly, not silently shrink
    # the checked surface.
    for relpath, rules in lock_check.WATCH.items():
        path = REPO / relpath
        assert path.is_file(), f"watched file vanished: {relpath}"
        assert rules, f"no rules for {relpath}"
        # every designated lock is actually defined in the file
        text = path.read_text()
        for rule in rules:
            lock_name = rule.lock.split(".")[-1]
            assert lock_name in text, (
                f"{relpath}: designated lock {rule.lock} not found"
            )


def test_checker_flags_unlocked_mutations():
    rules = [
        lock_check.Rule(
            targets=("self._map", "self.hits"), lock="self._lock",
            scope="LRU", exempt=("__init__",),
        ),
        lock_check.Rule(targets=("_shared",), lock="_LOCK"),
    ]
    source = """
class LRU:
    def __init__(self):
        self._map = {}            # exempt: constructor
    def get(self, k):
        self.hits += 1            # violation: augmented assign
        with self._lock:
            self._map[k] = 1      # ok
        self._map.pop(k)          # violation: mutating method call

def helper():
    _shared.clear()               # violation: mutating method call
    _shared["k"] = 1              # violation: subscript assign
    del _shared["k"]              # violation: delete
    with _LOCK:
        _shared.update({})        # ok
"""
    found = lock_check.check_source(source, rules)
    lines = sorted(v.line for v in found)
    assert lines == [6, 9, 12, 13, 14], [str(v) for v in found]


def test_checker_tracks_nested_and_sibling_with_blocks():
    rules = [lock_check.Rule(targets=("_shared",), lock="_LOCK")]
    source = """
def nested():
    with _LOCK:
        with open("f") as fh:
            _shared["k"] = 1      # ok: _LOCK still held lexically

def sibling():
    with _LOCK:
        _shared["a"] = 1          # ok
    _shared["b"] = 2              # violation: lock released
"""
    found = lock_check.check_source(source, rules)
    assert [v.line for v in found] == [10], [str(v) for v in found]


def test_serving_rule_watches_the_server_state():
    # satellite of the serving layer: the Server's tenant/catalog state
    # is a watched target with the same discipline as the caches
    rules = lock_check.WATCH["src/repro/api/serving.py"]
    watched = {t for rule in rules for t in rule.targets}
    assert {"self._catalog", "self._tenants", "self._building"} <= watched
    assert all(rule.lock == "self._lock" for rule in rules)


def test_serving_rule_flags_unlocked_server_mutations():
    # Exact-line negatives against a synthetic Server: the serving rule
    # applied to a source that drops the lock must point at every
    # mutation site, and only those.
    rules = lock_check.WATCH["src/repro/api/serving.py"]
    source = """
class Server:
    def __init__(self):
        self._catalog = {}             # exempt: constructor
        self._tenants = {}
        self._lock = None
    def register(self, name, entry):
        self._catalog[name] = entry    # violation: unlocked subscript
    def evict(self, tenant):
        self._tenants.pop(tenant)      # violation: mutating call
        with self._lock:
            self._building.clear()     # ok: under the designated lock
    def count(self):
        self.compiles += 1             # violation: augmented assign
        return len(self._catalog)      # read: never flagged
"""
    found = lock_check.check_source(source, rules)
    assert sorted(v.line for v in found) == [8, 10, 14], (
        [str(v) for v in found]
    )
    assert all(v.lock == "self._lock" for v in found)


def test_checker_ignores_reads_and_module_level_init():
    rules = [lock_check.Rule(targets=("_shared",), lock="_LOCK")]
    source = """
_shared = {"a": 0}                # module-level init: exempt

def reader():
    x = _shared.get("a")          # read: never flagged
    return _shared["a"], len(_shared)
"""
    assert lock_check.check_source(source, rules) == []
