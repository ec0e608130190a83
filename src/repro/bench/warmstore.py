"""Packed-operand warm store for the figure drivers.

The figure drivers (:mod:`repro.bench.figures`) sweep node counts and
systems over the same datasets; the seed behavior re-packed every sparse
operand from its source matrix for every single trial.  This module gives
the drivers one packed :class:`~repro.taco.tensor.Tensor` per distinct
operand content:

* an **in-process memo** keyed on a content digest of the source arrays,
  so per-node-count trials within one campaign reuse the packed level
  structure (and its partition-memo entries — the memoized tensor keeps a
  stable ``id``), and
* optionally a persistent **artifact store**
  (:class:`repro.core.store_index.ArtifactStore`), so re-runs in fresh
  processes ``load_packed`` the packed structure instead of re-packing —
  enable it with :func:`set_warm_store` or the ``REPRO_WARM_STORE``
  environment variable (a store root directory).

The packed values are identical either way (packing is deterministic), so
warm-started figure series are bit-identical to rebuilt-tensor series —
``tests/bench/test_warmstore.py`` asserts exactly that, plus the store's
integrity after a GC pass.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.store_index import ArtifactStore, content_key
from ..taco.formats import CSR, Format
from ..taco.tensor import Tensor

__all__ = [
    "set_warm_store",
    "warm_store",
    "set_warm_memo_enabled",
    "clear_warm_memo",
    "content_key",
    "packed_operand",
]

_memo: Dict[str, Tensor] = {}
_memo_enabled = True
_store: Optional[ArtifactStore] = None
_store_initialized = False


def set_warm_store(root: Optional[Union[str, Path]]) -> Optional[ArtifactStore]:
    """Enable (or, with None, disable) the persistent packed-operand store."""
    global _store, _store_initialized
    _store = ArtifactStore(root) if root is not None else None
    _store_initialized = True
    return _store


def warm_store() -> Optional[ArtifactStore]:
    """The active store; first call honors ``REPRO_WARM_STORE``."""
    global _store_initialized
    if not _store_initialized:
        env = os.environ.get("REPRO_WARM_STORE")
        set_warm_store(env if env else None)
    return _store


def set_warm_memo_enabled(enabled: bool) -> None:
    """Disable to force the seed behavior (re-pack every trial)."""
    global _memo_enabled
    _memo_enabled = bool(enabled)


def clear_warm_memo() -> None:
    _memo.clear()


def packed_operand(name: str, obj, fmt: Optional[Format] = CSR) -> Tensor:
    """A packed tensor for ``obj``, warm-started when possible.

    Already-packed tensors pass through untouched.  SciPy matrices hit the
    in-process memo first, then the persistent store (``load_packed`` of
    the newest artifact for the operand's content key), and are packed from
    scratch — and published to the store — only on a true cold start.
    """
    if isinstance(obj, Tensor):
        return obj
    if not _memo_enabled:
        return Tensor.from_scipy(name, obj, fmt)
    key = "operand:" + content_key(name, fmt, obj)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    store = warm_store()
    tensor: Optional[Tensor] = None
    if store is not None and store.resolve(key) is not None:
        tensor = store.load(key).tensor
    if tensor is None:
        tensor = Tensor.from_scipy(name, obj, fmt)
        if store is not None:
            store.put(tensor, keys=[key], include_caches=False)
    _memo[key] = tensor
    return tensor
