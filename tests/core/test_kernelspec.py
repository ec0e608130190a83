"""Coherence of the kernel table (:mod:`repro.core.kernelspec`).

Every layer derives its per-kind behaviour from one :data:`SPECS` entry,
so the table's internal consistency is what keeps them from drifting:
defaults are legal, every declared (sweep format × strategy) has a working
interpreter leaf and — unless the kind is marked interp-only — a lowering
template, the template table holds exactly the declared (iteration shape,
strategy) keys, and ``classify`` sends each differential-oracle statement
to the spec that handles it — by level types, never by a format's name.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))

from test_differential import _FORMATS, _build, _combos  # noqa: E402

from repro.api.autoschedule import auto_schedule  # noqa: E402
from repro.codegen import lowering, supported  # noqa: E402
from repro.core import (  # noqa: E402
    SPECS, classify, clear_caches, compile_kernel,
)
from repro.legion import Machine, ProcKind  # noqa: E402
from repro.legion.machine import Work  # noqa: E402

#: differential-oracle builder name -> the kind whose spec handles it.
_KIND_OF_BUILDER = {"spadd3": "spadd"}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("spec", SPECS.values(), ids=lambda s: s.kind)
def test_defaults_are_legal_strategies(spec):
    assert SPECS[spec.kind] is spec
    for proc_kind in ProcKind:
        assert spec.default_strategy(proc_kind) in spec.strategies
    assert set(spec.accumulating) <= set(spec.strategies)


def test_template_table_is_exactly_what_the_specs_declare():
    declared = {k for spec in SPECS.values() for k in spec.template_keys()}
    assert set(lowering.TEMPLATES) == declared
    # keyed by iteration shape: kinds that iterate alike share keys, and
    # no key carries a format
    assert SPECS["spmv"].template_keys() == SPECS["spttv"].template_keys()
    assert len(lowering.TEMPLATES) == 11
    assert len(set(lowering.TEMPLATES.values())) == 10  # grid rides rows
    for spec in SPECS.values():
        # interp-only is an explicit mark, never an accident of a missing
        # template: everything else declares at least one
        assert spec.interp_only == (not spec.template_keys())


@pytest.mark.parametrize("combo", list(_combos()), ids="-".join)
def test_every_declared_combination_classifies_and_has_its_leaves(combo):
    builder, fmt, strategy = combo
    kind = _KIND_OF_BUILDER.get(builder, builder)
    spec = SPECS[kind]
    out = _build(builder, fmt, np.random.default_rng(5), 12, 0.3)
    assert classify(out.assignment).kind == kind
    assert _FORMATS[fmt] in spec.formats and strategy in spec.strategies

    machine = Machine.cpu(4)
    ck = compile_kernel(
        auto_schedule(out, machine, strategy=strategy), machine,
        backend="interp",
    )
    assert (ck.kind, ck.strategy) == (kind, strategy)
    assert supported(ck) == (not spec.interp_only)
    if spec.assembles:
        ck.execute()  # the assembly executor is this kind's leaf
    else:
        leaf = spec.interp_leaf(ck)
        assert all(isinstance(leaf(p), Work) for p in ck.pieces)


def test_the_sweep_above_covers_every_declared_combination():
    swept = {
        (_KIND_OF_BUILDER.get(k, k), _FORMATS[f], s) for k, f, s in _combos()
    }
    declared = {
        (spec.kind, f, s)
        for spec in SPECS.values()
        for f in spec.formats for s in spec.strategies
    }
    # the fused kind is reached only through the pass pipeline; its
    # leaves are exercised by tests/core/test_passes.py and the commplan
    # oracle.  generic declares no sweep format: it takes every stack.
    fused = {k for k in declared if k[0] == "fused_sddmm_spmm"}
    assert fused and declared - fused == swept
