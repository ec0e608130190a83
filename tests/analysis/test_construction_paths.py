"""``Program.analyze()`` agrees across every statement-construction path.

Programs are recorded three equivalent ways — explicit ``define()``,
``repro.einsum`` results handed to ``define()``, and assignments captured
inside ``with session.program() as p:`` — and the analyzer must not care
which one built the statements: the hazard/dependence findings, the CSE
reuse map, and (with ``cost=True``) the static communication planner's
predicted signatures must be identical for the same logical program.
The earlier analysis tests exercised ``define()`` only; this module pins
the other two paths against it.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import clear_caches
from repro.errors import RedundantCommunicate, WriteHazard

N = 30


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _operands(seed=11):
    rng = np.random.default_rng(seed)
    M = sp.random(N, N, density=0.2, random_state=rng, format="csr")
    v = rng.random(N)
    return M, v


def _spmv_stmt(B, c, out):
    i, j = repro.index_vars("i j")
    out[i] = B[i, j] * c[j]
    return out


def _program_by_define(s, M, v):
    B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
    out = s.zeros("a", (N,))
    p = s.program()
    p.define(_spmv_stmt(B, c, out))
    p.define(_spmv_stmt(B, c, out))  # repeated statement: the CSE target
    return p


def _program_by_einsum(s, M, v):
    # pre-packed tensors pass through einsum unchanged, so both
    # statements share operand (and output) identity exactly like the
    # define() path
    B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
    out = s.zeros("a", (N,))
    p = s.program()
    p.define(repro.einsum("ij,j->i", B, c, session=s, out=out))
    p.define(repro.einsum("ij,j->i", B, c, session=s, out=out))
    return p


def _program_by_capture(s, M, v):
    B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
    out = s.zeros("a", (N,))
    with s.program() as p:
        _spmv_stmt(B, c, out)
        _spmv_stmt(B, c, out)
    return p


PATHS = {
    "define": _program_by_define,
    "einsum": _program_by_einsum,
    "capture": _program_by_capture,
}


def _reports():
    """(path name → cost-annotated AnalysisReport) for the same program."""
    M, v = _operands()
    out = {}
    for name, build in PATHS.items():
        with repro.session(nodes=4) as s:
            out[name] = build(s, M, v).analyze(cost=True)
        clear_caches()
    return out


def test_all_three_paths_record_two_statements():
    M, v = _operands()
    for name, build in PATHS.items():
        with repro.session(nodes=4) as s:
            assert len(build(s, M, v)) == 2, name
        clear_caches()


def test_hazards_and_dependences_agree_across_paths():
    """Every path reports the same findings, but for where the tensors
    live: ``einsum`` executes each statement as it records it, so its
    session runtime homes ``a``, ``B`` and ``c`` before the analysis, and
    their ``communicate`` placements move nothing there."""
    reports = _reports()
    base = reports["define"]
    base_edges = [(e.src, e.dst, e.kind) for e in base.graph.edges]
    base_diags = [(d.severity, d.error_type.__name__)
                  for d in base.diagnostics]
    for name, rep in reports.items():
        assert [(e.src, e.dst, e.kind) for e in rep.graph.edges] \
            == base_edges, name
        redundant = sorted(d.provenance.tensor for d in rep.diagnostics
                           if d.error_type is RedundantCommunicate)
        assert redundant == (["B", "a", "c"] if name == "einsum" else []), name
        assert [(d.severity, d.error_type.__name__)
                for d in rep.diagnostics
                if d.error_type is not RedundantCommunicate] == base_diags, name
        assert rep.ok, name


def test_cse_reuse_map_agrees_across_paths():
    reports = _reports()
    for name, rep in reports.items():
        # statement 1 is the same computation over the same operands:
        # CSE collapses it into statement 0 regardless of how it was built
        assert rep.reuse_map == [None, 0], name


def test_commplan_predictions_agree_across_paths():
    reports = _reports()
    base = reports["define"].predictions
    assert base[0] is not None and base[1] is None  # collapsed stmt: no plan
    for name, rep in reports.items():
        assert rep.predictions[1] is None, name
        # launch counts, comm events and footprint are identical — the
        # signature carries no tensor names, so exact equality holds even
        # though einsum names its operands internally
        assert rep.predictions[0] == base[0], name


def test_write_hazard_detected_on_every_path():
    """Reading the written tensor under different indices
    (``c(i) = B(i,j) * c(j)``) is a WriteHazard however the program was
    recorded."""
    M, v = _operands()

    def hazardous(B, c):
        i, j = repro.index_vars("i j")
        c[i] = B[i, j] * c[j]
        return c

    def by_define(s):
        B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
        p = s.program()
        p.define(hazardous(B, c))
        return p

    def by_einsum(s):
        B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
        p = s.program()
        p.define(repro.einsum("ij,j->i", B, c, session=s, out=c))
        return p

    def by_capture(s):
        B, c = s.tensor("B", M, repro.CSR), s.tensor("c", v)
        with s.program() as p:
            hazardous(B, c)
        return p

    found = {}
    for name, build in (("define", by_define), ("einsum", by_einsum),
                        ("capture", by_capture)):
        with repro.session(nodes=4) as s:
            rep = build(s).analyze()
        clear_caches()
        diags = rep.diagnostics_of(WriteHazard)
        assert diags, f"{name}: WriteHazard not detected"
        found[name] = [(d.severity, d.provenance.statement) for d in diags]
    assert found["define"] == found["einsum"] == found["capture"]
