"""The four workloads as drivers of ``repro``'s public API.

A :class:`Scenario` owns the sessions, packed tensors and statement *units* of
one workload and exposes the lifecycle in the pieces the benchmark times:

``open`` (sessions) -> ``pack`` (sparse operands) -> ``pack_dense`` (dense
operands, outputs, units) -> per unit ``build`` (index variables +
assignment) -> ``schedule`` -> ``compile`` -> ``execute``.

``Unit.frontdoor`` is the step a user writes (rebuild the statement, hand it
to ``Session.execute`` / ``Program.run``); ``Unit.staged`` performs the same
step as its public pieces, each inside a perfbench span.  Only public names of
``repro`` are used: no private attribute is read and nothing under ``src/`` is
instrumented.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.taco import index_vars

from . import verify
from .workloads import COMPILE_CASES

_FORMATS = {"csr": repro.CSR, "csf3": repro.CSF3, "ddc": repro.DDC}


# --------------------------------------------------------------------------- #
# statements (taco.expr): fresh index variables + one assignment
# --------------------------------------------------------------------------- #
def _spmv(a, B, c):
    i, j = index_vars("i j")
    a[i] = B[i, j] * c[j]


def _spmm(A, B, C):
    i, k, j = index_vars("i k j")
    A[i, j] = B[i, k] * C[k, j]


def _sddmm(A, B, C, D):
    i, j, k = index_vars("i j k")
    A[i, j] = B[i, j] * C[i, k] * D[k, j]


def _spttv(A, T, c):
    i, j, k = index_vars("i j k")
    A[i, j] = T[i, j, k] * c[k]


def _spmttkrp(A, T, C, D):
    i, j, k, l = index_vars("i j k l")
    A[i, l] = T[i, j, k] * C[j, l] * D[k, l]


def _spadd3(A, B, C, D):
    i, j = index_vars("i j")
    A[i, j] = B[i, j] + C[i, j] + D[i, j]


_STATEMENTS: Dict[str, Callable] = {
    "spmv": _spmv, "spmm": _spmm, "sddmm": _sddmm, "spttv": _spttv,
    "spmttkrp": _spmttkrp, "spadd3": _spadd3,
}


def _comm_bytes(res) -> float:
    """Communicated bytes of an ExecutionResult or a ProgramResult."""
    if hasattr(res, "total_comm_bytes"):
        return res.total_comm_bytes()
    return res.metrics.total_comm_bytes()


def _step_metrics(res) -> List[Any]:
    """The StepMetrics of an ExecutionResult or a ProgramResult."""
    if hasattr(res, "results"):
        return [s for r in res.results for s in r.metrics.steps]
    return list(res.metrics.steps)


# --------------------------------------------------------------------------- #
# units
# --------------------------------------------------------------------------- #
class Unit:
    """One thing a step executes through a session's front door."""

    #: (output tensor, reference) pairs checked after every execution.
    outputs: List[Tuple[Any, Any]]

    def __init__(self, scenario: "Scenario", machine_key: str):
        self.scenario, self.machine_key = scenario, machine_key
        self.outputs = []

    @property
    def session(self):
        return self.scenario.sessions[self.machine_key]


class StatementUnit(Unit):
    """One statement; ``strategy=None`` leaves the choice to the auto-scheduler."""

    def __init__(self, scenario, machine_key, kind, out, operands, ref,
                 strategy: Optional[str] = None):
        super().__init__(scenario, machine_key)
        self.kind, self.out, self.operands, self.strategy = (
            kind, out, operands, strategy)
        self.outputs = [(out, ref)]

    def build(self):
        _STATEMENTS[self.kind](self.out, *self.operands)
        return self.out

    def schedule(self, target):
        return repro.auto_schedule(
            target, self.session.machine, strategy=self.strategy)

    def frontdoor(self):
        target = self.build()
        if self.strategy is not None:
            target = self.schedule(target)
        return self.session.execute(target)

    def compile(self, schedule):
        return [self.session.compile_kernel(schedule)]

    def staged(self, rec):
        with rec.span("stmt_build"):
            target = self.build()
        with rec.span("schedule"):
            sched = self.schedule(target)
        with rec.span("compile"):
            (ck,) = self.compile(sched)
        with rec.span("execute"):
            return self.session.execute(ck)


class ProgramUnit(Unit):
    """The five-statement lazy program: SDDMM -> SpMM (fuses), SpAdd3 with
    two-phase assembly, SpMTTKRP and SpTTV on a CSF3 tensor."""

    def __init__(self, scenario, machine_key, t: Dict[str, Any], raw, k_names,
                 refs):
        super().__init__(scenario, machine_key)
        s = self.session
        G, T = raw["B"], raw["T"]
        n, rank = G.shape[0], raw[k_names["F"]][0].shape[1]
        self.t = t
        self.names = k_names
        self.E = s.zeros("E", G.shape, repro.CSR)
        self.H = s.zeros("H", (n, rank))
        self.S = s.zeros("S", G.shape, repro.CSR)
        self.M = s.zeros("M", (T["shape"][0], rank))
        self.W = s.zeros("W", T["shape"][:2], repro.CSR)
        self.outputs = list(zip((self.H, self.S, self.M, self.W), refs))

    @staticmethod
    def references(raw, k_names) -> List[Any]:
        """References of the program's four surviving outputs H, S, M, W."""
        G, T = raw["B"], raw["T"]
        return [
            verify.FusedSDDMMSpMM(
                G, raw[k_names["U"]], raw[k_names["V"]], raw[k_names["F"]]),
            verify.SpAdd3(G, raw["B2"], raw["B3"], raw.get("B2_vals")),
            verify.SpMTTKRP(T, raw["TC"], raw["TD"]),
            verify.SpTTV(T, raw["tc"], dense_out=False),
        ]

    def build(self):
        t, nm = self.t, self.names
        U, V, F = t[nm["U"]], t[nm["V"]], t[nm["F"]]
        i, j, k, x, y, z = index_vars("i j k x y z")
        i3, j3, i4, j4, k4, l4, i5, j5, k5 = index_vars(
            "i3 j3 i4 j4 k4 l4 i5 j5 k5")
        with self.session.program() as p:
            self.E[i, j] = t["B"][i, j] * U[i, k] * V[k, j]
            self.H[x, y] = self.E[x, z] * F[z, y]
            self.S[i3, j3] = t["B"][i3, j3] + t["B2"][i3, j3] + t["B3"][i3, j3]
            self.M[i4, l4] = t["T"][i4, j4, k4] * t["TC"][j4, l4] * t["TD"][k4, l4]
            self.W[i5, j5] = t["T"][i5, j5, k5] * t["tc"][k5]
        return p

    def schedule(self, program):
        return program.schedules()

    def frontdoor(self):
        return self.build().run()

    def compile(self, schedules):
        return self.session.compile(*schedules).kernels

    def staged(self, rec):
        with rec.span("stmt_build"):
            p = self.build()
        with rec.span("schedule"):
            scheds = self.schedule(p)
        with rec.span("compile"):
            cp = self.session.compile(*scheds)
        with rec.span("execute"):
            return cp.execute(self.session.runtime)


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
class Scenario:
    """Sessions + packed tensors + units of one workload."""

    name = ""
    #: session key -> ``repro.session`` keywords
    machines: Dict[str, Dict[str, int]] = {}
    #: input keys of the dense operands (each a list of rotation variants)
    dense_keys: Sequence[str] = ()
    #: warm/cold timings are reported per this many front-door executions
    divisor = 1
    #: fewest samples a phase takes, however short ``--seconds`` is
    min_setup, min_cold, min_warm = 5, 10, 200
    #: traced-pass phases only some workloads have
    has_store = has_serving = False
    #: formats the 3-tensor ``T`` is packed in (none: the workload has no T)
    tensor_formats: Sequence[str] = ()
    #: (spec, operand keys) of the repeated ``repro.einsum`` probe, if any
    einsum_spec: Optional[Tuple[str, Tuple[str, ...]]] = None

    def __init__(self, inputs: Dict[str, Any]):
        self.inputs = inputs
        self.sessions: Dict[str, Any] = {}
        self.t: Dict[str, Any] = {}
        self.units: List[Unit] = []
        #: built once: references hold only raw inputs, so every set-up
        #: reuses them and none of their construction is ever timed
        self.refs = self.make_refs()
        #: SciPy/NumPy packing the same sparse operands (pack_vs_scipy_ratio)
        self.pack_ref = self.make_pack_ref()

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> None:
        for s in self.sessions.values():
            s.close()
        self.sessions = {k: repro.session(**kw) for k, kw in self.machines.items()}

    def reopen(self, key: str) -> None:
        """A fresh session (hence a fresh runtime) for one machine."""
        self.sessions[key].close()
        self.sessions[key] = repro.session(**self.machines[key])

    def _session(self):
        return next(iter(self.sessions.values()))

    def pack(self) -> None:
        """Pack the sparse operands (``Session.tensor`` / ``from_coo``)."""
        raise NotImplementedError

    def pack_dense(self, k: int = 0) -> None:
        """Pack rotation ``k`` of the dense operands, then build the units."""
        s = self._session()
        for key in self.dense_keys:
            self.t[key] = s.tensor(key, self.inputs[key][k % len(self.inputs[key])])
        self.units = self.make_units()

    def make_refs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def make_units(self) -> List[Unit]:
        raise NotImplementedError

    def make_pack_ref(self) -> verify.Pack:
        """Matrices B, B2, B3 where present; the tensor once per format it is
        packed in."""
        raw = self.inputs
        return verify.Pack(
            [raw[k] for k in ("B", "B2", "B3") if k in raw],
            [raw["T"] for _ in self.tensor_formats],
        )

    @property
    def nnz(self) -> int:
        """Stored non-zeros over all packed sparse operands."""
        return sum(t.nnz for key, t in self.t.items() if key not in self.dense_keys)

    # -- steps ---------------------------------------------------------------
    def rotate(self, k: int) -> None:
        """Value-only writes: caches stay hot, every output changes."""
        for key in self.dense_keys:
            variants = self.inputs[key]
            self.t[key].vals.data[...] = variants[k % len(variants)]

    def frontdoor(self) -> List[Any]:
        return [u.frontdoor() for u in self.units]

    def staged(self, rec) -> List[Any]:
        return [u.staged(rec) for u in self.units]

    def references(self, k: int) -> List[List[Any]]:
        return [[ref.compute(k) for _, ref in u.outputs] for u in self.units]

    def check(self, expected: List[List[Any]]) -> bool:
        return all(
            ref.matches(out, exp)
            for u, exps in zip(self.units, expected)
            for (out, ref), exp in zip(u.outputs, exps)
        )

    # -- simulated clock -----------------------------------------------------
    def sim(self, results: List[Any]) -> Dict[str, float]:
        """sim_seconds / sim_comm_bytes / sim_peak_bytes of one warm step."""
        peak = max(
            (b for s in self.sessions.values()
             for b in s.runtime.resident_bytes_per_proc().values()),
            default=0.0,
        )
        div = self.sim_divisor
        return {
            "sim_seconds": sum(r.simulated_seconds for r in results) / div,
            "sim_comm_bytes": sum(_comm_bytes(r) for r in results) / div,
            "sim_peak_bytes": peak,
        }

    @property
    def sim_divisor(self) -> int:
        return self.divisor

    def step_metrics(self, results: List[Any]) -> List[Any]:
        return [s for r in results for s in _step_metrics(r)]


class SpmvLarge(Scenario):
    name = "spmv_large"
    machines = {"m": dict(nodes=4)}
    dense_keys = ("x",)
    has_store = True
    einsum_spec = ("ij,j->i", ("B", "x"))

    def pack(self):
        self.t = {"B": self._session().tensor("B", self.inputs["B"], repro.CSR)}

    def make_refs(self):
        return {"spmv": verify.SpMV(self.inputs["B"], self.inputs["x"])}

    def make_units(self):
        n = self.inputs["B"].shape[0]
        a = self._session().zeros("a", (n,))
        return [StatementUnit(self, "m", "spmv", a, (self.t["B"], self.t["x"]),
                              self.refs["spmv"])]


class SmallLaunch(Scenario):
    name = "small_launch"
    machines = {"m": dict(nodes=64)}
    dense_keys = ("x", "C", "D")
    divisor = 3  # one sample = the rotation SpMV, SpMM, SDDMM; reported per statement
    has_serving = True
    einsum_spec = ("ij,j->i", ("B", "x"))

    def pack(self):
        self.t = {"B": self._session().tensor("B", self.inputs["B"], repro.CSR)}

    def make_refs(self):
        raw = self.inputs
        return {
            "spmv": verify.SpMV(raw["B"], raw["x"]),
            "spmm": verify.SpMM(raw["B"], raw["C"]),
            "sddmm": verify.SDDMM(raw["B"], raw["C"], raw["D"]),
        }

    def make_units(self):
        s, t, refs = self._session(), self.t, self.refs
        n, k = self.inputs["C"][0].shape
        return [
            StatementUnit(self, "m", "spmv", s.zeros("a", (n,)),
                          (t["B"], t["x"]), refs["spmv"]),
            StatementUnit(self, "m", "spmm", s.zeros("A", (n, k)),
                          (t["B"], t["C"]), refs["spmm"]),
            StatementUnit(self, "m", "sddmm", s.zeros("P", (n, n), repro.CSR),
                          (t["B"], t["C"], t["D"]), refs["sddmm"]),
        ]


def _pack_graph_and_tensor(scn: Scenario) -> None:
    s, raw = scn._session(), scn.inputs
    scn.t = {key: s.tensor(key, raw[key], repro.CSR) for key in ("B", "B2", "B3")}
    T = raw["T"]
    for fmt in scn.tensor_formats:
        scn.t["T" if fmt == "csf3" else "T_" + fmt] = s.from_coo(
            "T_" + fmt, T["coords"], T["vals"], T["shape"], _FORMATS[fmt])


class CompileMatrix(Scenario):
    name = "compile_matrix"
    machines = {"cpu": dict(nodes=4), "gpu": dict(gpus=4)}
    dense_keys = ("x", "C", "D", "tc", "TC", "TD")
    divisor = 2 * len(COMPILE_CASES) + 2
    sim_divisor = 1  # sim_* are summed over the cases

    tensor_formats = ("csf3", "ddc")

    def pack(self):
        _pack_graph_and_tensor(self)

    _PROGRAM_NAMES = {"U": "C", "V": "D", "F": "C"}

    def make_refs(self):
        raw = self.inputs
        return {
            "spmv": verify.SpMV(raw["B"], raw["x"]),
            "spmm": verify.SpMM(raw["B"], raw["C"]),
            "sddmm": verify.SDDMM(raw["B"], raw["C"], raw["D"]),
            "spttv:csf3": verify.SpTTV(raw["T"], raw["tc"], dense_out=False),
            "spttv:ddc": verify.SpTTV(raw["T"], raw["tc"], dense_out=True),
            "spmttkrp": verify.SpMTTKRP(raw["T"], raw["TC"], raw["TD"]),
            "spadd3": verify.SpAdd3(raw["B"], raw["B2"], raw["B3"]),
            "program": ProgramUnit.references(raw, self._PROGRAM_NAMES),
        }

    def make_units(self):
        s, raw, t, refs = self._session(), self.inputs, self.t, self.refs
        n, k = raw["C"][0].shape
        tshape = raw["T"]["shape"]
        units: List[Unit] = []
        for mkey in self.machines:
            for kind, fmt, strategy in COMPILE_CASES:
                T = t.get("T" if fmt == "csf3" else "T_" + fmt)
                ref = refs.get(kind) or refs[f"{kind}:{fmt}"]
                if kind == "spmv":
                    out, ops = s.zeros("a", (n,)), (t["B"], t["x"])
                elif kind == "spmm":
                    out, ops = s.zeros("A", (n, k)), (t["B"], t["C"])
                elif kind == "sddmm":
                    out = s.zeros("P", (n, n), repro.CSR)
                    ops = (t["B"], t["C"], t["D"])
                elif kind == "spttv":
                    out = s.zeros(
                        "W", tshape[:2], None if fmt == "ddc" else repro.CSR)
                    ops = (T, t["tc"])
                elif kind == "spmttkrp":
                    out, ops = s.zeros("M", (tshape[0], k)), (T, t["TC"], t["TD"])
                else:
                    out = s.zeros("S", (n, n), repro.CSR)
                    ops = (t["B"], t["B2"], t["B3"])
                units.append(StatementUnit(self, mkey, kind, out, ops, ref, strategy))
            units.append(ProgramUnit(
                self, mkey, t, raw, self._PROGRAM_NAMES, refs["program"]))
        return units


class ProgramMixedGpu(Scenario):
    name = "program_mixed_gpu"
    machines = {"m": dict(gpus=4)}
    min_warm = 40
    dense_keys = ("C", "D", "F", "tc", "TC", "TD")

    tensor_formats = ("csf3",)

    def pack(self):
        _pack_graph_and_tensor(self)

    _PROGRAM_NAMES = {"U": "C", "V": "D", "F": "F"}

    def make_refs(self):
        return {"program": ProgramUnit.references(self.inputs, self._PROGRAM_NAMES)}

    def make_units(self):
        return [ProgramUnit(self, "m", self.t, self.inputs, self._PROGRAM_NAMES,
                            self.refs["program"])]

    def rotate(self, k):
        super().rotate(k)
        variants = self.inputs["B2_vals"]
        self.t["B2"].vals.data[...] = variants[k % len(variants)]


SCENARIOS = {
    cls.name: cls for cls in (SpmvLarge, SmallLaunch, CompileMatrix, ProgramMixedGpu)
}
