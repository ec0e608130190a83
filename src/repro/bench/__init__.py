"""Benchmark harness: scaled machine model, kernel runners, figure drivers."""
from .models import BenchConfig, RATE_SCALE, default_config
from .harness import (
    SimResult,
    shifted,
    spdistal_sddmm,
    spdistal_spadd3,
    spdistal_spmm,
    spdistal_spmttkrp,
    spdistal_spmv,
    spdistal_spttv,
)
from .baseline_runners import ctf_run, petsc_run, trilinos_run
from .iterative import IterativeResult, run_iterative_spmv
from .warmstart import WarmstartParams, WarmstartResult, run_warmstart
from .reporting import format_heatmap, format_scaling, format_table, geomean
from . import figures

__all__ = [
    "BenchConfig", "RATE_SCALE", "default_config",
    "SimResult", "shifted",
    "spdistal_sddmm", "spdistal_spadd3", "spdistal_spmm",
    "spdistal_spmttkrp", "spdistal_spmv", "spdistal_spttv",
    "ctf_run", "petsc_run", "trilinos_run",
    "IterativeResult", "run_iterative_spmv",
    "WarmstartParams", "WarmstartResult", "run_warmstart",
    "format_heatmap", "format_scaling", "format_table", "geomean",
    "figures",
]
