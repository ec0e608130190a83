"""Benchmark harness: scaled machine model, kernel runners, figure drivers."""
from .models import BenchConfig, RATE_SCALE, default_config
from .harness import SimResult, shifted, spdistal_run
from .baseline_runners import ctf_run, petsc_run, trilinos_run
from .reporting import format_heatmap, format_scaling, format_table, geomean
from . import figures

__all__ = [
    "BenchConfig", "RATE_SCALE", "default_config",
    "SimResult", "shifted", "spdistal_run",
    "ctf_run", "petsc_run", "trilinos_run",
    "format_heatmap", "format_scaling", "format_table", "geomean",
    "figures",
]
