"""Evaluation core: metrics, reports, the experiment registry, and the
paper-shape validation harness."""

from ..params import parse_params
from .compare import compare_machines, ComparisonRow, render_comparison
from .evaluation import (
    experiment_ids,
    EXPERIMENTS,
    run_experiment,
    validate_experiment_params,
)
from .hpcc import build_table2, HpccColumn, TABLE2_ROWS
from .metrics import (
    crossover_point,
    parallel_efficiency,
    relative_factor,
    speedup,
    weak_scaling_efficiency,
)
from .report import Figure, figure_to_csv, format_series, format_table, Series
from .sweep import Sweep, SweepPoint
from .validate import Claim, CLAIMS, validate_all, ValidationError

__all__ = [
    "speedup",
    "parallel_efficiency",
    "weak_scaling_efficiency",
    "crossover_point",
    "relative_factor",
    "format_table",
    "format_series",
    "figure_to_csv",
    "Figure",
    "Series",
    "Sweep",
    "SweepPoint",
    "HpccColumn",
    "build_table2",
    "TABLE2_ROWS",
    "Claim",
    "CLAIMS",
    "validate_all",
    "ValidationError",
    "EXPERIMENTS",
    "run_experiment",
    "experiment_ids",
    "validate_experiment_params",
    "parse_params",
    "ComparisonRow",
    "compare_machines",
    "render_comparison",
]
