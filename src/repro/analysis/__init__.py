"""Experiment harnesses: sweeps, metrics, per-figure runners, reporting."""

from repro.analysis.ascii_chart import render_chart
from repro.analysis.experiments import ALL_EXPERIMENTS, ExperimentResult
from repro.analysis.metrics import miss_reduction
from repro.analysis.runner import ExperimentContext, default_context
from repro.analysis.scheduler import (
    ResultStore,
    RunSpec,
    Scheduler,
    SchedulerCounters,
    execute,
    run_batch,
    spec_hash,
)
from repro.analysis.sweep import DEFAULT_CACHE_SIZES, spec_grid
from repro.analysis.tables import render_dict, render_series, render_table
from repro.analysis.tracestats import (
    characterise,
    first_access_share,
    predictability,
    reuse_profile,
    sequential_run_lengths,
    sequentiality,
    working_set_curve,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "DEFAULT_CACHE_SIZES",
    "ExperimentContext",
    "ExperimentResult",
    "ResultStore",
    "Scheduler",
    "SchedulerCounters",
    "characterise",
    "default_context",
    "first_access_share",
    "miss_reduction",
    "predictability",
    "RunSpec",
    "execute",
    "render_chart",
    "render_dict",
    "reuse_profile",
    "run_batch",
    "render_series",
    "render_table",
    "sequential_run_lengths",
    "sequentiality",
    "spec_grid",
    "spec_hash",
    "working_set_curve",
]
