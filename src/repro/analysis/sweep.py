"""Parameter sweeps: the workhorse behind every figure.

Each paper figure is a sweep of one knob (cache size, T_cpu, tree node
budget, threshold probability, child count) with one simulation run per
point.  Sweeps are declared as :class:`~repro.analysis.scheduler.RunSpec`
grids (:func:`spec_grid`) and submitted to the
:class:`~repro.analysis.scheduler.Scheduler` — the single cached,
parallel execution path.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.scheduler import RunSpec

#: Cache sizes (in blocks) used for the paper's cache-size sweeps.
DEFAULT_CACHE_SIZES = (128, 256, 512, 1024, 2048, 4096)


def spec_grid(
    trace_names: Sequence[str],
    policy_names: Sequence[str],
    cache_sizes: Sequence[int],
    *,
    num_references: int = 50_000,
    seed: int = 1999,
    t_cpu: Optional[float] = None,
    t_disk: Optional[float] = None,
    t_driver: Optional[float] = None,
    t_hit: Optional[float] = None,
    policy_kwargs: Optional[Dict[str, Any]] = None,
    sim_kwargs: Optional[Dict[str, Any]] = None,
) -> List[RunSpec]:
    """The full trace x policy x cache-size cross product as specs.

    Row-major in argument order (trace outermost, cache size innermost),
    matching how the CLI and figure harnesses iterate their results.
    """
    return [
        RunSpec(
            trace_name=trace,
            policy_name=policy,
            cache_size=size,
            num_references=num_references,
            seed=seed,
            t_cpu=t_cpu,
            t_disk=t_disk,
            t_driver=t_driver,
            t_hit=t_hit,
            policy_kwargs=dict(policy_kwargs or {}),
            sim_kwargs=dict(sim_kwargs or {}),
        )
        for trace, policy, size in itertools.product(
            trace_names, policy_names, cache_sizes
        )
    ]
