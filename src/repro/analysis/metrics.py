"""Cross-run derived metrics and paper-shape checks.

The reproduction does not chase the paper's absolute numbers (our traces
are synthetic stand-ins); what must hold is the *shape* of each result:
which policy wins on which workload, roughly by how much, and how trends
move with cache size.  :func:`miss_reduction` is the shape quantity the
paper states in prose (miss-rate reductions vs no-prefetch), so benches
and regression tests can assert it.
"""

from __future__ import annotations


def miss_reduction(baseline: float, value: float) -> float:
    """Per cent reduction of ``value`` relative to ``baseline``.

    Positive = improvement.  Returns 0 for a zero baseline (no misses to
    reduce).
    """
    if baseline <= 0.0:
        return 0.0
    return 100.0 * (baseline - value) / baseline
