"""The online estimator of ``s``, a dynamically calculated model input.

Figure 4 lists the dynamic inputs of the prefetching scheme:

* ``s`` -- the average number of prefetches issued per access period.  Both
  the stall model (Eq. 3/6) and the prefetch horizon depend on it, and it in
  turn depends on how much the scheme decides to prefetch, so it is tracked
  here as an exponentially weighted moving average over access periods.
* ``h`` -- the prefetch hit ratio, the fraction of prefetched blocks that are
  eventually referenced.  The paper only reports it (Figures 9 and 12); it
  is :attr:`repro.sim.stats.SimulationStats.prefetch_cache_hit_rate`.
* ``H(n) - H(n-1)`` -- the marginal LRU hit rate used by Eq. 13; it is
  :meth:`repro.cache.ghost.StackDistanceProfiler.recent_marginal_rate`,
  which :meth:`repro.cache.buffer_cache.BufferCache.demand_eviction_cost`
  computes inline at the demand partition's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class EwmaRate:
    """Exponentially weighted moving average of a per-period quantity.

    ``alpha`` is the weight of the newest observation.  Until the first
    observation, :attr:`value` reports ``initial``.
    """

    alpha: float = 0.05
    initial: float = 0.0
    value: float = field(init=False)
    observations: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        self.value = self.initial

    def observe(self, sample: float) -> float:
        """Fold one per-period sample into the average and return it."""
        if self.observations == 0:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        self.observations += 1
        return self.value


class PrefetchRateEstimator:
    """Tracks ``s``, the average prefetches issued per access period.

    The simulator calls :meth:`end_period` once per application I/O with the
    number of prefetches issued during that period.  A lifetime mean is kept
    alongside the EWMA because Figures 8 and 11 report the whole-run average.
    """

    def __init__(self, alpha: float = 0.05, initial: float = 1.0) -> None:
        self._ewma = EwmaRate(alpha=alpha, initial=initial)
        self._total_prefetches = 0
        self._periods = 0

    def end_period(self, prefetches_issued: int) -> None:
        if prefetches_issued < 0:
            raise ValueError(
                f"prefetches_issued must be >= 0, got {prefetches_issued!r}"
            )
        # EwmaRate.observe, unrolled: the engine calls this every period.
        ewma = self._ewma
        sample = float(prefetches_issued)
        if ewma.observations == 0:
            ewma.value = sample
        else:
            ewma.value += ewma.alpha * (sample - ewma.value)
        ewma.observations += 1
        self._total_prefetches += prefetches_issued
        self._periods += 1

    def state(self) -> Dict[str, Any]:
        """JSON-ready form: the EWMA and the lifetime totals, verbatim."""
        ewma = self._ewma
        return {
            "alpha": ewma.alpha,
            "initial": ewma.initial,
            "value": ewma.value,
            "observations": ewma.observations,
            "total_prefetches": self._total_prefetches,
            "periods": self._periods,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`."""
        self._ewma = EwmaRate(alpha=state["alpha"], initial=state["initial"])
        self._ewma.value = state["value"]
        self._ewma.observations = state["observations"]
        self._total_prefetches = state["total_prefetches"]
        self._periods = state["periods"]

    @property
    def s(self) -> float:
        """Smoothed prefetches-per-period, the ``s`` of Eqs. 3 and 6."""
        return self._ewma.value

    @property
    def lifetime_mean(self) -> float:
        """Whole-run average prefetches per period (Figures 8 and 11)."""
        if self._periods == 0:
            return 0.0
        return self._total_prefetches / self._periods

    @property
    def periods(self) -> int:
        return self._periods
