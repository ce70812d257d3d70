"""Simulated wall clock for the uniprocessor timeline (Figures 3 and 5).

The clock advances only through the named charge methods so the engine's
time accounting is auditable: every millisecond of simulated time is
attributed to computation, cache reads, driver overhead, demand fetches, or
prefetch stalls, and the per-category totals are mirrored into the run's
:class:`~repro.sim.stats.SimulationStats`.
"""

from __future__ import annotations

from typing import Any, Dict


class SimClock:
    """Monotonic simulated time in milliseconds."""

    __slots__ = ("now", "compute_time", "hit_time", "driver_time",
                 "demand_fetch_time", "stall_time")

    def __init__(self) -> None:
        self.now = 0.0
        self.compute_time = 0.0
        self.hit_time = 0.0
        self.driver_time = 0.0
        self.demand_fetch_time = 0.0
        self.stall_time = 0.0

    def state(self) -> Dict[str, float]:
        """JSON-ready form: the time and each category's total, verbatim."""
        return {name: getattr(self, name) for name in self.__slots__}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`."""
        for name in self.__slots__:
            setattr(self, name, state[name])

    def charge_compute(self, duration: float) -> None:
        """Application computation between I/Os (``T_cpu``)."""
        if duration < 0.0:
            _negative_duration(duration)
        self.now += duration
        self.compute_time += duration

    def charge_hit(self, duration: float) -> None:
        """Buffer-cache read (``T_hit``)."""
        if duration < 0.0:
            _negative_duration(duration)
        self.now += duration
        self.hit_time += duration

    def charge_driver(self, duration: float) -> None:
        """Device-driver overhead for initiating a fetch (``T_driver``)."""
        if duration < 0.0:
            _negative_duration(duration)
        self.now += duration
        self.driver_time += duration

    def charge_demand_fetch(self, duration: float) -> None:
        """Synchronous demand fetch: the CPU idles for the disk access."""
        if duration < 0.0:
            _negative_duration(duration)
        self.now += duration
        self.demand_fetch_time += duration

    def charge_stall(self, duration: float) -> None:
        """CPU stall waiting for an in-flight prefetch to land (Figure 5)."""
        if duration < 0.0:
            _negative_duration(duration)
        self.now += duration
        self.stall_time += duration


def _negative_duration(duration: float) -> None:
    raise ValueError(f"cannot advance time by {duration!r} ms")
