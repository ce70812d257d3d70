"""Disk models: the paper's infinite-parallelism disk, and a finite one.

The paper assumes "many disk drives and, therefore, no disk congestion"
(Sections 3 and 6.3): every request completes exactly ``T_disk`` after
issue, any number in flight.  :class:`DiskModel` implements that.

Section 6.3 explicitly flags the ignored overhead: "disks spending time
fetching blocks that are never accessed".  :class:`QueuedDiskModel` lets
the repository *measure* what that assumption hides: ``num_disks`` drives
serve requests first-come-first-served (each request binds to the earliest
available drive), so aggressive prefetching can congest the disks and delay
demand fetches.  The ablation bench ``bench_disk_congestion.py`` sweeps the
drive count.

Demand fetches are synchronous (the CPU waits for the returned completion
time); prefetches are asynchronous and the engine compares a block's
``arrival_time`` against the clock at first reference to derive the stall,
reproducing the Figure 5 timelines.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, List

from repro.params import SystemParams

Block = Hashable


class DiskModel:
    """Constant-latency disk with unlimited parallelism (the paper's model)."""

    __slots__ = ("params", "demand_reads", "prefetch_reads")

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.demand_reads = 0
        self.prefetch_reads = 0

    def demand_read(self, now: float) -> float:
        """Issue a synchronous read; returns its completion time.

        The driver overhead is charged by the caller (it is CPU time); the
        disk contributes exactly ``T_disk``.
        """
        self.demand_reads += 1
        return now + self.params.t_disk

    def prefetch_read(self, issue_time: float) -> float:
        """Issue an asynchronous read; returns the block's arrival time.

        ``issue_time`` is the clock after the driver overhead was charged;
        with unlimited drives the access starts immediately.
        """
        self.prefetch_reads += 1
        return issue_time + self.params.t_disk

    def state(self) -> Dict[str, Any]:
        """JSON-ready form: the read counters."""
        return {
            "demand_reads": self.demand_reads,
            "prefetch_reads": self.prefetch_reads,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`."""
        self.demand_reads = state["demand_reads"]
        self.prefetch_reads = state["prefetch_reads"]

    @property
    def total_reads(self) -> int:
        return self.demand_reads + self.prefetch_reads

    @property
    def busy_time(self) -> float:
        """Aggregate drive-seconds spent reading."""
        return self.total_reads * self.params.t_disk


class QueuedDiskModel(DiskModel):
    """``num_disks`` drives, FCFS; requests queue when all drives are busy.

    Service discipline: a request starts on the drive that frees up
    earliest (no request reordering, no priority for demand fetches - the
    pessimistic case for prefetch-induced congestion, since a speculative
    read issued just before a demand miss delays it by a full ``T_disk``).
    """

    __slots__ = ("num_disks", "_free_at", "queue_delay_total", "queued_requests")

    def __init__(self, params: SystemParams, num_disks: int) -> None:
        if num_disks < 1:
            raise ValueError(f"num_disks must be >= 1, got {num_disks!r}")
        super().__init__(params)
        self.num_disks = num_disks
        self._free_at: List[float] = [0.0] * num_disks
        heapq.heapify(self._free_at)
        self.queue_delay_total = 0.0
        self.queued_requests = 0

    def _serve(self, now: float) -> float:
        earliest = heapq.heappop(self._free_at)
        start = earliest if earliest > now else now
        if start > now:
            self.queue_delay_total += start - now
            self.queued_requests += 1
        completion = start + self.params.t_disk
        heapq.heappush(self._free_at, completion)
        return completion

    def demand_read(self, now: float) -> float:
        self.demand_reads += 1
        return self._serve(now)

    def prefetch_read(self, issue_time: float) -> float:
        self.prefetch_reads += 1
        return self._serve(issue_time)

    def state(self) -> Dict[str, Any]:
        """The read counters, the queueing totals and each drive's free
        time.  The heap list is written as it is: heap order is a property
        of the list layout, which JSON preserves."""
        state = super().state()
        state["free_at"] = list(self._free_at)
        state["queue_delay_total"] = self.queue_delay_total
        state["queued_requests"] = self.queued_requests
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`."""
        super().load_state(state)
        self._free_at = list(state["free_at"])
        self.queue_delay_total = state["queue_delay_total"]
        self.queued_requests = state["queued_requests"]

    def utilisation(self, elapsed: float) -> float:
        """Mean fraction of drive time spent serving, over ``elapsed`` ms."""
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.num_disks))
