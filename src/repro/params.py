"""System model parameters for the trace-driven prefetching simulator.

The paper (Section 3 / Section 8.1) models a uniprocessor with a file buffer
cache and constant-cost I/O primitives.  All times are in **milliseconds**,
matching the paper's reporting units:

* ``t_hit``    -- time to read a block that is already in the buffer cache
                  (0.243 ms, from Patterson's TIP measurements).
* ``t_driver`` -- device-driver overhead to initiate a prefetch or demand
                  fetch: allocate a buffer, queue the request, service the
                  completion interrupt (0.580 ms).
* ``t_disk``   -- constant disk access time (15.0 ms).
* ``t_cpu``    -- average computation time between two I/O requests
                  (50.0 ms by default; Section 9.2.3 varies 20-640 ms).

The paper assumes an unbounded number of disks (no congestion), single-block
I/O requests, and a buffer cache partitioned into a demand cache (LRU) and a
prefetch cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict


@dataclass(frozen=True)
class SystemParams:
    """Immutable bundle of the simulator's timing and sizing constants.

    Instances are hashable and safe to share between policies, the
    cost-benefit engine, and the simulation engine.
    """

    t_hit: float = 0.243
    t_driver: float = 0.580
    t_disk: float = 15.0
    t_cpu: float = 50.0
    block_size: int = 8192
    """Bytes per cache block; used to convert byte-sized L1 caches and the
    paper's megabyte figures into block counts."""

    def __post_init__(self) -> None:
        for name in ("t_hit", "t_driver", "t_disk", "t_cpu"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if self.t_disk <= 0.0:
            raise ValueError(f"t_disk must be positive, got {self.t_disk!r}")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size!r}")

    @property
    def t_miss(self) -> float:
        """Full cost of a demand miss: driver overhead, disk access, cache read.

        ``T_miss = T_driver + T_disk + T_hit`` (Section 6.2).
        """
        return self.t_driver + self.t_disk + self.t_hit

    def access_period_compute(self, s: float) -> float:
        """CPU time consumed in one access period when issuing ``s`` prefetches.

        One access period contains the application computation ``t_cpu``, the
        buffer-cache read ``t_hit`` and ``s`` driver invocations (Eq. 3's
        per-period term).
        """
        if s < 0.0:
            raise ValueError(f"s must be non-negative, got {s!r}")
        return self.t_cpu + self.t_hit + s * self.t_driver

    def bytes_to_blocks(self, num_bytes: int) -> int:
        """Convert a byte count (e.g. a 30 MB L1 cache) to whole blocks."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes!r}")
        return num_bytes // self.block_size

    def with_t_cpu(self, t_cpu: float) -> "SystemParams":
        """Return a copy with a different compute time (Section 9.2.3 sweeps)."""
        return replace(self, t_cpu=t_cpu)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view, for experiment manifests and reports."""
        return {
            "t_hit": self.t_hit,
            "t_driver": self.t_driver,
            "t_disk": self.t_disk,
            "t_cpu": self.t_cpu,
            "block_size": self.block_size,
        }


#: The exact constants used throughout the paper's evaluation (Section 8.1).
PAPER_PARAMS = SystemParams()
