"""The spec-driven experiment engine: specs, execution, and scheduling.

Every execution path in the repository — the memoised
:class:`~repro.analysis.runner.ExperimentContext` behind the benchmarks,
the figure harnesses in :mod:`repro.analysis.experiments`, the CLI's
``simulate``/``sweep``/``report`` commands, and ad-hoc batch fan-outs —
describes a simulation as one :class:`RunSpec`: workload, policy, cache
size, reference count, seed, timing overrides, and the policy/simulator
keyword arguments.  Specs are:

* **content-hashable** — :func:`spec_hash` derives a stable SHA-256 from
  the spec's canonical-JSON form (sorted keys, compact, no NaN; the same
  deterministic encoding :mod:`repro.store.codec` uses for snapshots), so
  identical work is identified across processes, sessions, and machines;
* **cheap to ship** — workers regenerate traces from ``(name, refs,
  seed)`` rather than unpickling megabytes of block ids;
* **executable anywhere** — :func:`execute` is the single function that
  turns a spec into :class:`~repro.sim.stats.SimulationStats`, both
  in-process and inside pool workers.

Batches of specs are submitted to a :class:`Scheduler`, which decides
*how* they run:

1. **dedup** — specs are keyed by :func:`spec_hash`; identical work
   submitted twice in one batch (Figures 7-10 all read the tree policy's
   cache-size sweep) simulates once;
2. **memo** — results live in an in-process dict for the scheduler's
   lifetime, so a bench session pays for each distinct simulation once;
3. **result store** — with a ``cache_dir``, results also persist as
   checksummed, atomically-written snapshot files
   (:mod:`repro.store.codec`), so a *re-run* of the battery — another
   process, another day — replays from disk with zero simulations;
4. **fan-out** — whatever is left executes on a
   :class:`~concurrent.futures.ProcessPoolExecutor` (``max_workers > 1``)
   or in-process (``max_workers == 1``: no pool, no pickling, no
   multiprocessing complexity for tests and single-core machines).

Results always come back in input order, each carrying its wall time in
``stats.extra["wall_time_s"]``.  :attr:`Scheduler.counters` records how
every submitted spec was satisfied, which is what the CLI prints and the
CI cache-hit assertions grep.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.params import PAPER_PARAMS, SystemParams
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.sim.stats import SimulationStats
from repro.store.codec import (
    PathLike,
    Snapshot,
    SnapshotCorruptError,
    canonical_json,
    read_snapshot,
    write_snapshot,
)
from repro.traces import io as trace_io
from repro.traces.base import Trace
from repro.traces.synthetic import TRACE_NAMES, make_trace

#: Hash-schema marker baked into every spec hash.  Bump when the meaning
#: of a field changes incompatibly; old on-disk result caches then miss
#: cleanly instead of returning stale stats.
SPEC_SCHEMA = 1

#: SystemParams fields a spec may override (None = paper constant).
TIMING_FIELDS = ("t_cpu", "t_disk", "t_driver", "t_hit")

#: Snapshot ``kind`` for cached simulation results (the store layer's
#: ``model``/``session`` kinds hold trained state; this one holds stats).
KIND_RESULT = "result"


@dataclass(frozen=True)
class RunSpec:
    """One simulation: workload x policy x cache size (+ knobs).

    ``trace_name`` is either a synthetic workload name (regenerated from
    ``(num_references, seed)`` wherever the spec runs) or a path to a
    trace file.  File-backed specs execute normally but are excluded from
    the persistent result cache — file contents are not part of the hash,
    so caching them would be unsound (see :attr:`cacheable`).
    """

    trace_name: str
    policy_name: str
    cache_size: int
    num_references: int = 50_000
    seed: int = 1999
    t_cpu: Optional[float] = None
    t_disk: Optional[float] = None
    t_driver: Optional[float] = None
    t_hit: Optional[float] = None
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    sim_kwargs: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        return (
            f"{self.trace_name}/{self.policy_name}"
            f"@{self.cache_size}x{self.num_references}"
        )

    @property
    def cacheable(self) -> bool:
        """True when the spec is safe to cache on disk by its hash alone.

        Synthetic workloads are pure functions of ``(name, refs, seed)``;
        a trace *file* can change under the same path, so file-backed
        specs only ever hit the in-memory memo.
        """
        return self.trace_name in TRACE_NAMES

    def params(self) -> SystemParams:
        """The paper's constants with this spec's timing overrides applied."""
        overrides = {
            name: getattr(self, name)
            for name in TIMING_FIELDS
            if getattr(self, name) is not None
        }
        return replace(PAPER_PARAMS, **overrides) if overrides else PAPER_PARAMS

    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form; the input to :func:`spec_hash`."""
        out: Dict[str, Any] = {"spec_schema": SPEC_SCHEMA}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


def spec_hash(spec: RunSpec) -> str:
    """Stable content hash of a spec (hex SHA-256 of its canonical JSON).

    Raises :class:`TypeError` when a policy/sim kwarg is not canonically
    JSON-encodable.  This is deliberate: the old memo keys fell back to
    ``str()`` for unknown objects, which silently collided distinct
    configurations whose reprs matched; refusing to hash is the loud
    alternative.
    """
    try:
        payload = canonical_json(spec.as_dict())
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"run spec for {spec.label()} is not canonically hashable "
            f"(policy_kwargs/sim_kwargs must be JSON values): {exc}"
        ) from None
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- traces

#: Per-process trace cache: a scheduler batch (or a pool worker handed
#: many specs of one workload) regenerates each distinct trace once, not
#: once per run.  Bounded so long multi-configuration sessions cannot
#: hold every workload ever generated.
_TRACE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
_TRACE_CACHE_MAX = 8


def resolve_trace(name: str, num_references: int, seed: int) -> Trace:
    """Materialise a spec's workload (synthetic name or file path), cached."""
    key = (str(name), num_references, seed)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        return cached
    if name in TRACE_NAMES:
        trace = make_trace(name, num_references=num_references, seed=seed)
    else:
        trace = trace_io.load(name)
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)
    return trace


# ---------------------------------------------------------------- execute


def execute(spec: RunSpec) -> SimulationStats:
    """Run one spec to completion (used directly and by pool workers).

    The per-run wall time lands in ``stats.extra["wall_time_s"]`` and the
    spec label in ``stats.extra["spec"]``; parity comparisons should
    ignore the former (it is the one nondeterministic field).
    """
    start = time.perf_counter()
    trace = resolve_trace(spec.trace_name, spec.num_references, spec.seed)
    policy = make_policy(spec.policy_name, **spec.policy_kwargs)
    # File-level policies need the workload's extent map; the synthetic
    # file workloads publish it in their params.
    from repro.policies.file_prefetch import FilePrefetchPolicy

    if (
        isinstance(policy, FilePrefetchPolicy)
        and policy.extent_map is None
        and trace.params.get("extents")
    ):
        policy.attach_extents(trace.params["extents"])
    sim = Simulator(spec.params(), policy, spec.cache_size, **spec.sim_kwargs)
    stats = sim.run(trace.as_list())
    stats.extra["spec"] = spec.label()
    stats.extra["wall_time_s"] = round(time.perf_counter() - start, 6)
    return stats


def run_batch(
    specs: Sequence[RunSpec],
    *,
    max_workers: int = 1,
    cache_dir: Optional[str] = None,
) -> List[SimulationStats]:
    """Execute all specs through a one-shot scheduler; results in input order.

    Thin wrapper over :class:`Scheduler` for callers that do not need to
    keep the memo between batches.
    """
    return Scheduler(max_workers=max_workers, cache_dir=cache_dir).run_all(
        list(specs)
    )


# --------------------------------------------------------------- scheduling


class SchedulerError(Exception):
    """A spec could not be satisfied even after its retry.

    Raised (with the original failure chained) when a worker process
    crashes or exceeds the run timeout twice for the same spec — a
    persistent problem, not the transient kind the retry exists for.
    """


class ResultStore:
    """Persistent spec-hash -> :class:`SimulationStats` store.

    Layout: ``<root>/<hash[:2]>/<hash>.snap``, one snapshot per result,
    sharded by the first hash byte so a full battery (hundreds of files)
    does not pile into one directory.  Files are written atomically
    (temp + fsync + rename) and carry the codec's SHA-256 body checksum;
    a truncated or bit-flipped entry raises
    :class:`~repro.store.codec.SnapshotCorruptError` on load instead of
    silently feeding a wrong result into a figure.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.snap"

    def load(self, key: str) -> Optional[SimulationStats]:
        """The cached stats for ``key``, or ``None`` when absent.

        Corrupt entries raise; they are never treated as misses.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        snapshot = read_snapshot(path)
        if snapshot.kind != KIND_RESULT or len(snapshot.records) != 1:
            raise SnapshotCorruptError(
                f"{path} is not a result snapshot "
                f"(kind={snapshot.kind!r}, records={len(snapshot.records)})"
            )
        try:
            return SimulationStats.from_record(snapshot.records[0])
        except (TypeError, ValueError) as exc:
            raise SnapshotCorruptError(
                f"{path} holds an unreadable stats record: {exc}"
            ) from None

    def save(self, key: str, spec: RunSpec, stats: SimulationStats) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        snapshot = Snapshot(
            kind=KIND_RESULT,
            model=spec.policy_name,
            header={
                "config": spec.as_dict(),
                "counts": {"accesses": stats.accesses},
            },
            records=[stats.to_record()],
        )
        write_snapshot(snapshot, path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.snap"))


@dataclass
class SchedulerCounters:
    """How each submitted spec was satisfied (cumulative per scheduler)."""

    submitted: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    deduped: int = 0
    retried: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "deduped": self.deduped,
            "retried": self.retried,
        }

    def summary(self) -> str:
        """One-line form for CLI output (and CI's cache-hit greps)."""
        return (
            f"submitted={self.submitted} executed={self.executed} "
            f"memo_hits={self.memo_hits} disk_hits={self.disk_hits} "
            f"deduped={self.deduped} retried={self.retried}"
        )


class Scheduler:
    """Dedup + two-tier cache + pool fan-out over :class:`RunSpec` batches."""

    def __init__(
        self,
        *,
        max_workers: int = 1,
        cache_dir: Optional[PathLike] = None,
        run_timeout_s: Optional[float] = None,
        task: Callable[[RunSpec], SimulationStats] = execute,
    ) -> None:
        """``run_timeout_s`` bounds each pooled simulation (a hung worker
        is terminated and the spec retried once); it only applies when
        ``max_workers > 1``, because in-process execution cannot be
        preempted.  ``task`` is the per-spec worker function — the default
        is the real simulation; tests substitute crashing/hanging stand-ins
        to exercise the fault handling."""
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ValueError(
                f"run_timeout_s must be positive, got {run_timeout_s!r}"
            )
        self.max_workers = max_workers
        self.run_timeout_s = run_timeout_s
        self.task = task
        self.store: Optional[ResultStore] = (
            ResultStore(cache_dir) if cache_dir is not None else None
        )
        self.memo: Dict[str, SimulationStats] = {}
        self.counters = SchedulerCounters()

    # ----------------------------------------------------------- submit

    def run(self, spec: RunSpec) -> SimulationStats:
        """Run (or recall) a single spec."""
        return self.run_all([spec])[0]

    def run_all(self, specs: Sequence[RunSpec]) -> List[SimulationStats]:
        """Satisfy every spec; results in input order.

        Each spec is resolved through the tiers in order — in-memory
        memo, persistent store (cacheable specs only), then execution —
        and a batch executes each *distinct* spec exactly once however
        many times it was submitted.
        """
        specs = list(specs)
        self.counters.submitted += len(specs)
        results: List[Optional[SimulationStats]] = [None] * len(specs)
        pending_indices: Dict[str, List[int]] = {}
        pending_specs: Dict[str, RunSpec] = {}
        for i, spec in enumerate(specs):
            key = spec_hash(spec)
            hit = self.memo.get(key)
            if hit is not None:
                self.counters.memo_hits += 1
                results[i] = hit
                continue
            if key in pending_indices:
                self.counters.deduped += 1
                pending_indices[key].append(i)
                continue
            if self.store is not None and spec.cacheable:
                loaded = self.store.load(key)
                if loaded is not None:
                    self.counters.disk_hits += 1
                    self.memo[key] = loaded
                    results[i] = loaded
                    continue
            pending_indices[key] = [i]
            pending_specs[key] = spec
        order = list(pending_specs)
        to_run = [pending_specs[key] for key in order]
        for key, spec, stats in zip(order, to_run, self._execute(to_run)):
            self.counters.executed += 1
            self.memo[key] = stats
            if self.store is not None and spec.cacheable:
                self.store.save(key, spec, stats)
            for i in pending_indices[key]:
                results[i] = stats
        return results  # type: ignore[return-value]  # every slot is filled

    # ---------------------------------------------------------- execute

    def _execute(self, specs: List[RunSpec]) -> List[SimulationStats]:
        if not specs:
            return []
        if self.max_workers == 1 or len(specs) == 1:
            return [self.task(spec) for spec in specs]
        workers = min(self.max_workers, len(specs))
        results, failures = self._pool_round(specs, workers)
        for index in sorted(failures):
            # One retry, each spec in its own fresh single-worker pool:
            # a crashed worker breaks its whole pool, so sharing a retry
            # pool would let one persistently-bad spec poison the batch's
            # innocent bystanders a second time.
            self.counters.retried += 1
            results[index] = self._retry_one(specs[index], failures[index])
        return [results[index] for index in range(len(specs))]

    def _pool_round(
        self, specs: List[RunSpec], workers: int
    ) -> tuple:
        """First pass over the pool; returns (results, failures) by index.

        Worker crashes (``BrokenProcessPool``) and per-run timeouts land
        in ``failures`` for the retry pass; ordinary exceptions raised by
        the task (bad trace file, invalid parameters) propagate unchanged
        — retrying those cannot help.
        """
        results: Dict[int, SimulationStats] = {}
        failures: Dict[int, BaseException] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        killed = False
        try:
            futures = [pool.submit(self.task, spec) for spec in specs]
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result(
                        timeout=self.run_timeout_s
                    )
                except FutureTimeoutError:
                    failures[index] = TimeoutError(
                        f"simulation exceeded {self.run_timeout_s}s"
                    )
                    # The worker is stuck, not dead; terminate the whole
                    # pool (remaining futures fail into the retry pass).
                    self._kill_pool(pool)
                    killed = True
                except (BrokenProcessPool, CancelledError) as exc:
                    failures[index] = exc
        finally:
            pool.shutdown(wait=not killed, cancel_futures=True)
        return results, failures

    def _retry_one(
        self, spec: RunSpec, first_failure: BaseException
    ) -> SimulationStats:
        pool = ProcessPoolExecutor(max_workers=1)
        killed = False
        try:
            return pool.submit(self.task, spec).result(
                timeout=self.run_timeout_s
            )
        except FutureTimeoutError:
            self._kill_pool(pool)
            killed = True
            raise SchedulerError(
                f"{spec.policy_name} on {spec.trace_name}: timed out twice "
                f"(run_timeout_s={self.run_timeout_s})"
            ) from first_failure
        except BrokenProcessPool as exc:
            raise SchedulerError(
                f"{spec.policy_name} on {spec.trace_name}: worker process "
                "crashed twice"
            ) from exc
        finally:
            pool.shutdown(wait=not killed, cancel_futures=True)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()

    # ------------------------------------------------------- inspection

    def __len__(self) -> int:
        """Distinct results held in the in-memory memo."""
        return len(self.memo)
