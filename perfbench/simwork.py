"""``sim-paper``: the trace-driven engine on its own.

The ``tree`` policy with a 1024-block cache and the paper's constants
(T_cpu = 50 ms, so the prefetch horizon is 1 and only the depth-1
candidate path runs) over the four synthetic paper traces, generated from
the seed.  No transport is involved.

A pass feeds one trace, one reference at a time, to a fresh simulator
through :meth:`Simulator.step` (the loop :meth:`Simulator.run` runs) and
times each chunk of ``CHUNK_REFS`` references, with the harness's ruler
timed just before each chunk.  A pass's chunk times are scaled by the
host speed its rulers read, passes over the four traces repeat until the
measured time is used up, and each chunk counts with its median scaled
time over the passes.  Every pass's ``SimulationStats`` counts must equal
the first pass's of the same trace.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, List, Tuple

from harness import (
    Spans,
    median,
    print_accounting,
    proc_hwm_mb,
    ruler_s,
    speed,
    zeros,
)
from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.traces.synthetic import TRACE_NAMES, make_trace
import repro.policies.tree as tree_module

REFS_PER_TRACE = 24_000
CHUNK_REFS = 1000
CACHE_BLOCKS = 1024
SETUPS = 5
#: The deep path: T_cpu = 2 ms gives prefetch horizon 7, so the tree
#: policy runs the best-first candidate walk the paper constants never
#: reach.  Timed once per traced run, over each trace's first
#: ``DEEP_REFS`` references (the walk is far slower than the depth-1 path).
DEEP_T_CPU_MS = 2.0
DEEP_REFS = 6000

#: Per-layer metrics of layers a simulation never passes through.
SERVICE_ONLY = (
    "session.observe_self_us",
    "protocol.encode_request_us", "protocol.decode_request_us",
    "protocol.encode_reply_us", "protocol.decode_reply_us",
    "protocol.request_bytes", "protocol.reply_bytes",
    "server.handle_self_us", "server.cpu_us_per_ref", "server.transport_us",
    "client.cpu_us_per_ref", "client.wait_us_per_ref", "client.open_ms",
    "client.rtt_p99_ms", "client.rtt_samples",
    "gateway.cpu_us_per_ref", "gateway.hop_us", "gateway.journal_entries",
    "worker.cpu_us_per_ref",
)

Counts = Tuple[int, ...]


def _counts(sim: Simulator) -> Counts:
    s = sim.finalize()
    return (s.accesses, s.demand_hits, s.prefetch_hits, s.misses,
            s.prefetches_issued, s.candidates_already_cached,
            s.candidates_rejected_cost, s.candidates_no_capacity,
            s.prefetched_evicted_unreferenced, sim.policy.tree.node_count)


def _setup(seed: int) -> Tuple[float, Dict[str, List[int]]]:
    """Generate the traces and build the first simulators.

    Returns the host-scaled seconds: each trace's share is scaled by the
    rulers timed on either side of it.
    """
    clock = time.perf_counter
    traces = {}
    scaled = 0.0
    before = ruler_s()
    for name in TRACE_NAMES:
        t0 = clock()
        traces[name] = make_trace(name, REFS_PER_TRACE, seed=seed).as_list()
        Simulator(PAPER_PARAMS, make_policy("tree"), CACHE_BLOCKS)
        secs = clock() - t0
        after = ruler_s()
        scaled += secs * speed([before, after])
        before = after
    return scaled, traces


def _pass(sim: Simulator, blocks: List[int]) -> Tuple[List[float], float]:
    """Step ``sim`` through ``blocks``, timing each chunk and a ruler just
    before it; returns each chunk's seconds and the host speed."""
    step = sim.step
    clock = time.perf_counter
    times, rulers = [], []
    for start in range(0, len(blocks), CHUNK_REFS):
        chunk = blocks[start:start + CHUNK_REFS]
        rulers.append(ruler_s())
        t0 = clock()
        for block in chunk:
            step(block)
        times.append(clock() - t0)
    return times, speed(rulers)


def instrument(spans: Spans, sim: Simulator) -> None:
    """Spans around one simulator's step, policy and buffer-pool calls."""
    sim.step = spans.wrap("sim.step", sim.step)
    policy = sim.policy
    policy.observe = spans.wrap("policies.observe", policy.observe)
    policy.prefetch_round = spans.wrap(
        "policies.prefetch_round", policy.prefetch_round)
    cache = sim.cache
    cache.reference = spans.wrap("cache.reference", cache.reference)
    cache.reclaim_for_demand = spans.wrap(
        "cache.reclaim", cache.reclaim_for_demand)
    cache.try_reclaim_for_prefetch = spans.wrap(
        "cache.reclaim", cache.try_reclaim_for_prefetch)


class CandidateCounter:
    """Counts the candidates ``best_candidates`` hands the tree policy."""

    def __init__(self) -> None:
        self.scored = 0
        self._original = tree_module.best_candidates

    def __enter__(self) -> "CandidateCounter":
        original = self._original

        def counted(*args, **kwargs):
            found = original(*args, **kwargs)
            self.scored += len(found)
            return found

        tree_module.best_candidates = counted
        return self

    def __exit__(self, *exc_info) -> None:
        tree_module.best_candidates = self._original


def _engine_metrics(reference: Dict[str, Counts]) -> Dict[str, float]:
    first_pass = list(reference.values())
    accesses = sum(c[0] for c in first_pass)
    prefetch_hits = sum(c[2] for c in first_pass)
    misses = sum(c[3] for c in first_pass)
    issued = sum(c[4] for c in first_pass)
    proposed = issued + sum(c[5] + c[6] + c[7] for c in first_pass)
    return {
        "sim.miss_rate": misses / accesses,
        "sim.prefetches_per_ref": issued / accesses,
        "sim.proposed_per_ref": proposed / accesses,
        "sim.issued_per_proposed": issued / proposed if proposed else 0.0,
        "sim.prefetch_precision": prefetch_hits / issued if issued else 0.0,
        "sim.tree_nodes": float(max(c[9] for c in first_pass)),
    }


def _schedule(deadline: float) -> Iterator[str]:
    """Trace names round-robin until ``deadline``, each at least once."""
    for i in itertools.count():
        if i >= len(TRACE_NAMES) and time.perf_counter() >= deadline:
            return
        yield TRACE_NAMES[i % len(TRACE_NAMES)]


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns ``(correct, attempted, failed, metric values, spans)``."""
    setups = []
    for _ in range(SETUPS):
        secs, traces = _setup(seed)
        setups.append(secs)
    if trace:
        return _run_traced(workload, traces, seconds)

    reference: Dict[str, Counts] = {}
    scaled: Dict[str, List[List[float]]] = {}
    raw: Dict[str, List[List[float]]] = {}
    attempted = failed = passes = 0
    for name in _schedule(time.perf_counter() + seconds):
        blocks = traces[name]
        sim = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE_BLOCKS)
        times, host = _pass(sim, blocks)
        raw_chunks = raw.setdefault(name, [[] for _ in times])
        scaled_chunks = scaled.setdefault(name, [[] for _ in times])
        for chunk, secs in enumerate(times):
            raw_chunks[chunk].append(secs)
            scaled_chunks[chunk].append(secs * host)
        passes += 1
        attempted += len(blocks)
        counts = _counts(sim)
        if reference.setdefault(name, counts) != counts:
            failed += len(blocks)

    refs = REFS_PER_TRACE * len(TRACE_NAMES)
    chunk_s = [median(v) for name in TRACE_NAMES for v in scaled[name]]
    raw_s = [median(v) for name in TRACE_NAMES for v in raw[name]]
    refs_per_s = refs / sum(chunk_s)
    print(f"{workload}: passes={passes} refs={attempted} "
          f"refs_per_s={refs_per_s:.1f} raw_refs_per_s={refs / sum(raw_s):.1f} "
          f"host_speed={sum(chunk_s) / sum(raw_s):.3f} failed={failed} "
          + " ".join(f"{k}={v:.6g}"
                     for k, v in _engine_metrics(reference).items()))
    values = {
        "setup_s": median(setups),
        "refs_per_s": refs_per_s,
        # One StepResult is the engine's advice for one reference.
        "advice_per_s": refs_per_s,
        "advice_p50_ms": 1e3 * median(chunk_s) / CHUNK_REFS,
        "rss_mb": proc_hwm_mb(),
    }
    return failed == 0, attempted, failed, values, None


def _step_us(params, policy: str, traces, refs: int) -> float:
    """Mean ``Simulator.step`` time over each trace's first ``refs``, in us."""
    steps = Spans()
    for name in TRACE_NAMES:
        sim = Simulator(params, make_policy(policy), CACHE_BLOCKS)
        sim.step = steps.wrap("sim.step", sim.step)
        sim.run(traces[name][:refs])
    return 1e6 * steps.total("sim.step") / len(steps)


def _run_traced(workload: str, traces, seconds: float):
    """Alternate untraced and traced passes of each trace, then attribute."""
    spans = Spans()
    reference: Dict[str, Counts] = {}
    untraced_s = traced_s = 0.0
    traced_refs = attempted = failed = 0
    for name in _schedule(time.perf_counter() + seconds):
        blocks = traces[name]
        for traced in (False, True):
            sim = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE_BLOCKS)
            if traced:
                instrument(spans, sim)
                token = spans.open("sim.run")
            t0 = time.perf_counter()
            sim.run(blocks)
            w = time.perf_counter() - t0
            if traced:
                spans.close(token)
                traced_s += w
                traced_refs += len(blocks)
            else:
                untraced_s += w
            attempted += len(blocks)
            counts = _counts(sim)
            if reference.setdefault(name, counts) != counts:
                failed += len(blocks)
    overhead = 100.0 * (1.0 - untraced_s / traced_s)
    self_s, _ = print_accounting(workload, spans, traced_refs, overhead)
    deep = PAPER_PARAMS.with_t_cpu(DEEP_T_CPU_MS)
    with CandidateCounter() as candidates:
        deep_us = _step_us(deep, "tree", traces, DEEP_REFS)
    per_ref = 1e6 / traced_refs
    values = zeros(SERVICE_ONLY)
    values.update(_engine_metrics(reference))
    values.update({
        "sim.step_self_us": self_s.get("sim.step", 0.0) * per_ref,
        "sim.step_us.no-prefetch": _step_us(PAPER_PARAMS, "no-prefetch",
                                            traces, REFS_PER_TRACE),
        "sim.step_us.cb-markov": _step_us(PAPER_PARAMS, "cb-markov", traces,
                                          REFS_PER_TRACE),
        "sim.step_us.deep": deep_us,
        "policies.observe_us": self_s.get("policies.observe", 0.0) * per_ref,
        "policies.prefetch_round_us":
            self_s.get("policies.prefetch_round", 0.0) * per_ref,
        "policies.candidates_scored_per_ref":
            candidates.scored / (DEEP_REFS * len(TRACE_NAMES)),
        "cache.reference_us": self_s.get("cache.reference", 0.0) * per_ref,
        "cache.reclaim_us": self_s.get("cache.reclaim", 0.0) * per_ref,
        "ops_attempted": float(attempted),
        "ops_failed": float(failed),
        "trace.overhead_pct": overhead,
        "trace.unattributed_us": self_s.get("sim.run", 0.0) * per_ref,
    })
    print(f"{workload}: deep path (T_cpu {DEEP_T_CPU_MS:g} ms, first "
          f"{DEEP_REFS} refs per trace) step {deep_us:.1f} us/ref, "
          f"{values['policies.candidates_scored_per_ref']:.2f} candidates "
          "scored per ref")
    return failed == 0, attempted, failed, values, {"engine": spans}
