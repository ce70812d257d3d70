"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``  Run one policy over a workload and print the statistics.
``sweep``     Miss rate vs cache size for one or more policies.
``trace``     Generate a synthetic workload and write it to a file.
``report``    Run the full experiment battery and write EXPERIMENTS.md
              (thin wrapper over :mod:`repro.analysis.report`).
``stats``     Characterise a workload (sequentiality, reuse, predictability).
``train``     Run a policy over a workload and snapshot the trained state
              (a file or a :class:`~repro.store.ModelStore` registry entry).
``inspect``   Verify a snapshot and print its header, or list a registry.
``serve``     Run the online prefetch advisory daemon (:mod:`repro.service`).
``replay``    Replay a workload against a live daemon and report throughput.
``chaos``     Replay through a fault-injecting proxy (resets, delays,
              corrupt lines) with retrying clients, and report what the
              resilience layer absorbed.
``metrics``   One Prometheus-text-format scrape of a live daemon or
              fleet gateway (the STATS exposition, printed to stdout).
``top``       Live terminal view over server-level STATS: sessions,
              advice rates, latency percentiles, per-worker rows.
``campaign``  The scenario lab (:mod:`repro.campaign`): ``run`` drives a
              declarative scenario file end-to-end against a real fleet
              and writes a content-hashed result bundle; ``compare``
              renders a per-metric delta table against a baseline bundle
              (non-zero exit on regression); ``list`` shows the bundles
              under an output directory.

Examples
--------
::

    python -m repro simulate --trace cad --policy tree --cache 1024
    python -m repro sweep --trace sitar --policies no-prefetch next-limit tree
    python -m repro sweep --trace cello --jobs 4 --cache-dir .repro-results
    python -m repro trace --name snake --refs 200000 --out snake.npz
    python -m repro report --refs 50000 --out EXPERIMENTS.md
    python -m repro stats --trace cello --refs 100000
    python -m repro train --trace cad --policy tree --store models --name tree-cad
    python -m repro inspect --store models --model tree-cad
    python -m repro serve --port 7199 --store models --model tree-cad
    python -m repro fleet --workers 3 --port 7199 --checkpoint-dir ckpt \
        --checkpoint-every-s 1
    python -m repro replay --trace cad --clients 4 --port 7199
    python -m repro replay --trace cad --port 7199 --json
    python -m repro chaos --trace cad --port 7199 --reset-every 40
    python -m repro campaign run examples/campaigns/diurnal_chaos.toml \
        --out .campaigns
    python -m repro campaign compare benchmarks/campaigns/baseline \
        .campaigns/diurnal-chaos-*-w2
    python -m repro campaign list --out .campaigns
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import zipfile
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.scheduler import (
    RunSpec,
    Scheduler,
    SchedulerError,
    resolve_trace,
)
from repro.analysis.sweep import spec_grid
from repro.analysis.tables import render_dict, render_series
from repro.params import PAPER_PARAMS, SystemParams
from repro.policies.registry import make_policy, policy_names
from repro.traces import io as trace_io
from repro.traces.synthetic import TRACE_NAMES, make_trace

#: Policy parameters settable from the command line.
_POLICY_KWARGS = ("threshold", "num_children", "max_tree_nodes",
                  "max_candidates")

#: ``--t-*`` flags mapped onto :class:`SystemParams` fields.
_PARAM_FLAGS = ("t_cpu", "t_disk", "t_driver", "t_hit")


class CLIError(Exception):
    """A user-facing failure: print one line and exit nonzero."""


def _load_workload(args) -> list:
    """Resolve ``--trace`` (generator name or file path) to a block list."""
    if args.trace in TRACE_NAMES:
        trace = make_trace(args.trace, num_references=args.refs, seed=args.seed)
    else:
        try:
            trace = trace_io.load(args.trace)
        except FileNotFoundError:
            raise CLIError(
                f"trace file not found: {args.trace!r} "
                f"(workload names are: {', '.join(TRACE_NAMES)})"
            ) from None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CLIError(
                f"cannot read trace file {args.trace!r}: {exc}"
            ) from None
    return trace.as_list()


def _check_workload(args) -> None:
    """Fail fast (one clean line) on an unusable ``--trace`` argument.

    Named synthetic workloads need no check; a file path is loaded once
    here — into the process-wide trace cache, so the serial execution
    path does not read it twice — purely to surface I/O and format
    errors before any simulation starts.
    """
    if args.trace in TRACE_NAMES:
        return
    try:
        resolve_trace(args.trace, args.refs, args.seed)
    except FileNotFoundError:
        raise CLIError(
            f"trace file not found: {args.trace!r} "
            f"(workload names are: {', '.join(TRACE_NAMES)})"
        ) from None
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CLIError(
            f"cannot read trace file {args.trace!r}: {exc}"
        ) from None


def _run_specs(args, specs: List[RunSpec]) -> tuple:
    """Run a spec batch through one scheduler; returns (results, scheduler).

    The single execution path for ``simulate`` and ``sweep``:
    ``--jobs``-wide process fan-out plus the optional persistent result
    cache, with worker-side failures surfaced as clean one-line errors.
    """
    _check_workload(args)
    try:
        scheduler = Scheduler(
            max_workers=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
            run_timeout_s=getattr(args, "run_timeout_s", None),
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        return scheduler.run_all(specs), scheduler
    except SchedulerError as exc:
        raise CLIError(str(exc)) from None
    except trace_io.TraceFormatError as exc:
        raise CLIError(f"cannot read trace file {args.trace!r}: {exc}") from None


def _param_overrides(args) -> Dict[str, float]:
    """The ``--t-*`` values the user actually set, keyed by field name."""
    return {
        flag: getattr(args, flag)
        for flag in _PARAM_FLAGS
        if getattr(args, flag, None) is not None
    }


def _params(args) -> SystemParams:
    overrides = _param_overrides(args)
    if not overrides:
        return PAPER_PARAMS
    try:
        return replace(PAPER_PARAMS, **overrides)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _policy_kwargs(args) -> dict:
    return {
        key: getattr(args, key)
        for key in _POLICY_KWARGS
        if getattr(args, key, None) is not None
    }


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    """``--t-*`` hardware-timing overrides (cf. bench_modern_hardware)."""
    parser.add_argument("--t-cpu", type=float, default=None, dest="t_cpu",
                        help="override T_cpu (ms); default 50")
    parser.add_argument("--t-disk", type=float, default=None, dest="t_disk",
                        help="override T_disk (ms); default 15")
    parser.add_argument("--t-driver", type=float, default=None,
                        dest="t_driver",
                        help="override T_driver (ms); default 0.58")
    parser.add_argument("--t-hit", type=float, default=None, dest="t_hit",
                        help="override T_hit (ms); default 0.243")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """Distributed-tracing knobs shared by serve/fleet/replay."""
    parser.add_argument(
        "--trace-dir", default=None, dest="trace_dir",
        help="write NDJSON span files here (enables distributed tracing)",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0, dest="trace_sample",
        help="fraction of sessions to trace, sampled deterministically "
             "by trace id (default 1.0)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=0, dest="trace_seed",
        help="seed for trace-id derivation and sampling (default 0)",
    )


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """Address, model, checkpoint, tenancy and overload flags shared by
    serve and fleet (a fleet hands them to every worker)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7199,
                        help="port clients connect to")
    parser.add_argument("--store", default=None,
                        help="model registry directory (enables OPEN with "
                             "a model= spec)")
    parser.add_argument("--model", default=None,
                        help="default registry spec for sessions that "
                             "don't name one (needs --store)")
    parser.add_argument("--checkpoint-dir", default=None,
                        dest="checkpoint_dir",
                        help="periodically snapshot live sessions here; a "
                             "fleet's shared directory enables "
                             "resume-based failover when a worker dies")
    parser.add_argument("--checkpoint-every-s", type=float, default=None,
                        dest="checkpoint_every_s",
                        help="seconds between checkpoint passes")
    parser.add_argument("--tenant-config", default=None,
                        dest="tenant_config",
                        help="JSON tenancy config: shared base models and "
                             "per-tenant quotas (needs --store); a fleet's "
                             "gateway admits against the same quotas "
                             "fleet-wide")
    parser.add_argument("--memory-budget-mb", type=_positive_int,
                        default=None, dest="memory_budget_mb",
                        help="cap accounted model bytes per worker; idle "
                             "sessions are evicted to --checkpoint-dir "
                             "(overrides the config file's "
                             "memory_budget_bytes)")
    parser.add_argument("--max-sessions", type=int, default=1024,
                        dest="max_sessions",
                        help="live-session ceiling per worker, across all "
                             "its connections")
    parser.add_argument("--max-inflight", type=_positive_int, default=None,
                        dest="max_inflight",
                        help="admission watermark: shed new OPENs with "
                             "error=overloaded while this many requests "
                             "are in flight (in a fleet, at the gateway "
                             "and every worker)")
    parser.add_argument("--brownout", action="store_true",
                        help="enable the event-loop-lag watchdog that "
                             "degrades service tier by tier under "
                             "sustained overload")


def _check_serving_flags(args) -> None:
    """Reject the serving-flag combinations serve and fleet cannot run."""
    if args.model is not None and args.store is None:
        raise CLIError("--model needs --store DIR")
    if args.tenant_config is not None and args.store is None:
        raise CLIError(
            "--tenant-config needs --store DIR "
            "(tenant base models live in the registry)"
        )
    if (args.checkpoint_dir is None) != (args.checkpoint_every_s is None):
        raise CLIError(
            "checkpointing needs both --checkpoint-dir and "
            "--checkpoint-every-s"
        )
    if args.checkpoint_every_s is not None and args.checkpoint_every_s <= 0:
        raise CLIError("--checkpoint-every-s must be positive")


def _build_tracer(args, component: str):
    """A :class:`~repro.obs.trace.Tracer` from the --trace-* flags, or
    ``None`` when tracing is off."""
    if args.trace_dir is None:
        return None
    from repro.obs.trace import Tracer

    try:
        return Tracer(
            component, trace_dir=args.trace_dir,
            sample=args.trace_sample, seed=args.trace_seed,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Scheduler knobs shared by simulate/sweep/report."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for independent simulations (default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="persistent result cache: identical runs replay from disk",
    )
    parser.add_argument(
        "--run-timeout-s", type=float, default=None, dest="run_timeout_s",
        help="kill and retry a pooled simulation exceeding this "
             "(needs --jobs > 1)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", required=True,
        help=f"workload name ({', '.join(TRACE_NAMES)}) or a trace file path",
    )
    parser.add_argument("--refs", type=int, default=100_000,
                        help="references to generate (generator traces only)")
    parser.add_argument("--seed", type=int, default=1999)
    _add_param_flags(parser)
    parser.add_argument("--threshold", type=float, default=None,
                        help="tree-threshold's probability threshold")
    parser.add_argument("--num-children", type=int, default=None,
                        dest="num_children",
                        help="tree-children's child count")
    parser.add_argument("--max-tree-nodes", type=int, default=None,
                        dest="max_tree_nodes",
                        help="prefetch-tree node budget (Figure 13)")
    parser.add_argument("--max-candidates", type=int, default=None,
                        dest="max_candidates",
                        help="candidate frontier width per access period")


def _timing_overrides(args) -> Dict[str, float]:
    """Validated ``--t-*`` overrides in :class:`RunSpec` field form."""
    _params(args)  # reject bad values (e.g. negative t_disk) up front
    return _param_overrides(args)


def cmd_simulate(args) -> int:
    spec = RunSpec(
        trace_name=args.trace,
        policy_name=args.policy,
        cache_size=args.cache,
        num_references=args.refs,
        seed=args.seed,
        policy_kwargs=_policy_kwargs(args),
        **_timing_overrides(args),
    )
    results, _ = _run_specs(args, [spec])
    d = results[0].as_dict()
    extra = d.pop("extra")
    print(render_dict(d, title=f"{args.policy} on {args.trace} "
                               f"(cache {args.cache} blocks)"))
    if extra:
        print(render_dict(extra, title="extra"))
    return 0


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    specs = spec_grid(
        [args.trace],
        args.policies,
        args.sizes,
        num_references=args.refs,
        seed=args.seed,
        policy_kwargs=_policy_kwargs(args),
        **_timing_overrides(args),
    )
    results, scheduler = _run_specs(args, specs)
    by_spec = iter(results)
    series = {
        name: [round(next(by_spec).miss_rate, 2) for _ in args.sizes]
        for name in args.policies
    }
    print(render_series("cache_blocks", args.sizes, series,
                        title=f"miss rate (%) on {args.trace}"))
    elapsed = time.perf_counter() - start
    print(f"simulations: {scheduler.counters.summary()} "
          f"jobs={args.jobs} elapsed={elapsed:.2f}s")
    return 0


def cmd_trace(args) -> int:
    trace = make_trace(args.name, num_references=args.refs, seed=args.seed)
    trace_io.save(trace, args.out)
    summary = trace.summary()
    print(render_dict(summary, title=f"wrote {args.out}"))
    return 0


def cmd_stats(args) -> int:
    from repro.analysis.tracestats import characterise

    blocks = _load_workload(args)
    report = characterise(blocks)
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}[{sub}]"] = v
        else:
            flat[key] = value
    print(render_dict(flat, title=f"workload characterisation: {args.trace}"))
    return 0


def cmd_train(args) -> int:
    from repro.service.session import PrefetchSession, SessionError
    from repro.store import (
        ModelStore, model_snapshot, snapshot_session, write_snapshot,
    )
    from repro.store.codec import SnapshotError

    if (args.out is None) == (args.store is None):
        raise CLIError("train needs exactly one of --out FILE or --store DIR")
    if args.store is not None and args.name is None:
        raise CLIError("--store needs --name NAME for the registry entry")
    blocks = _load_workload(args)
    try:
        session = PrefetchSession(
            policy=args.policy,
            cache_size=args.cache,
            params=_params(args),
            policy_kwargs=_policy_kwargs(args) or None,
        )
    except SessionError as exc:
        raise CLIError(str(exc)) from None
    for block in blocks:
        session.observe(block)
    provenance = {"trace": args.trace, "refs": len(blocks),
                  "seed": args.seed, "policy": args.policy}
    try:
        if args.model_only:
            model = session.simulator.policy.model()
            if model is None:
                raise CLIError(
                    f"policy {args.policy!r} has no model to snapshot"
                )
            snapshot = model_snapshot(
                model,
                config={"policy": args.policy, "cache_size": args.cache},
                provenance=provenance,
            )
        else:
            snapshot = snapshot_session(session, provenance=provenance)
        if args.out is not None:
            write_snapshot(snapshot, args.out)
            where = args.out
        else:
            version = ModelStore(args.store).save(args.name, snapshot)
            where = f"{args.store}: {args.name}@{version}"
    except SnapshotError as exc:
        raise CLIError(str(exc)) from None
    summary = {"kind": snapshot.kind, "model": snapshot.model}
    for key, value in sorted(snapshot.counts.items()):
        summary[f"counts[{key}]"] = value
    print(render_dict(
        summary,
        title=f"trained {args.policy} on {args.trace} -> {where}",
    ))
    return 0


def cmd_inspect(args) -> int:
    from repro.store import ModelStore, read_snapshot
    from repro.store.codec import SnapshotError

    if (args.snapshot is None) == (args.store is None):
        raise CLIError(
            "inspect needs exactly one of --snapshot FILE or --store DIR"
        )
    try:
        if args.snapshot is not None:
            snapshot = read_snapshot(args.snapshot)
            source = args.snapshot
        else:
            store = ModelStore(args.store)
            if args.model is None:
                rows = store.list_entries()
                if not rows:
                    print(f"registry {args.store} is empty")
                    return 0
                for row in rows:
                    latest = " (latest)" if row["latest"] else ""
                    counts = ", ".join(
                        f"{k}={v}" for k, v in sorted(row["counts"].items())
                    )
                    print(f"{row['name']}@{row['version']}{latest}: "
                          f"{row['kind']} [{counts}]")
                return 0
            name, version, path = store.resolve(args.model)
            snapshot = read_snapshot(path)
            source = f"{name}@{version}"
    except FileNotFoundError as exc:
        raise CLIError(f"cannot read snapshot: {exc}") from None
    except SnapshotError as exc:
        raise CLIError(str(exc)) from None
    flat = {"kind": snapshot.kind, "model": snapshot.model,
            "records": len(snapshot.records)}
    for section in ("counts", "provenance", "config"):
        for key, value in sorted(snapshot.header.get(section, {}).items()):
            if isinstance(value, dict):
                for sub, v in sorted(value.items()):
                    flat[f"{section}[{key}.{sub}]"] = v
            else:
                flat[f"{section}[{key}]"] = value
    print(render_dict(flat, title=f"snapshot {source} (checksum verified)"))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import PrefetchService, ServiceLimits, serve_forever

    _check_serving_flags(args)
    store = None
    default_model = None
    if args.store is not None:
        from repro.store import ModelStore
        from repro.store.codec import SnapshotError

        store = ModelStore(args.store)
        if args.model is not None:
            try:
                store.resolve(args.model)  # fail fast, before binding
            except SnapshotError as exc:
                raise CLIError(str(exc)) from None
            default_model = args.model
    tenancy = None
    memory_budget_bytes = None
    if args.tenant_config is not None:
        from repro.tenancy.config import (
            TenancyConfigError,
            load_tenancy_config,
        )
        from repro.tenancy.manager import TenancyManager

        try:
            tenant_config = load_tenancy_config(args.tenant_config)
        except TenancyConfigError as exc:
            raise CLIError(str(exc)) from None
        tenancy = TenancyManager(store, tenant_config)
        memory_budget_bytes = tenant_config.memory_budget_bytes
    if args.memory_budget_mb is not None:
        # The flag wins over the config file's memory_budget_bytes.
        memory_budget_bytes = args.memory_budget_mb * 1024 * 1024
    if memory_budget_bytes is not None and args.checkpoint_dir is None:
        raise CLIError(
            "a memory budget needs --checkpoint-dir "
            "(evicted sessions are checkpointed to disk)"
        )
    overload = None
    if args.max_inflight is not None or args.brownout:
        from repro.service.overload import OverloadPolicy

        overload = OverloadPolicy(
            max_inflight=args.max_inflight, brownout=args.brownout,
        )
    tracer = _build_tracer(args, args.worker_id or "worker")
    if args.profile:
        from repro.obs import profile as profile_hooks

        profile_hooks.enable()
    service = PrefetchService(
        default_params=_params(args),
        limits=ServiceLimits(
            max_sessions=args.max_sessions,
            max_sessions_per_connection=args.max_sessions_per_conn,
            idle_timeout_s=args.idle_timeout_s,
            request_timeout_s=args.request_timeout_s,
        ),
        store=store,
        default_model=default_model,
        checkpoint_dir=args.checkpoint_dir,
        identity=args.worker_id,
        tenancy=tenancy,
        memory_budget_bytes=memory_budget_bytes,
        overload=overload,
        tracer=tracer,
    )
    try:
        asyncio.run(serve_forever(
            args.host, args.port, service=service,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_s=args.checkpoint_every_s,
        ))
    except KeyboardInterrupt:
        metrics = service.metrics.as_dict()
        metrics.pop("command_latency", None)
        metrics.pop("outcomes", None)
        print(render_dict(metrics, title="service metrics at shutdown"))
    if args.profile:
        from repro.obs import profile as profile_hooks

        print(profile_hooks.format_report("serve profile"), flush=True)
    from repro.service import protocol as service_protocol

    # One greppable line mirroring the fleet summary's tenancy pair, on
    # both the SIGTERM and the Ctrl-C shutdown paths.  New fields append
    # at the end: CI greps match on the leading pairs' order.
    print(
        f"serve: sessions_evicted={service.metrics.sessions_evicted} "
        f"tenants_rejected={service.metrics.tenants_rejected} "
        f"overload_rejections={service.metrics.overload_rejections} "
        f"brownout_transitions={service.metrics.brownout_transitions} "
        f"checkpoints_deleted={service.metrics.checkpoints_deleted} "
        f"uptime_s={time.monotonic() - service.started_at:.3f} "
        f"proto_version={service_protocol.PROTOCOL_VERSION} "
        f"pid={os.getpid()}",
        flush=True,
    )
    return 0


def cmd_fleet(args) -> int:
    import asyncio

    from repro.cluster.fleet import serve_fleet

    _check_serving_flags(args)
    try:
        asyncio.run(serve_fleet(
            args.host, args.port,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_s=args.checkpoint_every_s,
            store=args.store,
            model=args.model,
            tenant_config=args.tenant_config,
            memory_budget_mb=args.memory_budget_mb,
            max_sessions=args.max_sessions,
            max_inflight=args.max_inflight,
            brownout=args.brownout,
            vnodes=args.vnodes,
            probe_interval_s=args.probe_interval_s,
            trace_dir=args.trace_dir,
            trace_sample=args.trace_sample,
            trace_seed=args.trace_seed,
        ))
    except KeyboardInterrupt:
        pass  # serve_fleet's finally already printed the summary
    return 0


def cmd_chaos(args) -> int:
    import asyncio

    from repro.service.client import (
        ResumeParityError, RetryPolicy, ServiceError,
    )
    from repro.service.faults import ChaosProxy, FaultPlan
    from repro.service.protocol import ProtocolError
    from repro.service.replay import replay_async

    blocks = _load_workload(args)
    overrides = _param_overrides(args)
    try:
        plan = FaultPlan(
            reset_every=args.reset_every,
            delay_every=args.delay_every,
            delay_s=args.delay_ms / 1000.0,
            truncate_every=args.truncate_every,
            garbage_every=args.garbage_every,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    retry = RetryPolicy(max_attempts=args.max_attempts, base_delay_s=0.02,
                        seed=args.seed)

    async def _run():
        async with ChaosProxy(args.host, args.port, plan=plan) as proxy:
            report = await replay_async(
                blocks,
                host="127.0.0.1",
                port=proxy.port,
                clients=args.clients,
                policy=args.policy,
                cache_size=args.cache,
                params=overrides or None,
                policy_kwargs=_policy_kwargs(args) or None,
                disjoint=args.disjoint,
                retry=retry,
            )
            return report, proxy.stats

    try:
        report, stats = asyncio.run(_run())
    except ResumeParityError as exc:
        raise CLIError(f"decision parity violated under chaos: {exc}") from None
    except ConnectionRefusedError:
        raise CLIError(
            f"no server at {args.host}:{args.port} "
            "(start one with: python -m repro serve)"
        ) from None
    except (ServiceError, ProtocolError, ConnectionError,
            TimeoutError) as exc:
        raise CLIError(f"chaos replay failed: {exc}") from None
    flat = report.as_dict()
    flat.pop("outcomes")
    flat.pop("per_client_miss_rate")
    print(render_dict(flat, title=f"chaos replay of {args.trace} "
                                  f"x{args.clients} clients"))
    print(render_dict(stats.as_dict(), title="injected faults"))
    # One greppable line for CI: the replay finished, so every session
    # reached CLOSE — nothing was lost to the injected faults.
    print(f"chaos: drops_injected={stats.drops_injected} "
          f"delays_injected={stats.delays_injected} "
          f"garbage_injected={stats.garbage_injected} "
          f"retries={report.retries} resumes={report.resumes} "
          f"cold_restarts={report.cold_restarts} sessions_lost=0")
    return 0


def cmd_replay(args) -> int:
    from repro.service.client import ServiceError
    from repro.service.protocol import ProtocolError
    from repro.service.replay import replay

    blocks = _load_workload(args)
    overrides = _param_overrides(args)
    tracer = _build_tracer(args, "client")
    if args.profile:
        from repro.obs import profile as profile_hooks

        profile_hooks.enable()
    try:
        report = replay(
            blocks,
            host=args.host,
            port=args.port,
            clients=args.clients,
            policy=args.policy,
            cache_size=args.cache,
            params=overrides or None,
            policy_kwargs=_policy_kwargs(args) or None,
            disjoint=args.disjoint,
            tenant=args.tenant,
            sessions_per_client=args.sessions_per_client,
            tolerate_quota=args.tolerate_quota,
            tolerate_overload=args.tolerate_overload,
            tracer=tracer,
        )
    except ConnectionRefusedError:
        raise CLIError(
            f"no server at {args.host}:{args.port} "
            "(start one with: python -m repro serve)"
        ) from None
    except (ServiceError, ProtocolError) as exc:
        raise CLIError(f"replay failed: {exc}") from None
    finally:
        if tracer is not None:
            tracer.close()
    if args.json:
        import json

        # Machine-readable mode: the full report as one JSON document on
        # stdout, nothing else (campaign tooling and scripts parse this).
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0
    flat = report.as_dict()
    outcomes = flat.pop("outcomes")
    flat.pop("per_client_miss_rate")
    print(render_dict(flat, title=f"replay of {args.trace} "
                                  f"x{args.clients} clients"))
    print(render_dict(outcomes, title="reference outcomes"))
    if args.tenant is not None:
        # Greppable for the tenancy smoke, mirroring the serve/fleet pair.
        print(f"replay: tenant={args.tenant} sessions={report.sessions} "
              f"quota_rejected={report.quota_rejected}", flush=True)
    if args.tolerate_overload:
        # Greppable for the overload smoke: how many OPENs the flood had
        # shed, and how many retry_after_s backoffs clients honoured.
        print(f"replay: sessions={report.sessions} "
              f"overload_rejections={report.overload_rejections} "
              f"overload_backoffs={report.overload_backoffs}", flush=True)
    if args.profile:
        from repro.obs import profile as profile_hooks

        print(profile_hooks.format_report("replay profile"), flush=True)
    if tracer is not None:
        # Greppable for the observability smoke: where the spans went.
        print(f"replay: trace_dir={args.trace_dir} "
              f"spans_recorded={tracer.spans_recorded}", flush=True)
    return 0


def cmd_metrics(args) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import ProtocolError

    try:
        with ServiceClient.connect(args.host, args.port) as client:
            stats = client.server_stats(format="prometheus")
    except ConnectionRefusedError:
        raise CLIError(
            f"no server at {args.host}:{args.port} "
            "(start one with: python -m repro serve)"
        ) from None
    except (ServiceError, ProtocolError, TimeoutError, OSError) as exc:
        raise CLIError(f"metrics scrape failed: {exc}") from None
    exposition = stats.get("exposition")
    if not exposition:
        raise CLIError(
            "server answered STATS without an exposition "
            "(pre-observability server?)"
        )
    # The exposition already ends with a newline; print adds nothing.
    sys.stdout.write(exposition)
    sys.stdout.flush()
    return 0


def cmd_top(args) -> int:
    from repro.obs.top import run_top
    from repro.service.client import ServiceError
    from repro.service.protocol import ProtocolError

    try:
        run_top(
            args.host, args.port,
            interval_s=args.interval_s,
            iterations=1 if args.once else args.iterations,
        )
    except ConnectionRefusedError:
        raise CLIError(
            f"no server at {args.host}:{args.port} "
            "(start one with: python -m repro serve)"
        ) from None
    except KeyboardInterrupt:
        pass
    except (ServiceError, ProtocolError, TimeoutError, OSError) as exc:
        raise CLIError(f"top failed: {exc}") from None
    return 0


def cmd_campaign_run(args) -> int:
    from repro.campaign import (
        CampaignError,
        ScenarioError,
        load_scenario,
        run_scenario,
    )
    from repro.service.client import ResumeParityError

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        raise CLIError(str(exc)) from None
    echo = None if args.quiet else (lambda line: print(line, flush=True))
    try:
        runs = run_scenario(
            scenario,
            out_dir=args.out,
            workdir=args.workdir,
            trace_dir=args.trace_dir,
            echo=echo,
        )
    except ResumeParityError as exc:
        raise CLIError(
            f"decision parity violated during campaign: {exc}"
        ) from None
    except CampaignError as exc:
        raise CLIError(str(exc)) from None
    total_lost = 0
    for bundle, record in runs:
        total_lost += record["sessions_lost"]
        print(
            f"campaign: wrote {bundle.path} "
            f"scenario_hash={bundle.scenario_hash[:12]} "
            f"bundle_hash={bundle.bundle_hash[:12]}"
        )
    # Greppable verdict line, mirroring the fleet/chaos summaries: the
    # campaign finished and (chaos or not) no session went unaccounted.
    print(
        f"campaign: name={scenario.name} runs={len(runs)} "
        f"sessions_lost={total_lost}",
        flush=True,
    )
    return 0 if total_lost == 0 else 1


def cmd_campaign_compare(args) -> int:
    from repro.campaign import BundleError, load_bundle
    from repro.campaign.compare import compare_bundles, render_comparison

    try:
        baseline = load_bundle(args.baseline)
        candidate = load_bundle(args.candidate)
        baseline.verify()
        candidate.verify()
    except BundleError as exc:
        raise CLIError(str(exc)) from None
    comparison = compare_bundles(
        baseline, candidate, perf_tolerance=args.perf_tolerance
    )
    print(render_comparison(comparison))
    passed = comparison.passed(fail_on_perf=args.fail_on_perf)
    print(f"campaign compare: {'PASS' if passed else 'FAIL'}", flush=True)
    return 0 if passed else 1


def cmd_campaign_list(args) -> int:
    from repro.campaign import list_bundles

    bundles = list_bundles(args.out)
    if not bundles:
        print(f"no campaign bundles under {args.out}")
        return 0
    for bundle in bundles:
        lost = sum(
            int(phase.get("sessions_lost", 0))
            for phase in bundle.deterministic_phases
        )
        print(
            f"{bundle.path.name}: scenario={bundle.scenario_hash[:12]} "
            f"bundle={bundle.bundle_hash[:12]} workers={bundle.workers} "
            f"phases={len(bundle.deterministic_phases)} "
            f"sessions_lost={lost}"
        )
    return 0


def cmd_report(args) -> int:
    from repro.analysis import report

    argv = ["--refs", str(args.refs), "--seed", str(args.seed),
            "--out", args.out, "--jobs", str(args.jobs)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    return report.main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-benefit predictive prefetching (SC '99) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one policy on one workload")
    _add_common(p_sim)
    _add_engine_flags(p_sim)
    p_sim.add_argument("--policy", choices=policy_names(), default="tree")
    p_sim.add_argument("--cache", type=int, default=1024,
                       help="cache size in blocks")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="miss rate vs cache size")
    _add_common(p_sweep)
    _add_engine_flags(p_sweep)
    p_sweep.add_argument("--policies", nargs="+", default=["no-prefetch", "tree"],
                         choices=policy_names())
    p_sweep.add_argument("--sizes", type=int, nargs="+",
                         default=[128, 256, 512, 1024, 2048, 4096])
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser("trace", help="generate a workload file")
    p_trace.add_argument("--name", choices=TRACE_NAMES, required=True)
    p_trace.add_argument("--refs", type=int, default=100_000)
    p_trace.add_argument("--seed", type=int, default=1999)
    p_trace.add_argument("--out", required=True,
                         help="output path (.trace text or .npz)")
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="characterise a workload's prefetchability"
    )
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_rep = sub.add_parser("report", help="write EXPERIMENTS.md")
    p_rep.add_argument("--refs", type=int, default=50_000)
    p_rep.add_argument("--seed", type=int, default=1999)
    p_rep.add_argument("--out", default="EXPERIMENTS.md")
    _add_engine_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_train = sub.add_parser(
        "train", help="train a policy offline and snapshot the result"
    )
    _add_common(p_train)
    p_train.add_argument("--policy", choices=policy_names(), default="tree")
    p_train.add_argument("--cache", type=int, default=1024,
                         help="cache size in blocks")
    p_train.add_argument("--out", default=None,
                         help="write the snapshot to this file")
    p_train.add_argument("--store", default=None,
                         help="save into this registry directory instead")
    p_train.add_argument("--name", default=None,
                         help="registry entry name (with --store)")
    p_train.add_argument(
        "--model-only", action="store_true", dest="model_only",
        help="snapshot just the model (portable warm start) instead of "
             "the whole session (decision-identical resume)",
    )
    p_train.set_defaults(func=cmd_train)

    p_inspect = sub.add_parser(
        "inspect", help="verify a snapshot and print its header"
    )
    p_inspect.add_argument("--snapshot", default=None,
                           help="snapshot file to verify and summarise")
    p_inspect.add_argument("--store", default=None,
                           help="registry directory")
    p_inspect.add_argument(
        "--model", default=None,
        help="registry spec NAME[@VERSION] (with --store); "
             "omit to list every entry",
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_serve = sub.add_parser(
        "serve", help="run the online prefetch advisory daemon"
    )
    _add_serving_flags(p_serve)
    p_serve.add_argument("--max-sessions-per-conn", type=int, default=64,
                         dest="max_sessions_per_conn")
    p_serve.add_argument("--idle-timeout-s", type=float, default=300.0,
                         dest="idle_timeout_s",
                         help="drop connections silent for this long "
                              "(default 300)")
    p_serve.add_argument("--request-timeout-s", type=float, default=60.0,
                         dest="request_timeout_s",
                         help="bound on draining one reply to a slow "
                              "reader (default 60)")
    p_serve.add_argument("--worker-id", default=None, dest="worker_id",
                         help="fleet identity (e.g. w2): reported by "
                              "server-level STATS and prefixed onto "
                              "generated session ids")
    _add_trace_flags(p_serve)
    p_serve.add_argument("--profile", action="store_true",
                         help="time engine hot-path stages and print a "
                              "per-stage report at shutdown")
    _add_param_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded advisory fleet: gateway + N supervised workers",
    )
    _add_serving_flags(p_fleet)
    p_fleet.add_argument("--workers", type=_positive_int, default=2,
                         help="advisory worker subprocesses to supervise")
    p_fleet.add_argument("--vnodes", type=_positive_int, default=64,
                         help="virtual nodes per worker on the hash ring")
    p_fleet.add_argument("--probe-interval-s", type=float, default=1.0,
                         dest="probe_interval_s",
                         help="seconds between worker liveness probes")
    _add_trace_flags(p_fleet)
    p_fleet.set_defaults(func=cmd_fleet)

    p_replay = sub.add_parser(
        "replay", help="replay a workload against a live daemon"
    )
    _add_common(p_replay)
    p_replay.add_argument("--host", default="127.0.0.1")
    p_replay.add_argument("--port", type=int, default=7199)
    p_replay.add_argument("--clients", type=int, default=4,
                          help="concurrent replay sessions")
    p_replay.add_argument("--policy", choices=policy_names(), default="tree")
    p_replay.add_argument("--cache", type=int, default=1024,
                          help="per-session cache size in blocks")
    p_replay.add_argument("--disjoint", action="store_true",
                          help="give each client a private block-id range")
    p_replay.add_argument("--tenant", default=None,
                          help="open every session under this tenant "
                               "(server must run with --tenant-config)")
    p_replay.add_argument("--sessions-per-client", type=_positive_int,
                          default=1, dest="sessions_per_client",
                          help="sessions each client opens back to back "
                               "(session-churn load)")
    p_replay.add_argument("--tolerate-quota", action="store_true",
                          dest="tolerate_quota",
                          help="count quota_exceeded rejections instead "
                               "of failing the replay")
    p_replay.add_argument("--tolerate-overload", action="store_true",
                          dest="tolerate_overload",
                          help="count overloaded sheds instead of failing "
                               "the replay (deliberate-flood harness)")
    p_replay.add_argument("--json", action="store_true",
                          help="print the full report as JSON on stdout "
                               "(machine-readable; suppresses the tables)")
    _add_trace_flags(p_replay)
    p_replay.add_argument("--profile", action="store_true",
                          help="time client-side stages and print a "
                               "per-stage report after the replay")
    p_replay.set_defaults(func=cmd_replay)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay through a fault-injecting proxy with retrying clients",
    )
    _add_common(p_chaos)
    p_chaos.add_argument("--host", default="127.0.0.1",
                         help="the real server to proxy to")
    p_chaos.add_argument("--port", type=int, default=7199)
    p_chaos.add_argument("--clients", type=int, default=2,
                         help="concurrent resilient replay sessions")
    p_chaos.add_argument("--policy", choices=policy_names(), default="tree")
    p_chaos.add_argument("--cache", type=int, default=1024,
                         help="per-session cache size in blocks")
    p_chaos.add_argument("--disjoint", action="store_true",
                         help="give each client a private block-id range")
    p_chaos.add_argument("--reset-every", type=_positive_int, default=None,
                         dest="reset_every",
                         help="drop every Nth reply and reset the connection")
    p_chaos.add_argument("--delay-every", type=_positive_int, default=None,
                         dest="delay_every",
                         help="stall every Nth reply by --delay-ms")
    p_chaos.add_argument("--delay-ms", type=float, default=10.0,
                         dest="delay_ms")
    p_chaos.add_argument("--truncate-every", type=_positive_int, default=None,
                         dest="truncate_every",
                         help="cut every Nth reply mid-line, then reset")
    p_chaos.add_argument("--garbage-every", type=_positive_int, default=None,
                         dest="garbage_every",
                         help="prepend a non-JSON line to every Nth reply")
    p_chaos.add_argument("--max-attempts", type=_positive_int, default=8,
                         dest="max_attempts",
                         help="client retry budget per observation")
    p_chaos.set_defaults(func=cmd_chaos)

    p_metrics = sub.add_parser(
        "metrics",
        help="scrape a live server's Prometheus text exposition to stdout",
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, default=7199)
    p_metrics.set_defaults(func=cmd_metrics)

    p_top = sub.add_parser(
        "top",
        help="live terminal view of a server or fleet (rates, latency, "
             "brownout, per-worker health)",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=7199)
    p_top.add_argument("--interval-s", type=float, default=2.0,
                       dest="interval_s",
                       help="seconds between refreshes (default 2)")
    p_top.add_argument("--iterations", type=_positive_int, default=None,
                       help="stop after N frames (default: run until ^C)")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit "
                            "(shorthand for --iterations 1)")
    p_top.set_defaults(func=cmd_top)

    p_camp = sub.add_parser(
        "campaign",
        help="declarative scenario lab: run campaigns, compare bundles",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_crun = camp_sub.add_parser(
        "run", help="drive a scenario file end-to-end, write a bundle"
    )
    p_crun.add_argument("scenario",
                        help="scenario file (.toml or .json)")
    p_crun.add_argument("--out", default=".repro-campaigns",
                        help="bundle output directory "
                             "(default .repro-campaigns)")
    p_crun.add_argument("--workdir", default=None,
                        help="scratch directory for worker checkpoints "
                             "(default: inside the bundle directory)")
    p_crun.add_argument("--quiet", action="store_true",
                        help="suppress per-phase progress lines")
    p_crun.add_argument("--trace-dir", default=None, dest="trace_dir",
                        help="write distributed-tracing spans here; span "
                             "accounting lands in results.json only, so "
                             "bundle hashes are unchanged")
    p_crun.set_defaults(func=cmd_campaign_run)

    p_ccmp = camp_sub.add_parser(
        "compare",
        help="per-metric delta table vs a baseline bundle "
             "(exit 1 on regression)",
    )
    p_ccmp.add_argument("baseline", help="baseline bundle directory")
    p_ccmp.add_argument("candidate", help="candidate bundle directory")
    p_ccmp.add_argument("--perf-tolerance", type=float, default=0.5,
                        dest="perf_tolerance",
                        help="relative wall-clock drift tolerated before "
                             "flagging (default 0.5 = 50%%)")
    p_ccmp.add_argument("--fail-on-perf", action="store_true",
                        dest="fail_on_perf",
                        help="treat perf drift beyond tolerance as a "
                             "failure (same-machine A/B runs)")
    p_ccmp.set_defaults(func=cmd_campaign_compare)

    p_clist = camp_sub.add_parser(
        "list", help="list campaign bundles under an output directory"
    )
    p_clist.add_argument("--out", default=".repro-campaigns",
                         help="bundle output directory")
    p_clist.set_defaults(func=cmd_campaign_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
