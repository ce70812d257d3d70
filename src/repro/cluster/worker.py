"""Worker fleet management: spawn, probe, restart, drain.

Two ``WorkerDirectory`` implementations back the gateway:

* :class:`WorkerSupervisor` — the production path: spawns N
  ``python -m repro serve`` subprocesses on ephemeral ports, watches
  each with both ``proc.wait()`` and periodic server-level STATS probes,
  restarts crashed workers with bounded exponential backoff, and fans
  SIGTERM out on :meth:`stop` so every worker drains its sessions to the
  shared checkpoint directory.
* :class:`StaticWorkerDirectory` — a hand-wired map for tests: register
  in-process :class:`~repro.service.server.BackgroundServer` workers (or
  a :class:`~repro.service.faults.ChaosProxy` standing in front of one)
  and flip them up/down explicitly.

A directory's job is only *membership*: who the workers are, where they
listen, and a callback stream of up/down transitions.  Routing (the
ring) and failover (resume-on-successor) live in the gateway, which
subscribes via :meth:`add_listener`.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.service.server import wait_port_ready

#: An up/down transition: ``callback(worker_id, up)``.
Listener = Callable[[str, bool], None]


class WorkerDirectory:
    """Membership interface the gateway consumes (see module docstring)."""

    def __init__(self) -> None:
        self._listeners: List[Listener] = []

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        """Live workers: ``{worker_id: (host, port)}``."""
        raise NotImplementedError

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def _notify(self, worker_id: str, up: bool) -> None:
        for listener in list(self._listeners):
            listener(worker_id, up)


class StaticWorkerDirectory(WorkerDirectory):
    """Manual membership for tests; nothing is spawned or probed."""

    def __init__(self) -> None:
        super().__init__()
        self._endpoints: Dict[str, Tuple[str, int]] = {}

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        return dict(self._endpoints)

    def register(self, worker_id: str, host: str, port: int) -> None:
        self._endpoints[worker_id] = (host, port)
        self._notify(worker_id, True)

    def mark_down(self, worker_id: str) -> None:
        if self._endpoints.pop(worker_id, None) is not None:
            self._notify(worker_id, False)

    def mark_up(self, worker_id: str, host: str, port: int) -> None:
        self.register(worker_id, host, port)


class WorkerStartupError(RuntimeError):
    """A spawned worker never reported a listening port."""


class _Worker:
    """One supervised subprocess slot (survives restarts of its process)."""

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.up = False
        self.restarts = 0
        self.task: Optional[asyncio.Task] = None


class WorkerSupervisor(WorkerDirectory):
    """Spawn and babysit N advisory-server subprocesses.

    ::

        supervisor = WorkerSupervisor(3, checkpoint_dir="ckpt")
        await supervisor.start()
        gateway = AdvisoryGateway(supervisor)
        ...
        await supervisor.stop()   # SIGTERM fan-out: workers drain to ckpt

    Liveness is judged two ways: ``proc.wait()`` catches crashes
    instantly, and a periodic server-level STATS probe catches a process
    that is alive but wedged (accepting nothing).  Either takes the
    worker through down -> backoff -> respawn -> up; listeners see both
    transitions, so a gateway can fail sessions over while the
    replacement boots and re-admit the worker when it is back.
    """

    def __init__(
        self,
        count: int,
        *,
        host: str = "127.0.0.1",
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_s: Optional[float] = None,
        store: Optional[str] = None,
        model: Optional[str] = None,
        tenant_config: Optional[str] = None,
        memory_budget_mb: Optional[int] = None,
        max_sessions: int = 1024,
        max_inflight: Optional[int] = None,
        brownout: bool = False,
        trace_dir: Optional[str] = None,
        trace_sample: Optional[float] = None,
        trace_seed: Optional[int] = None,
        probe_interval_s: float = 1.0,
        probe_timeout_s: float = 5.0,
        restart_backoff_s: float = 0.1,
        restart_backoff_max_s: float = 5.0,
        startup_timeout_s: float = 30.0,
        python: Optional[str] = None,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        super().__init__()
        if count < 1:
            raise ValueError(f"need at least one worker, got {count!r}")
        self.host = host
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every_s = checkpoint_every_s
        self.store = store
        self.model = model
        self.tenant_config = tenant_config
        self.memory_budget_mb = memory_budget_mb
        self.max_sessions = max_sessions
        self.max_inflight = max_inflight
        self.brownout = brownout
        #: Tracing flags forwarded to every worker's serve argv; workers
        #: write per-component NDJSON span files into ``trace_dir`` (the
        #: gateway, sharing the directory, is the head-based sampler).
        self.trace_dir = trace_dir
        self.trace_sample = trace_sample
        self.trace_seed = trace_seed
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_max_s = restart_backoff_max_s
        self.startup_timeout_s = startup_timeout_s
        self.python = python if python is not None else sys.executable
        self.echo = echo
        self.workers: Dict[str, _Worker] = {
            f"w{i}": _Worker(f"w{i}") for i in range(count)
        }
        self.workers_restarted = 0
        self._stopping = False

    # ------------------------------------------------------------ directory

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        return {
            worker.worker_id: (self.host, worker.port)
            for worker in self.workers.values()
            if worker.up and worker.port is not None
        }

    # ------------------------------------------------------------ lifecycle

    def _say(self, message: str) -> None:
        if self.echo is not None:
            self.echo(message)

    def _command(self, worker_id: str) -> List[str]:
        argv = [
            self.python, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--worker-id", worker_id,
            "--max-sessions", str(self.max_sessions),
        ]
        if self.checkpoint_dir is not None:
            argv += ["--checkpoint-dir", self.checkpoint_dir]
            if self.checkpoint_every_s is not None:
                argv += ["--checkpoint-every-s", str(self.checkpoint_every_s)]
        if self.store is not None:
            argv += ["--store", self.store]
        if self.model is not None:
            argv += ["--model", self.model]
        if self.tenant_config is not None:
            argv += ["--tenant-config", self.tenant_config]
        if self.memory_budget_mb is not None:
            argv += ["--memory-budget-mb", str(self.memory_budget_mb)]
        if self.max_inflight is not None:
            argv += ["--max-inflight", str(self.max_inflight)]
        if self.brownout:
            argv += ["--brownout"]
        if self.trace_dir is not None:
            argv += ["--trace-dir", self.trace_dir]
            if self.trace_sample is not None:
                argv += ["--trace-sample", str(self.trace_sample)]
            if self.trace_seed is not None:
                argv += ["--trace-seed", str(self.trace_seed)]
        return argv

    async def _spawn(self, worker: _Worker) -> None:
        """Start one subprocess and wait until its port accepts."""
        proc = await asyncio.create_subprocess_exec(
            *self._command(worker.worker_id),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        worker.proc = proc
        worker.port = None
        # The serve banner ("... listening on HOST:PORT ...") is the only
        # way to learn an ephemeral port; read lines until it shows up.
        deadline = (
            asyncio.get_running_loop().time() + self.startup_timeout_s
        )
        while worker.port is None:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0 or proc.stdout is None:
                raise WorkerStartupError(
                    f"{worker.worker_id}: no listening banner within "
                    f"{self.startup_timeout_s}s"
                )
            try:
                raw = await asyncio.wait_for(
                    proc.stdout.readline(), remaining
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise WorkerStartupError(
                    f"{worker.worker_id}: no listening banner within "
                    f"{self.startup_timeout_s}s"
                ) from None
            if not raw:
                raise WorkerStartupError(
                    f"{worker.worker_id}: exited before listening "
                    f"(rc={proc.returncode})"
                )
            line = raw.decode("utf-8", "replace").rstrip()
            self._say(f"[{worker.worker_id}] {line}")
            if " listening on " in line:
                try:
                    worker.port = int(
                        line.split(" listening on ", 1)[1]
                        .split()[0].rsplit(":", 1)[1]
                    )
                except (IndexError, ValueError):
                    raise WorkerStartupError(
                        f"{worker.worker_id}: unparseable banner {line!r}"
                    ) from None
        await asyncio.to_thread(
            wait_port_ready, self.host, worker.port,
            timeout=self.startup_timeout_s,
        )
        worker.up = True
        self._say(
            f"fleet: worker {worker.worker_id} pid={proc.pid} "
            f"port={worker.port} up"
        )
        self._notify(worker.worker_id, True)

    async def _drain_stdout(self, worker: _Worker) -> None:
        """Keep the pipe moving so a chatty worker never blocks on it."""
        proc = worker.proc
        if proc is None or proc.stdout is None:
            return
        while True:
            raw = await proc.stdout.readline()
            if not raw:
                return
            self._say(
                f"[{worker.worker_id}] "
                f"{raw.decode('utf-8', 'replace').rstrip()}"
            )

    async def _probe(self, worker: _Worker) -> None:
        """One server-level STATS round trip, each step due within
        ``probe_timeout_s``; raises when unhealthy."""
        client = await AsyncServiceClient.connect(
            self.host, worker.port, timeout=self.probe_timeout_s,
        )
        try:
            stats = await client.server_stats()
            if stats.get("worker") != worker.worker_id:
                raise ConnectionError(
                    f"probe answered by {stats.get('worker')!r}, "
                    f"expected {worker.worker_id!r}"
                )
        finally:
            await client.aclose()

    async def _watch(self, worker: _Worker) -> None:
        """Run one worker slot forever: monitor, restart on death."""
        while not self._stopping:
            proc = worker.proc
            assert proc is not None
            drainer = asyncio.ensure_future(self._drain_stdout(worker))
            waiter = asyncio.ensure_future(proc.wait())
            try:
                while not self._stopping:
                    done, _ = await asyncio.wait(
                        {waiter}, timeout=self.probe_interval_s
                    )
                    if waiter in done:
                        break  # process died
                    try:
                        await self._probe(worker)
                    except (OSError, ConnectionError, TimeoutError,
                            asyncio.TimeoutError, protocol.ProtocolError):
                        # Alive but not serving: treat as dead.
                        proc.kill()
                        await waiter
                        break
            finally:
                if not waiter.done():
                    waiter.cancel()
                drainer.cancel()
                await asyncio.gather(
                    drainer, return_exceptions=True
                )
            if self._stopping:
                return
            worker.up = False
            self._say(
                f"fleet: worker {worker.worker_id} died "
                f"(rc={proc.returncode}); restarting"
            )
            self._notify(worker.worker_id, False)
            backoff = min(
                self.restart_backoff_max_s,
                self.restart_backoff_s * (2 ** min(worker.restarts, 10)),
            )
            await asyncio.sleep(backoff)
            if self._stopping:
                return
            worker.restarts += 1
            self.workers_restarted += 1
            try:
                await self._spawn(worker)
            except (WorkerStartupError, OSError) as exc:
                self._say(
                    f"fleet: worker {worker.worker_id} respawn failed: "
                    f"{exc}"
                )
                # Loop again: backoff grows with worker.restarts.
                worker.up = False
                if worker.proc is not None and worker.proc.returncode is None:
                    worker.proc.kill()
                    await worker.proc.wait()
                continue

    def kill_worker(self, worker_id: str) -> bool:
        """SIGKILL one worker's process — the chaos hook campaigns use.

        The watch loop sees the death like any crash: listeners get the
        down event (gateway fails sessions over), the slot restarts with
        backoff, and ``workers_restarted`` counts it.  Returns True when
        a live process was actually killed.
        """
        worker = self.workers.get(worker_id)
        if worker is None:
            raise KeyError(f"unknown worker {worker_id!r}")
        proc = worker.proc
        if proc is None or proc.returncode is not None:
            return False
        try:
            proc.kill()
        except ProcessLookupError:
            return False
        return True

    async def start(self) -> "WorkerSupervisor":
        """Spawn every worker and wait until all accept connections."""
        try:
            await asyncio.gather(*(
                self._spawn(worker) for worker in self.workers.values()
            ))
        except BaseException:
            await self.stop()
            raise
        for worker in self.workers.values():
            worker.task = asyncio.ensure_future(self._watch(worker))
        return self

    async def stop(self, *, drain_timeout_s: float = 15.0) -> None:
        """SIGTERM fan-out: every worker drains, then we reap them all."""
        self._stopping = True
        for worker in self.workers.values():
            if worker.task is not None:
                worker.task.cancel()
        tasks = [w.task for w in self.workers.values() if w.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        procs = [
            worker.proc for worker in self.workers.values()
            if worker.proc is not None and worker.proc.returncode is None
        ]
        for proc in procs:
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        if procs:
            done, pending = await asyncio.wait(
                [asyncio.ensure_future(p.wait()) for p in procs],
                timeout=drain_timeout_s,
            )
            if pending:
                for proc in procs:
                    if proc.returncode is None:
                        proc.kill()
                await asyncio.gather(*pending, return_exceptions=True)
        for worker in self.workers.values():
            worker.up = False

    async def __aenter__(self) -> "WorkerSupervisor":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()
