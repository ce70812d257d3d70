"""Shared pieces of the benchmark: paths, spans, OS accounting, statistics.

Nothing here imports the program; the workload modules do, after
:func:`require_program` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from array import array
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Span dumps of traced runs land here (git-ignored); one file per
#: workload, overwritten by the next traced run of that workload.
OUT_DIR = ROOT / ".perfbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad spec, ...)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from None


# ----------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ------------------------------------------------------------------ host speed

#: References the ruler's miniature predictor handles: about 5 ms of work.
RULER_REFS = 4000
#: The ruler's time on the reference host (2-vCPU Xeon virtual machine,
#: CPython 3.11).  Timed figures are scaled to a host on which the ruler
#: takes this long, so a host that runs slower for a while reads the same.
RULER_NOMINAL_S = 0.0052


class _Node:
    """A node of the ruler's successor tree."""

    __slots__ = ("children", "count")

    def __init__(self) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.count = 0

    def child(self, block: int) -> "_Node":
        node = self.children.get(block)
        if node is None:
            node = self.children[block] = _Node()
        node.count += 1
        return node

    def likeliest(self) -> Optional[int]:
        best, top = None, 0
        for block, node in self.children.items():
            if node.count > top:
                best, top = block, node.count
        return best


class _Pool:
    """The ruler's LRU buffer pool: a dict in recency order."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.blocks: Dict[int, bool] = {}

    def reference(self, block: int) -> bool:
        blocks = self.blocks
        if block in blocks:
            del blocks[block]
            blocks[block] = True
            return True
        if len(blocks) >= self.size:
            del blocks[next(iter(blocks))]
        blocks[block] = True
        return False


def _ruler_loop(refs: int) -> int:
    """A fixed miniature of the engine: a successor tree predicting the
    next block in front of an LRU pool, over a pseudo-random stream.

    It has the program's kind of work (method calls, attribute and dict
    traffic, small objects), so a host that slows one slows the other by
    about as much; a tight arithmetic-and-dict loop slowed noticeably more
    than the engine did.
    """
    root = _Node()
    pool = _Pool(256)
    node = root
    x = 1
    hits = 0
    for i in range(refs):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 8) & 1023 if x & 3 else i & 1023
        if node is not root and len(node.children) < 64:
            node = node.child(block)
        else:
            node = root.child(block)
        guess = node.likeliest()
        if guess is not None and pool.reference(guess):
            hits += 1
        pool.reference(block)
    return hits


def ruler_s() -> float:
    """Seconds one run of the ruler takes now: the host's current speed.

    It never changes with the program, so ``RULER_NOMINAL_S / ruler_s()``
    is how much faster (above 1) or slower the host is than the reference
    host.  Run it in the thread and on the CPU the timed work uses, right
    next to that work, and never while a program thread shares the
    interpreter.
    """
    t0 = time.perf_counter()
    _ruler_loop(RULER_REFS)
    return time.perf_counter() - t0


def speed(rulers: Sequence[float]) -> float:
    """Host speed over a stretch, from the rulers timed in it."""
    return RULER_NOMINAL_S / median(rulers)


# ----------------------------------------------------------------------- spans


class Spans:
    """Benchmark-side spans, kept in flat arrays until the run ends.

    Each span has a name, a start, an end and a parent (the span open in
    the caller's context when it began; a context variable, so spans of
    concurrent asyncio tasks each find their own parent).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current: ContextVar[int] = ContextVar("span", default=-1)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str):
        """Start a span; returns a token for :meth:`close`."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._current.get())
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx, self._current.set(idx)

    def close(self, token) -> None:
        idx, reset = token
        self.end[idx] = time.perf_counter()
        self._current.reset(reset)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        nid = self._name_id(name)
        name_a, parent_a, start_a, end_a = (
            self.name, self.parent, self.start, self.end)
        current = self._current
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(current.get())
            end_a.append(0.0)
            reset = current.set(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                current.reset(reset)

        return spanned

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine function ``fn`` with a span around every await of it."""

        async def spanned(*args, **kwargs):
            token = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(token)

        return spanned

    def _columns(self):
        import numpy as np

        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        names, _, start, end = self._columns()
        picked = names == nid
        return float((end[picked] - start[picked]).sum())

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-name self time and the wall time the root spans cover.

        A span's self time is its duration minus its children's.  Children
        of one span never overlap (each asyncio task streams one session
        under its own root), so summed over all spans the self times come
        to exactly the roots' wall time.
        """
        import numpy as np

        names, parent, start, end = self._columns()
        duration = end - start
        nested = parent >= 0
        own = duration - np.bincount(parent[nested], weights=duration[nested],
                                     minlength=len(duration))
        by_name = np.bincount(names, weights=own, minlength=len(self.names))
        wall = float(duration[~nested].sum())
        return dict(zip(self.names, by_name.tolist())), wall

    def dump(self, path: Path) -> None:
        """Write every span: the name table and the four columns (``.npz``)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, start, end = self._columns()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def print_accounting(
    title: str, spans: Spans, refs: int, overhead_pct: Optional[float] = None,
) -> Tuple[Dict[str, float], float]:
    """Print each span name's self time per reference and the remainder.

    Returns ``(self seconds by name, wall seconds)``.  The roots' own self
    time is the part no layer span covers; it prints as ``unattributed``.
    """
    self_s, wall = spans.self_times()
    names, parent, _, _ = spans._columns()
    roots = {spans.names[i] for i in set(names[parent < 0].tolist())}
    print(f"traced {title}: wall {wall:.3f} s over {refs} refs, "
          f"{1e6 * wall / max(refs, 1):.2f} us/ref")
    attributed = 0.0
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if name in roots:
            continue
        attributed += secs
        print(f"  {name:<28s} self {1e6 * secs / max(refs, 1):9.2f} us/ref"
              f"  {100.0 * secs / wall if wall else 0.0:5.1f}%")
    rest = wall - attributed
    print(f"  {'unattributed':<28s} self {1e6 * rest / max(refs, 1):9.2f} us/ref"
          f"  {100.0 * rest / wall if wall else 0.0:5.1f}%")
    if overhead_pct is not None:
        print(f"  {'tracing overhead':<28s} {overhead_pct:+.1f}% throughput"
              " (traced vs untraced)")
    return self_s, wall


# ------------------------------------------------------------- OS accounting


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


# ------------------------------------------------------------------ results


def zeros(names: Iterable[str]) -> Dict[str, float]:
    """Per-layer metrics of layers a workload never passes through."""
    return {name: 0.0 for name in names}


def render_result(spec: dict, trace: bool, correct: bool, attempted: int,
                  failed: int, values: Dict[str, float]) -> str:
    """The contract's last line: every metric of the selected group."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in group}
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise BenchError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted.items()},
    })
