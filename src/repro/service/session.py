"""Per-client session state machine for the advisory service.

A :class:`PrefetchSession` wraps one policy + prefetch tree + cost-benefit
estimator behind a three-call lifecycle::

    session = PrefetchSession(policy="tree", cache_size=1024)
    advice = session.observe(block)     # once per application reference
    session.stats_snapshot()            # any time, non-destructive
    final = session.close()             # seals and validates the stats

Unlike :meth:`Simulator.run`, a session never sees the future: it drives
:meth:`Simulator.step` one reference at a time, which is why oracle
policies that read ``engine.next_block`` / ``engine.full_trace`` (the
perfect-selector and hinting schemes) are rejected at construction.  For
every online-capable policy the advice stream is *bit-identical* to the
decisions the offline simulator would make on the same trace — the
determinism-parity tests in ``tests/service/`` enforce this.

A session also serializes itself.  :func:`snapshot_session` captures
everything a live engine needs to resume into a ``session``-kind
snapshot, and :func:`restore_session` rebuilds it, so that

    decisions(run over A ++ B)
        == decisions(run over A) ++ decisions(restore(snapshot(A)) over B)

bit for bit, for every online-capable policy.  A model snapshot
(:mod:`repro.store.models`) carries only the predictor, which is not
enough: Section 7's decision also depends on the buffer pool, the
stack-distance profiler, the smoothed ``s``, the clock and the policy's
own auxiliary state.  Each engine component writes and reloads its own
part (``state()`` / ``load_state()``); this module only frames those
parts with the session's config header, the policy's auxiliary state,
the model records and the last advice.  ``tests/store/`` pins the parity
through the real codec bytes, and ``docs/PERSISTENCE.md`` specifies the
record order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.params import PAPER_PARAMS, SystemParams
from repro.policies.registry import make_policy
from repro.sim.engine import PrefetchDecision, Simulator
from repro.sim.stats import SimulationStats
from repro.store.codec import KIND_SESSION, Snapshot, SnapshotError
from repro.store.models import restore_model

Block = Hashable

#: Policies that need the whole trace (or one-access lookahead) up front and
#: therefore cannot serve online sessions.
OFFLINE_ONLY_POLICIES = frozenset({"perfect-selector", "informed"})


class SessionError(Exception):
    """Misuse of a session: unknown policy, observe-after-close, ..."""


class ModelRestoreError(SessionError):
    """A stored model or session snapshot could not be restored.

    Distinguished from plain :class:`SessionError` (a client mistake —
    unknown policy, bad parameters) so the server can *degrade* instead of
    reject: a session that asked for a trained model whose snapshot turns
    out to be corrupt still gets served, just with no-prefetch advice.
    """


@dataclass(frozen=True)
class PrefetchAdvice:
    """The service's answer to one observed reference.

    ``outcome`` reports how the reference itself resolved against the
    session's modelled cache (``demand_hit`` / ``prefetch_hit`` / ``miss``);
    ``prefetch`` lists the blocks the cost-benefit rule decided to fetch
    ahead of the *next* references, most valuable first.
    """

    block: Block
    period: int
    outcome: str
    stall_ms: float
    prefetch: Tuple[PrefetchDecision, ...]
    s: float

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the OBSERVE reply payload)."""
        return {
            "block": self.block,
            "period": self.period,
            "outcome": self.outcome,
            "stall_ms": self.stall_ms,
            "prefetch": [
                {
                    "block": d.block,
                    "probability": d.probability,
                    "depth": d.depth,
                    "tag": d.tag,
                }
                for d in self.prefetch
            ],
            "s": self.s,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PrefetchAdvice":
        return cls(
            payload["block"],
            int(payload["period"]),
            str(payload["outcome"]),
            float(payload["stall_ms"]),
            tuple([
                PrefetchDecision(
                    d["block"], float(d["probability"]), int(d["depth"]),
                    str(d["tag"]),
                )
                for d in payload["prefetch"]
            ]),
            float(payload["s"]),
        )


class PrefetchSession:
    """One client's long-lived predictor + cost-benefit state."""

    def __init__(
        self,
        *,
        policy: str = "tree",
        cache_size: int = 1024,
        params: Optional[SystemParams] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        max_observations: Optional[int] = None,
        warm_start: Optional[Any] = None,
        **sim_kwargs: Any,
    ) -> None:
        """``warm_start`` takes a ``model``-kind snapshot
        (:func:`repro.store.model_snapshot`): the policy's model is loaded
        from it before the first observation, so prediction quality carries
        over from a trained model while cache and cost state start cold.
        To resume a session decision-identically, use
        :func:`restore_session` instead."""
        if policy in OFFLINE_ONLY_POLICIES:
            raise SessionError(
                f"policy {policy!r} needs the full trace up front and "
                "cannot run as an online session"
            )
        try:
            policy_obj = make_policy(policy, **(policy_kwargs or {}))
        except (ValueError, TypeError) as exc:
            raise SessionError(str(exc)) from None
        if max_observations is not None and max_observations < 1:
            raise SessionError(
                f"max_observations must be >= 1, got {max_observations!r}"
            )
        try:
            self._sim = Simulator(
                params if params is not None else PAPER_PARAMS,
                policy_obj,
                cache_size,
                **sim_kwargs,
            )
        except (ValueError, TypeError) as exc:
            raise SessionError(str(exc)) from None
        self.policy_name = policy
        self.cache_size = cache_size
        self.max_observations = max_observations
        self.closed = False
        self.degraded = False
        self._final_stats: Optional[Dict[str, Any]] = None
        self._last_advice: Optional[PrefetchAdvice] = None
        self._params = params if params is not None else PAPER_PARAMS
        self._policy_kwargs = dict(policy_kwargs or {})
        self._sim_kwargs = dict(sim_kwargs)
        if warm_start is not None:
            model = policy_obj.model()
            if model is None:
                raise SessionError(
                    f"policy {policy!r} has no model to warm-start"
                )
            try:
                restore_model(warm_start, model)
            except SnapshotError as exc:
                raise ModelRestoreError(
                    f"warm start failed: {exc}"
                ) from None

    # ----------------------------------------------------------- config

    @property
    def params(self) -> SystemParams:
        return self._params

    @property
    def policy_kwargs(self) -> Dict[str, Any]:
        return dict(self._policy_kwargs)

    @property
    def sim_kwargs(self) -> Dict[str, Any]:
        return dict(self._sim_kwargs)

    # ------------------------------------------------------------ lifecycle

    @property
    def simulator(self) -> Simulator:
        """The underlying engine (read-only use: tests, diagnostics)."""
        return self._sim

    @property
    def observations(self) -> int:
        return self._sim.period

    @property
    def last_advice(self) -> Optional[PrefetchAdvice]:
        """The most recent :meth:`observe` result (``None`` before the
        first observation).  The server uses it to answer a retried
        duplicate of the last OBSERVE without folding the reference twice
        (exactly-once semantics under reconnect-and-resume)."""
        return self._last_advice

    def observe(self, block: Block) -> PrefetchAdvice:
        """Fold one reference into the session and return prefetch advice."""
        if self.closed:
            raise SessionError("session is closed")
        if (
            self.max_observations is not None
            and self._sim.period >= self.max_observations
        ):
            raise SessionError(
                f"session observation limit reached ({self.max_observations})"
            )
        result = self._sim.step(block)
        advice = PrefetchAdvice(
            block=result.block,
            period=result.period,
            outcome=result.outcome,
            stall_ms=result.stall_ms,
            prefetch=result.decisions,
            s=self._sim.s,
        )
        self._last_advice = advice
        return advice

    def stats_snapshot(self) -> Dict[str, Any]:
        """Live counters without sealing the run (the STATS reply payload)."""
        if self._final_stats is not None:
            return dict(self._final_stats)
        sim = self._sim
        snapshot = sim.stats.as_dict()
        # elapsed/stall are only folded into the stats object at finalize();
        # report the live clock so mid-session STATS is honest.
        snapshot["elapsed_time"] = sim.clock.now
        snapshot["stall_time"] = sim.clock.stall_time
        snapshot["policy"] = self.policy_name
        snapshot["cache_size"] = self.cache_size
        snapshot["period"] = sim.period
        snapshot["s"] = sim.s
        snapshot["model_items"] = sim.policy.model_items()
        snapshot["degraded"] = self.degraded
        return snapshot

    def close(self) -> Dict[str, Any]:
        """Seal the session and return the validated final statistics.

        Idempotent: closing twice returns the same final snapshot.
        """
        if self._final_stats is None:
            stats = self._sim.finalize()
            snapshot = stats.as_dict()
            snapshot["policy"] = self.policy_name
            snapshot["cache_size"] = self.cache_size
            snapshot["period"] = self._sim.period
            snapshot["s"] = self._sim.s
            snapshot["model_items"] = self._sim.policy.model_items()
            snapshot["degraded"] = self.degraded
            self._final_stats = snapshot
            self.closed = True
        return dict(self._final_stats)


# ------------------------------------------------------------ snapshots


def snapshot_session(
    session: PrefetchSession,
    *,
    provenance: Optional[Dict[str, Any]] = None,
) -> Snapshot:
    """Capture a live (unclosed) session into a ``session``-kind snapshot.

    Must be called between observations — never from inside a step.
    """
    if session.closed:
        raise SnapshotError("cannot snapshot a closed session")
    sim = session.simulator
    policy = sim.policy
    cache = sim.cache
    pf_state = cache.prefetch.state()
    entries = pf_state.pop("entries")
    records: List[Any] = [
        ["clock", sim.clock.state()],
        ["disk", sim.disk.state()],
        ["s", sim.s_estimator.state()],
        ["stats", sim.stats.to_record()],
        ["engine", {"period": sim.period}],
        ["demand", cache.demand.state()],
        ["pf", pf_state],
    ]
    records.extend(["pentry", row] for row in entries)
    records.append(["profiler", cache.profiler.state()])
    records.append(["cache", {
        "forced_prefetch_evictions": cache.forced_prefetch_evictions,
    }])
    records.append(["policy-aux", policy.aux_state()])
    # The last advice answers a retried duplicate OBSERVE after a resume
    # (exactly-once semantics even when the checkpoint landed between an
    # observation being folded and its reply reaching the client).
    if session.last_advice is not None:
        records.append(["last-advice", session.last_advice.as_dict()])

    model = policy.model()
    model_kind = ""
    model_items = 0
    if model is not None:
        model_kind = model.snapshot_kind
        meta, items = model.snapshot_state()
        model_items = len(items)
        records.append(["model", {"kind": model_kind, "meta": meta}])
        records.extend(["model-item", item] for item in items)

    header = {
        "config": {
            "policy": session.policy_name,
            "cache_size": session.cache_size,
            "params": session.params.as_dict(),
            "policy_kwargs": session.policy_kwargs,
            "sim_kwargs": session.sim_kwargs,
        },
        "provenance": dict(provenance or {}),
        "counts": {
            "references": sim.period,
            "model_kind": model_kind,
            "model_items": model_items,
            "demand_blocks": len(cache.demand),
            "prefetch_blocks": len(entries),
        },
    }
    return Snapshot(
        kind=KIND_SESSION, model=session.policy_name,
        header=header, records=records,
    )


def restore_session(
    snapshot: Snapshot,
    *,
    max_observations: Optional[int] = None,
    model_factory=None,
) -> PrefetchSession:
    """Reconstruct a live session from a ``session``-kind snapshot.

    ``model_factory(model_kind, meta)``, when given, is consulted if the
    snapshot's model kind differs from the policy's default model: it may
    return a replacement model object of the snapshot's kind (installed
    via :meth:`~repro.policies.base.Policy.replace_model` before state is
    applied) or ``None`` to decline.  The tenancy layer uses this to
    rebind ``tree-delta`` overlays to their shared base on resume; without
    a factory a kind mismatch is an error.
    """
    if snapshot.kind != KIND_SESSION:
        raise SnapshotError(
            f"expected a session snapshot, got kind {snapshot.kind!r}"
        )
    config = snapshot.config
    try:
        session = PrefetchSession(
            policy=config["policy"],
            cache_size=config["cache_size"],
            params=SystemParams(**config["params"]),
            policy_kwargs=dict(config["policy_kwargs"]),
            max_observations=max_observations,
            **dict(config["sim_kwargs"]),
        )
    except (KeyError, TypeError, ValueError, SessionError) as exc:
        raise SnapshotError(f"snapshot config cannot be rebuilt: {exc}") from None

    by_tag: Dict[str, Any] = {}
    pentries: List[Any] = []
    model_items: List[Any] = []
    for record in snapshot.records:
        try:
            tag, payload = record[0], record[1]
        except (TypeError, IndexError):
            raise SnapshotError(f"malformed session record: {record!r}") from None
        if tag == "pentry":
            pentries.append(payload)
        elif tag == "model-item":
            model_items.append(payload)
        else:
            by_tag[tag] = payload

    try:
        _load(session, by_tag, pentries, model_items, model_factory)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"session snapshot is incomplete: {exc}") from None
    return session


def _load(session, by_tag, pentries, model_items, model_factory) -> None:
    sim = session.simulator
    cache = sim.cache
    sim.clock.load_state(by_tag["clock"])
    sim.disk.load_state(by_tag["disk"])
    sim.s_estimator.load_state(by_tag["s"])
    sim.stats = SimulationStats.from_record(by_tag["stats"])
    sim.period = by_tag["engine"]["period"]
    cache.demand.load_state(by_tag["demand"])
    cache.prefetch.load_state(dict(by_tag["pf"], entries=pentries))
    cache.profiler.load_state(by_tag["profiler"])
    cache.forced_prefetch_evictions = (
        by_tag["cache"]["forced_prefetch_evictions"]
    )
    sim.policy.restore_aux_state(by_tag.get("policy-aux", {}))

    advice_state = by_tag.get("last-advice")
    if advice_state is not None:
        session._last_advice = PrefetchAdvice.from_dict(advice_state)

    model = sim.policy.model()
    model_state = by_tag.get("model")
    if model_state is None:
        return
    if model is None:
        raise SnapshotError(
            f"snapshot carries a {model_state['kind']!r} model but policy "
            f"{session.policy_name!r} has none"
        )
    if model.snapshot_kind != model_state["kind"]:
        replacement = None
        if model_factory is not None:
            replacement = model_factory(model_state["kind"], model_state["meta"])
        if replacement is None:
            raise SnapshotError(
                f"model kind mismatch: snapshot has {model_state['kind']!r}, "
                f"policy {session.policy_name!r} expects "
                f"{model.snapshot_kind!r}"
            )
        sim.policy.replace_model(replacement)
        model = replacement
    model.restore_state(model_state["meta"], model_items)
