"""Model-kind snapshots: one predictor/tree, portable across sessions.

Anything implementing the :class:`Snapshotable` surface can be saved and
restored: the LZ :class:`~repro.core.tree.PrefetchTree` and all predictors
in :mod:`repro.predictors` (``lz``, ``ppm``, ``markov``, ``prob-graph``,
``last-successor``).  A model snapshot warm-starts a fresh
:class:`~repro.service.session.PrefetchSession` (or any policy whose
:meth:`~repro.policies.base.Policy.model` matches the snapshot's kind) —
prediction quality carries over while cache/cost state starts cold.  For a
*decision-identical* resume, use a session snapshot
(:func:`repro.service.session.snapshot_session`) instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.store.codec import KIND_BASE, KIND_MODEL, KIND_SESSION, Snapshot, SnapshotError

try:  # pragma: no cover - typing nicety only
    from typing import Protocol, runtime_checkable

    @runtime_checkable
    class Snapshotable(Protocol):
        """What an object must offer to live in a snapshot body."""

        snapshot_kind: str

        def snapshot_state(self) -> Tuple[Dict[str, Any], List[Any]]:
            """JSON-able ``(meta, items)``; items become one body line each."""

        def restore_state(self, meta: Dict[str, Any], items: List[Any]) -> None:
            """Inverse of :meth:`snapshot_state`, applied in place."""

        def memory_items(self) -> int:
            """Model size in retained items (nodes, contexts, edges)."""

except ImportError:  # pragma: no cover - pre-3.8 fallback, never hit
    Snapshotable = object  # type: ignore[assignment,misc]


def model_snapshot(
    model: "Snapshotable",
    *,
    config: Optional[Dict[str, Any]] = None,
    provenance: Optional[Dict[str, Any]] = None,
    base: bool = False,
) -> Snapshot:
    """Serialize one model into a ``model``-kind snapshot.

    With ``base=True`` the snapshot is written as a ``base-model`` — the
    same body, but marked as promoted to a shared multi-tenant base (see
    :mod:`repro.tenancy`).
    """
    kind = getattr(model, "snapshot_kind", None)
    if not isinstance(kind, str) or not hasattr(model, "snapshot_state"):
        raise SnapshotError(
            f"{type(model).__name__} is not snapshotable "
            "(no snapshot_kind/snapshot_state)"
        )
    meta, items = model.snapshot_state()
    header = {
        "config": dict(config or {}),
        "provenance": dict(provenance or {}),
        "counts": {"model_kind": kind, "model_items": len(items)},
        "meta": meta,
    }
    return Snapshot(
        kind=KIND_BASE if base else KIND_MODEL,
        model=kind,
        header=header,
        records=items,
    )


def extract_model_state(
    snapshot: Snapshot,
) -> Tuple[str, Dict[str, Any], List[Any]]:
    """Pull ``(model_kind, meta, items)`` out of any snapshot holding a model.

    Accepts ``model`` and ``base-model`` snapshots directly, and ``session``
    snapshots by extracting their embedded model records — so a shared base
    can be promoted from either a trained model or a serving checkpoint.
    """
    if snapshot.kind in (KIND_MODEL, KIND_BASE):
        meta = snapshot.header.get("meta")
        if not isinstance(meta, dict):
            raise SnapshotError("model snapshot header is missing its meta")
        return snapshot.model, meta, list(snapshot.records)
    if snapshot.kind == KIND_SESSION:
        meta: Optional[Dict[str, Any]] = None
        kind: Optional[str] = None
        items: List[Any] = []
        for record in snapshot.records:
            tag = record[0]
            if tag == "model":
                kind = record[1]["kind"]
                meta = record[1]["meta"]
            elif tag == "model-item":
                items.append(record[1])
        if kind is None or meta is None:
            raise SnapshotError(
                "session snapshot carries no embedded model records"
            )
        return kind, meta, items
    raise SnapshotError(
        f"cannot extract a model from a {snapshot.kind!r} snapshot"
    )


def restore_model(snapshot: Snapshot, model: "Snapshotable") -> None:
    """Load a ``model``/``base-model`` snapshot into ``model`` in place.

    The snapshot's model kind must match ``model.snapshot_kind``.
    """
    if snapshot.kind not in (KIND_MODEL, KIND_BASE):
        raise SnapshotError(
            f"expected a model snapshot, got kind {snapshot.kind!r}"
        )
    kind = getattr(model, "snapshot_kind", None)
    if kind != snapshot.model:
        raise SnapshotError(
            f"model kind mismatch: snapshot holds {snapshot.model!r}, "
            f"target is {kind!r}"
        )
    meta = snapshot.header.get("meta")
    if not isinstance(meta, dict):
        raise SnapshotError("model snapshot header is missing its meta")
    model.restore_state(meta, snapshot.records)
