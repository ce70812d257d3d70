"""Worker-side tenancy: shared bases, session binding, byte accounting.

One :class:`TenancyManager` lives inside each serving worker.  It

* loads each tenant's base model **once** (mmap-read from the model
  registry) and hands every session of that tenant a copy-on-write
  :class:`~repro.tenancy.overlay.OverlayTree` over the shared instance;
* tracks which live session belongs to which tenant and converts model
  sizes into the paper's bytes-per-node accounting (base counted once per
  tenant, sessions charged only their private delta);
* enforces the worker-side slice of per-tenant quotas at OPEN time
  (:meth:`TenancyManager.admit`) — the gateway enforces the same quotas
  fleet-wide before placement;
* rebinds resumed sessions to their shared base: its
  :meth:`~TenancyManager.model_factory` is passed to
  :func:`repro.service.session.restore_session` so a ``tree-delta``
  model state restores onto a fresh overlay of the right base, and
  :meth:`~TenancyManager.tenant_of_model` names the tenant to bind it to.

Bases whose snapshot carries a node budget (``max_nodes``) cannot be
shared (LRU eviction would mutate shared state); those tenants fall back
to private per-session copies restored from the cached snapshot state —
correct, just without the memory sharing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.tree import PAPER_NODE_BYTES, PrefetchTree
from repro.store.codec import KIND_BASE, KIND_MODEL, SnapshotError
from repro.store.models import extract_model_state
from repro.store.registry import ModelStore
from repro.tenancy.config import TenancyConfig, TenancyConfigError, TenantSpec
from repro.tenancy.overlay import DELTA_MODEL_KIND, OverlayTree

TREE_MODEL_KIND = PrefetchTree.snapshot_kind


class UnknownTenantError(Exception):
    """OPEN named a tenant the config does not know (not retryable)."""


class TenantQuotaError(Exception):
    """A tenant quota would be exceeded; carries the client's backoff hint."""

    def __init__(self, tenant: str, reason: str, retry_after_s: float) -> None:
        super().__init__(f"tenant {tenant!r}: {reason}")
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = retry_after_s


class TenantState:
    """Per-tenant runtime state: the loaded base and live-session binding."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.base_tree: Optional[PrefetchTree] = None
        self.base_ref: Dict[str, Any] = {}
        self.base_items = 0
        #: Snapshot (meta, items) kept only for budgeted bases, which fall
        #: back to private per-session copies.
        self.private_state: Optional[Tuple[Dict[str, Any], list]] = None
        self.session_ids: set = set()

    @property
    def loaded(self) -> bool:
        return self.base_tree is not None or self.private_state is not None

    def base_bytes(self) -> int:
        """Accounted bytes of the shared base (0 until loaded, 0 for
        private-fallback tenants — their sessions carry the full cost)."""
        if self.base_tree is None:
            return 0
        return self.base_items * PAPER_NODE_BYTES


class TenancyManager:
    """Binds tenants to shared base models inside one worker."""

    def __init__(self, store: ModelStore, config: TenancyConfig) -> None:
        self.store = store
        self.config = config
        self._tenants: Dict[str, TenantState] = {
            name: TenantState(spec) for name, spec in config.tenants.items()
        }
        self._session_tenant: Dict[str, str] = {}

    # ------------------------------------------------------------- lookup

    def spec(self, tenant: str) -> TenantSpec:
        state = self._tenants.get(tenant)
        if state is None:
            known = ", ".join(sorted(self._tenants)) or "(none)"
            raise UnknownTenantError(
                f"unknown tenant {tenant!r} (configured: {known})"
            )
        return state.spec

    def tenant_of(self, session_id: str) -> Optional[str]:
        return self._session_tenant.get(session_id)

    # ------------------------------------------------------- base loading

    def _load_base(self, state: TenantState) -> None:
        name, version, path = self.store.resolve(state.spec.model)
        from repro.store.codec import read_snapshot_mmap

        snapshot = read_snapshot_mmap(path)
        if snapshot.kind not in (KIND_MODEL, KIND_BASE):
            raise TenancyConfigError(
                f"tenant {state.spec.name!r}: registry entry "
                f"{state.spec.model!r} holds a {snapshot.kind!r} snapshot, "
                "not a model"
            )
        kind, meta, items = extract_model_state(snapshot)
        if kind != TREE_MODEL_KIND:
            raise TenancyConfigError(
                f"tenant {state.spec.name!r}: base model kind {kind!r} does "
                f"not support shared serving (only {TREE_MODEL_KIND!r} does)"
            )
        state.base_ref = {
            "tenant": state.spec.name,
            "model": f"{name}@{version}",
        }
        if meta.get("max_nodes") is not None:
            # Budget-capped trees mutate shared LRU state; serve private
            # copies instead (correct, just not memory-shared).
            state.private_state = (meta, items)
            state.base_items = len(items)
            return
        tree = PrefetchTree()
        tree.restore_state(meta, items)
        state.base_tree = tree
        state.base_items = tree.memory_items()

    def base_for(self, tenant: str) -> TenantState:
        """The tenant's state with its base loaded (loading it on first use)."""
        self.spec(tenant)  # raises UnknownTenantError
        state = self._tenants[tenant]
        if not state.loaded:
            self._load_base(state)
        return state

    # ---------------------------------------------------------- admission

    def admit(
        self, tenant: str, sessions: Optional[Dict[str, Any]] = None
    ) -> TenantSpec:
        """Check worker-side quotas for one OPEN; raises on breach.

        ``sessions`` is the server's live-session table: with it the byte
        quota counts the tenant's session deltas, not only its base.
        """
        spec = self.spec(tenant)
        state = self._tenants[tenant]
        if (
            spec.max_sessions is not None
            and len(state.session_ids) >= spec.max_sessions
        ):
            raise TenantQuotaError(
                tenant,
                f"session quota reached ({spec.max_sessions})",
                spec.retry_after_s,
            )
        if spec.max_model_bytes is not None and state.loaded:
            used = self.tenant_model_bytes(tenant, sessions)
            if used >= spec.max_model_bytes:
                raise TenantQuotaError(
                    tenant,
                    f"model-byte quota reached "
                    f"({used} >= {spec.max_model_bytes})",
                    spec.retry_after_s,
                )
        return spec

    # ------------------------------------------------------ model binding

    def make_model(self, tenant: str) -> PrefetchTree:
        """A fresh session model for ``tenant``: an overlay over the shared
        base, or a private warm copy for budget-capped bases."""
        state = self.base_for(tenant)
        if state.base_tree is not None:
            return OverlayTree(state.base_tree, base_ref=dict(state.base_ref))
        assert state.private_state is not None
        meta, items = state.private_state
        tree = PrefetchTree()
        tree.restore_state(meta, items)
        return tree

    def model_factory(self, kind: str, meta: Dict[str, Any]):
        """``restore_session`` hook: rebind delta snapshots to their base.

        Returns a fresh overlay for ``tree-delta`` states whose base ref
        names a tenant this manager serves; ``None`` (decline) otherwise.
        """
        if kind != DELTA_MODEL_KIND:
            return None
        ref = meta.get("base") or {}
        tenant = ref.get("tenant")
        if tenant is None or tenant not in self._tenants:
            return None
        state = self.base_for(tenant)
        if state.base_tree is None:
            raise SnapshotError(
                f"delta snapshot references tenant {tenant!r}, whose base "
                "is not shareable on this worker"
            )
        if ref.get("model") != state.base_ref.get("model"):
            raise SnapshotError(
                f"delta snapshot was taken against base "
                f"{ref.get('model')!r}; this worker serves "
                f"{state.base_ref.get('model')!r}"
            )
        return OverlayTree(state.base_tree, base_ref=dict(state.base_ref))

    def tenant_of_model(self, session) -> Optional[str]:
        """The served tenant whose shared base ``session``'s overlay names
        (a session restored from a ``tree-delta`` state), or ``None``."""
        model = session.simulator.policy.model()
        if not isinstance(model, OverlayTree):
            return None
        tenant = model.base_ref.get("tenant")
        return tenant if tenant in self._tenants else None

    # ----------------------------------------------------------- tracking

    def bind(self, session_id: str, tenant: str) -> None:
        self._session_tenant[session_id] = tenant
        self._tenants[tenant].session_ids.add(session_id)

    def unbind(self, session_id: str) -> None:
        tenant = self._session_tenant.pop(session_id, None)
        if tenant is not None:
            self._tenants[tenant].session_ids.discard(session_id)

    # --------------------------------------------------------- accounting

    @staticmethod
    def session_model_bytes(session) -> int:
        """One session's accounted bytes: its *private* model footprint.

        An overlay is charged only its copy-on-write delta (the shared
        base is charged once per tenant); any other model its whole size.
        """
        model = session.simulator.policy.model()
        if model is None:
            return 0
        items = (
            model.delta_items() if isinstance(model, OverlayTree)
            else model.memory_items()
        )
        return items * PAPER_NODE_BYTES

    def base_bytes_total(self) -> int:
        """Accounted bytes of every *shared* base loaded on this worker."""
        return sum(state.base_bytes() for state in self._tenants.values())

    def tenant_model_bytes(
        self, tenant: str, sessions: Optional[Dict[str, Any]] = None
    ) -> int:
        """Accounted bytes for one tenant: shared base + live deltas.

        ``sessions`` maps live session ids to sessions (the server's
        table); without it only the base is counted.
        """
        state = self._tenants[tenant]
        total = state.base_bytes()
        if sessions is not None:
            for sid in state.session_ids:
                session = sessions.get(sid)
                if session is not None:
                    total += self.session_model_bytes(session)
        return total

    def gauges(self, sessions: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
        """Per-tenant ``{sessions, model_bytes}`` for the STATS reply."""
        return {
            name: {
                "sessions": len(state.session_ids),
                "model_bytes": self.tenant_model_bytes(name, sessions),
            }
            for name, state in self._tenants.items()
            if state.session_ids or state.loaded
        }
