"""Policy interface and the shared tree-backed base class.

A *policy* decides which blocks to propose for prefetching each access
period; the engine (:mod:`repro.sim.engine`) owns the cost model and the
buffer pool.  Policies are single-use: one instance drives one simulation.

:class:`TreeBackedPolicy` factors out everything common to the predictive
schemes: it owns the prefetch tree, updates it on every access, and records
the tree-derived statistics of Sections 9.4-9.6 (predictability, predictable
blocks not cached, last-visited-child repeats and cached-ness).
"""

from __future__ import annotations

import abc
from typing import Hashable, Optional, TYPE_CHECKING

from repro.cache.buffer_cache import BufferCache, Location
from repro.core.tree import PrefetchTree
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PrefetchContext, Simulator

Block = Hashable


class Policy(abc.ABC):
    """One prefetching scheme, as compared in Section 9."""

    #: Human-readable identifier used in reports and figure legends.
    name: str = "abstract"

    def __init__(self) -> None:
        self.engine: Optional["Simulator"] = None

    def prefetch_partition_capacity(self, total_buffers: int) -> Optional[int]:
        """Hard cap on the prefetch partition, or ``None`` to share the pool.

        The next-limit policy returns 10% of the cache (Section 9); the
        tree policies return ``None`` and let the cost-benefit comparison
        set the partition boundary dynamically.
        """
        return None

    def setup(self, engine: "Simulator") -> None:
        """Bind to the engine; called once before the first access."""
        if self.engine is not None:
            raise RuntimeError(
                f"policy {self.name!r} is single-use; create a new instance"
            )
        self.engine = engine

    def on_run_start(self, trace) -> None:
        """Called by the engine with the materialised trace before stepping.

        Most policies ignore it; hint-based policies (TIP) read their hint
        stream from it, mirroring an application disclosing its future
        accesses to the OS.
        """

    def observe(
        self,
        block: Block,
        period: int,
        location: Location,
        cache: BufferCache,
        stats: SimulationStats,
    ) -> None:
        """See one access *before* the cache acts on it."""

    @abc.abstractmethod
    def prefetch_round(self, ctx: "PrefetchContext") -> None:
        """Propose prefetches for this access period via ``ctx.try_issue``."""

    def snapshot_extra(self, stats: SimulationStats) -> None:
        """Record policy-specific diagnostics into ``stats.extra`` at the end."""

    # ------------------------------------------------------------ persistence

    def model(self):
        """The policy's snapshotable model, or ``None`` for model-free ones.

        Tree-backed policies return their :class:`PrefetchTree`; predictor
        policies return the predictor.  The returned object implements the
        :mod:`repro.store` ``Snapshotable`` surface (``snapshot_kind``,
        ``snapshot_state``, ``restore_state``, ``memory_items``).
        """
        return None

    def model_items(self) -> int:
        """Current model size in retained items (0 for model-free policies)."""
        m = self.model()
        return m.memory_items() if m is not None else 0

    def replace_model(self, model) -> None:
        """Swap in a different model object before state is restored.

        Used by the tenancy layer to rebind a session to a shared-base
        overlay on resume.  The replacement must be behaviourally
        compatible with what :meth:`model` returns; policies without a
        swappable model refuse.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not support model replacement"
        )

    def aux_state(self) -> dict:
        """Policy-local mutable state beyond the model, JSON-able.

        Captured into session snapshots so a restored session is
        decision-identical to one that never stopped; the default covers
        policies whose only cross-step state is the model itself.
        """
        return {}

    def restore_aux_state(self, state: dict) -> None:
        """Inverse of :meth:`aux_state`."""


class TreeBackedPolicy(Policy):
    """Base for policies that maintain an LZ prefetch tree.

    Parameters
    ----------
    max_tree_nodes:
        Optional node budget for the tree (Section 9.3 / Figure 13).
    max_depth, max_candidates, min_probability:
        Bounds on candidate enumeration (see
        :func:`repro.core.candidates.best_candidates`).
    """

    def __init__(
        self,
        *,
        max_tree_nodes: Optional[int] = None,
        max_depth: int = 8,
        max_candidates: int = 32,
        min_probability: float = 1e-3,
    ) -> None:
        super().__init__()
        self.tree = PrefetchTree(max_nodes=max_tree_nodes)
        self.max_depth = max_depth
        self.max_candidates = max_candidates
        self.min_probability = min_probability

    def observe(
        self,
        block: Block,
        period: int,
        location: Location,
        cache: BufferCache,
        stats: SimulationStats,
    ) -> None:
        """Update the tree and the Section 9.4-9.6 statistics.

        All signals are measured against the tree state *before* this access
        is folded in, exactly as the paper defines them.
        """
        lvc = self.tree.last_visited_child()
        if lvc is not None and lvc in cache:
            stats.lvc_cached += 1
        outcome = self.tree.record_access(block)
        if outcome.predictable:
            stats.predictable_accesses += 1
            if location is Location.MISS:
                stats.predictable_uncached += 1
        if outcome.lvc_available:
            stats.lvc_opportunities += 1
            if outcome.lvc_repeat:
                stats.lvc_repeats += 1
            if not outcome.at_root:
                stats.lvc_opportunities_nonroot += 1
                if outcome.lvc_repeat:
                    stats.lvc_repeats_nonroot += 1

    def model(self):
        return self.tree

    def replace_model(self, model) -> None:
        """Adopt ``model`` (a tree or overlay) as this policy's tree."""
        if not isinstance(model, PrefetchTree):
            raise TypeError(
                f"tree-backed policies require a PrefetchTree, "
                f"got {type(model).__name__}"
            )
        self.tree = model

    def snapshot_extra(self, stats: SimulationStats) -> None:
        stats.extra["tree_nodes"] = self.tree.node_count
        stats.extra["tree_nodes_evicted"] = self.tree.stats.nodes_evicted
        stats.extra["tree_memory_bytes"] = self.tree.memory_bytes()
        stats.extra["tree_prediction_accuracy"] = (
            100.0 * self.tree.stats.prediction_accuracy
        )
        stats.extra["tree_lvc_repeat_rate"] = 100.0 * self.tree.stats.lvc_repeat_rate
