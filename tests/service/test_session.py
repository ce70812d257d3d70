"""PrefetchSession: lifecycle, guard rails, and determinism parity.

The parity tests are the subsystem's anchor: the advice streamed out of an
online session must be *identical* to the prefetch decisions the offline
:class:`Simulator` makes on the same trace, for every online-capable
policy.  If these pass, the daemon is the paper's simulator, served.
"""

import pytest

from repro.params import PAPER_PARAMS, SystemParams
from repro.policies.registry import make_policy
from repro.service.session import (
    OFFLINE_ONLY_POLICIES,
    PrefetchAdvice,
    PrefetchSession,
    SessionError,
)
from repro.sim.engine import Simulator
from repro.traces.synthetic import make_trace

CACHE = 256


def run_offline(sim, blocks):
    """``sim.run(blocks)``, also collecting every step's decisions."""
    decisions = []
    step = sim.step

    def recording_step(block):
        result = step(block)
        decisions.extend(result.decisions)
        return result

    sim.step = recording_step
    return decisions, sim.run(blocks)


def _blocks(name="cad", refs=3000, seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


class TestParity:
    @pytest.mark.parametrize("policy,policy_kwargs", [
        ("tree", {}),
        ("next-limit", {}),
        ("tree-next-limit", {}),
        ("no-prefetch", {}),
        ("tree-threshold", {"threshold": 0.05}),
        ("cb-lz", {}),
    ])
    def test_decisions_match_offline_simulator(self, policy, policy_kwargs):
        blocks = _blocks()
        offline = Simulator(PAPER_PARAMS, make_policy(policy, **policy_kwargs),
                            CACHE)
        offline_decisions, offline_stats = run_offline(offline, blocks)

        session = PrefetchSession(policy=policy, cache_size=CACHE,
                                  policy_kwargs=policy_kwargs)
        streamed = []
        for block in blocks:
            streamed.extend(session.observe(block).prefetch)
        final = session.close()

        assert tuple(streamed) == tuple(offline_decisions)
        assert final["miss_rate"] == offline_stats.miss_rate
        assert final["prefetches_issued"] == offline_stats.prefetches_issued
        assert final["elapsed_time"] == offline_stats.elapsed_time

    def test_parity_across_traces(self):
        for name in ("snake", "sitar"):
            blocks = _blocks(name, refs=2000)
            offline = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE)
            offline_decisions, _ = run_offline(offline, blocks)
            session = PrefetchSession(policy="tree", cache_size=CACHE)
            streamed = []
            for block in blocks:
                streamed.extend(session.observe(block).prefetch)
            assert tuple(streamed) == tuple(offline_decisions), name

    def test_seeded_sessions_are_deterministic(self):
        blocks = _blocks(refs=1500)
        runs = []
        for _ in range(2):
            session = PrefetchSession(policy="tree", cache_size=CACHE)
            runs.append([session.observe(b) for b in blocks])
        assert runs[0] == runs[1]


class TestLifecycle:
    def test_advice_shape(self):
        session = PrefetchSession(policy="tree", cache_size=64)
        advice = session.observe(7)
        assert isinstance(advice, PrefetchAdvice)
        assert advice.block == 7
        assert advice.period == 1
        assert advice.outcome == "miss"  # cold cache
        assert advice.s >= 0.0
        # wire round trip of the advice payload
        assert PrefetchAdvice.from_dict(advice.as_dict()) == advice

    def test_stats_snapshot_is_live_and_nondestructive(self):
        session = PrefetchSession(policy="tree", cache_size=64)
        for block in (1, 2, 3, 1, 2):
            session.observe(block)
        first = session.stats_snapshot()
        assert first["accesses"] == 5
        assert first["period"] == 5
        assert first["elapsed_time"] > 0.0
        session.observe(9)
        assert session.stats_snapshot()["accesses"] == 6
        assert not session.closed

    def test_close_is_idempotent_and_final(self):
        session = PrefetchSession(policy="tree", cache_size=64)
        session.observe(1)
        final = session.close()
        assert session.closed
        assert final == session.close()
        assert final == session.stats_snapshot()
        with pytest.raises(SessionError, match="closed"):
            session.observe(2)

    def test_observation_limit(self):
        session = PrefetchSession(policy="tree", cache_size=64,
                                  max_observations=3)
        for block in (1, 2, 3):
            session.observe(block)
        with pytest.raises(SessionError, match="limit"):
            session.observe(4)

    def test_custom_params_flow_through(self):
        fast = SystemParams(t_cpu=1.0, t_disk=0.05)
        session = PrefetchSession(policy="tree", cache_size=64, params=fast)
        assert session.simulator.params.t_cpu == 1.0


class TestRejections:
    @pytest.mark.parametrize("policy", sorted(OFFLINE_ONLY_POLICIES))
    def test_offline_only_policies_rejected(self, policy):
        with pytest.raises(SessionError, match="online"):
            PrefetchSession(policy=policy)

    def test_unknown_policy(self):
        with pytest.raises(SessionError, match="unknown policy"):
            PrefetchSession(policy="magic")

    def test_bad_cache_size(self):
        with pytest.raises(SessionError, match="cache_size"):
            PrefetchSession(policy="tree", cache_size=0)

    def test_bad_observation_limit(self):
        with pytest.raises(SessionError, match="max_observations"):
            PrefetchSession(policy="tree", max_observations=0)
