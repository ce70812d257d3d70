"""Serving from the model store: OPEN model=, checkpoints, protocol v2.

End-to-end through real sockets: a session resumed from a ``session``-kind
registry snapshot must serve the exact advice the original would have, and
a ``model``-kind snapshot must warm-start the requested policy.
"""

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer, PrefetchService
from repro.service.session import PrefetchSession, snapshot_session
from repro.store import (
    ModelStore,
    model_snapshot,
    read_snapshot,
)


def lcg_trace(n, seed=7, universe=200):
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (2 ** 31)
        out.append(x % universe)
    return out


REFS = lcg_trace(300)
SPLIT = len(REFS) // 2


@pytest.fixture
def store(tmp_path):
    """A registry holding a half-trained session and its bare model."""
    registry = ModelStore(tmp_path / "models")
    session = PrefetchSession(policy="tree", cache_size=64)
    for block in REFS[:SPLIT]:
        session.observe(block)
    registry.save("resume", snapshot_session(session))
    registry.save("warm", model_snapshot(session.simulator.policy.model()))
    return registry


class TestOpenWithModel:
    def test_session_resume_parity_over_the_wire(self, store):
        continuous = PrefetchSession(policy="tree", cache_size=64)
        want = [continuous.observe(b).as_dict() for b in REFS]

        service = PrefetchService(store=store)
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open(model="resume")
                got = [client.observe(session_id, b).as_dict()
                       for b in REFS[SPLIT:]]
        assert got == want[SPLIT:]

    def test_model_warm_start(self, store):
        service = PrefetchService(store=store)
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open(policy="tree", model="warm@1")
                stats = client.stats(session_id)
                assert stats["model_items"] > 0
                assert stats["period"] == 0  # engine state starts cold

    def test_unknown_model_is_clean_error(self, store):
        service = PrefetchService(store=store)
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                with pytest.raises(ServiceError, match="no model named"):
                    client.open(model="missing")
                # the connection survives the failed OPEN
                assert client.open() is not None

    def test_model_without_store_is_clean_error(self):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                with pytest.raises(ServiceError, match="model store"):
                    client.open(model="resume")

    def test_default_model_applies_to_bare_open(self, store):
        continuous = PrefetchSession(policy="tree", cache_size=64)
        want = [continuous.observe(b).as_dict() for b in REFS]

        service = PrefetchService(store=store, default_model="resume")
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open()
                got = [client.observe(session_id, b).as_dict()
                       for b in REFS[SPLIT:]]
        assert got == want[SPLIT:]


class TestCheckpointing:
    def test_checkpoint_writes_resumable_sessions(self, store, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        service = PrefetchService(store=store)
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open(model="resume")
                for block in REFS[SPLIT:SPLIT + 50]:
                    client.observe(session_id, block)
                written = service.checkpoint_sessions(str(ckpt_dir))
        assert written == 1
        assert service.metrics.checkpoints_written == 1
        snapshot = read_snapshot(ckpt_dir / f"{session_id}.snap")
        assert snapshot.kind == "session"
        assert snapshot.counts["references"] == SPLIT + 50

        # the checkpoint resumes exactly where the live session was
        from repro.service.session import restore_session

        continuous = PrefetchSession(policy="tree", cache_size=64)
        want = [continuous.observe(b).as_dict() for b in REFS]
        resumed = restore_session(snapshot)
        got = [resumed.observe(b).as_dict() for b in REFS[SPLIT + 50:]]
        assert got == want[SPLIT + 50:]

    def test_checkpoint_with_no_sessions_writes_nothing(self, tmp_path):
        service = PrefetchService()
        assert service.checkpoint_sessions(str(tmp_path / "empty")) == 0

    def test_clean_close_deletes_the_checkpoint(self, tmp_path):
        """A closed session can never be resumed, so its snapshot is
        garbage-collected on CLOSE (and counted)."""
        ckpt_dir = tmp_path / "ckpts"
        service = PrefetchService(checkpoint_dir=str(ckpt_dir))
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open(policy="tree", cache_size=64)
                for block in REFS[:40]:
                    client.observe(session_id, block)
                assert service.checkpoint_sessions(str(ckpt_dir)) == 1
                path = ckpt_dir / f"{session_id}.snap"
                assert path.exists()
                client.close_session(session_id)
                assert not path.exists()
        assert service.metrics.checkpoints_deleted == 1
        assert service.metrics.as_dict()["checkpoints_deleted"] == 1

    def test_close_without_checkpoint_deletes_nothing(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        service = PrefetchService(checkpoint_dir=str(ckpt_dir))
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                session_id = client.open(policy="no-prefetch", cache_size=8)
                client.close_session(session_id)
        assert service.metrics.checkpoints_deleted == 0

    def test_metrics_expose_checkpoint_counter(self):
        assert PrefetchService().metrics.as_dict()["checkpoints_written"] == 0


class TestProtocolV2:
    def test_v1_request_still_accepted(self):
        request = protocol.decode_request(
            b'{"v":1,"cmd":"open","id":1,"policy":"tree","cache_size":64}\n'
        )
        assert request.model is None
        assert request.policy == "tree"

    def test_v2_open_carries_model(self):
        request = protocol.decode_request(
            b'{"v":2,"cmd":"open","id":1,"model":"tree-cad@3"}\n'
        )
        assert request.model == "tree-cad@3"

    def test_open_round_trips_model(self):
        request = protocol.OpenRequest(id=1, model="m@2")
        assert protocol.decode_request(
            protocol.encode_request(request)) == request

    def test_model_omitted_from_wire_when_unset(self):
        line = protocol.encode_request(protocol.OpenRequest(id=1))
        assert b'"model"' not in line

    @pytest.mark.parametrize("version", [0, 4, None, "two"])
    def test_out_of_range_versions_rejected(self, version):
        import json

        line = json.dumps({"v": version, "cmd": "open", "id": 1}) + "\n"
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(line.encode())
        assert excinfo.value.code == protocol.E_BAD_VERSION

    def test_version_constants(self):
        assert protocol.MIN_PROTOCOL_VERSION == 1
        assert protocol.PROTOCOL_VERSION == 3
