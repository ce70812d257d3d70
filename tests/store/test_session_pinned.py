"""Pin the bytes of whole-session snapshots to committed digests.

The parity tests compare a resumed session with one that never stopped;
these digests compare the session snapshot format with itself as it was
when they were generated.  Every engine component writes its own part of
a snapshot (the clock, the disk, ``s``, both cache partitions, the
stack-distance profiler), so a change to one of them that renames a
field, reorders a record or moves a float's bits changes a digest here.

Each case feeds ``MID`` references, pins the SHA-256 of the encoded
snapshot, restores it, and checks that the restored session re-encodes
to the same bytes and gives the same advice as the uninterrupted one
over the next ``TAIL`` references.

The stream comes from :class:`random.Random` (not numpy) so a library
upgrade cannot move it.  When a deliberate format change moves a digest,
regenerate with ``python tests/store/test_session_pinned.py``.
"""

import hashlib
import random

import pytest

from repro.core.tree import PrefetchTree
from repro.params import PAPER_PARAMS
from repro.service.session import (
    PrefetchSession,
    restore_session,
    snapshot_session,
)
from repro.store.codec import decode_snapshot, encode_snapshot
from repro.tenancy.overlay import DELTA_MODEL_KIND, OverlayTree

CACHE = 64
MID = 2000
TAIL = 1000

#: A tenant overlay session: the ``tree`` policy on a copy-on-write view
#: of this base, named the way the tenancy layer names it.
DELTA = "tree-delta"
BASE_REF = {"tenant": "acme", "model": "base@1"}

#: case -> (policy, policy kwargs, simulator kwargs, params)
CASES = {
    "tree": ("tree", {}, {}, PAPER_PARAMS),
    "tree@t_cpu=2": ("tree", {}, {}, PAPER_PARAMS.with_t_cpu(2.0)),
    "tree-filtered": ("tree-filtered", {}, {}, PAPER_PARAMS),
    "tree-next-limit": ("tree-next-limit", {}, {}, PAPER_PARAMS),
    "tree-lvc": ("tree-lvc", {}, {}, PAPER_PARAMS),
    "next-limit": ("next-limit", {}, {}, PAPER_PARAMS),
    "cb-ppm": ("cb-ppm", {}, {}, PAPER_PARAMS),
    "no-prefetch": ("no-prefetch", {}, {}, PAPER_PARAMS),
    "tree@num_disks=2": ("tree", {}, {"num_disks": 2}, PAPER_PARAMS),
    "tree@max_tree_nodes=300":
        ("tree", {"max_tree_nodes": 300}, {}, PAPER_PARAMS),
    DELTA: ("tree", {}, {}, PAPER_PARAMS),
}

#: ``sha256(encode_snapshot(snapshot_session(...)))`` after ``MID``
#: references, per case.
PINNED_SESSIONS = {
    "cb-ppm":
        "4cce2fe2a5c48b97f593d69e36e919bb7106ab6186b56185742c28dc5b569f72",
    "next-limit":
        "5e74e41593ae3b1661224734b6cb5e58b686b6bc783d59c7efacef7c9fd4bc8e",
    "no-prefetch":
        "573ccf5e90053318bf9636582d81df735635f671f63a97455116ebc1459f2566",
    "tree":
        "18cfb7360ff70e035bfaab97694899ab95ebb5e55d8aff363e7a6014091e32fb",
    "tree-delta":
        "df0be19aa5e8b75c56dcc16dbf770ef354ab60d10184c68e0a924184093dd829",
    "tree-filtered":
        "04e06e8c49f6a4f112a2a706e3a21a6dbc4c24a6574ac808c5e753af84300e35",
    "tree-lvc":
        "e075a6985f191100836b04c414b7ba8c2f2eb550d4e0a93a39bfcb6eb1df38df",
    "tree-next-limit":
        "d38a8c3ed1f6abaaa82ae69d001b221034e01512649c140a5673b985c6a6b2c5",
    "tree@max_tree_nodes=300":
        "69ff2453171d9f908633ef242773ba72c6b6ac5d64d95b5b6b635e640f82f19c",
    "tree@num_disks=2":
        "ab4908021ddfcd53852cb370703a3b491545acd10c880219377ea1ca785b4a05",
    "tree@t_cpu=2":
        "37e484850892974a95f1fa07bd503e8de48fc759b602b6899adc194f8e05f460",
}


def stream(n=MID + TAIL, seed=19):
    """Repeated chains, short sequential runs and cold blocks."""
    rng = random.Random(seed)
    chains = [
        [rng.randrange(1, 300) for _ in range(rng.randint(3, 8))]
        for _ in range(10)
    ]
    blocks = []
    cold = 10_000
    while len(blocks) < n:
        pick = rng.random()
        if pick < 0.6:
            blocks.extend(rng.choice(chains))
        elif pick < 0.85:
            start = rng.randrange(400, 800)
            blocks.extend(range(start, start + rng.randint(2, 6)))
        else:
            blocks.append(cold)
            cold += 1
    return blocks[:n]


def shared_base():
    tree = PrefetchTree()
    tree.record_all(stream(n=3000, seed=5))
    return tree


def model_factory(base):
    def factory(kind, meta):
        if kind != DELTA_MODEL_KIND:
            return None
        return OverlayTree(base, base_ref=meta["base"])
    return factory


def open_session(case):
    """A fresh session for ``case`` and the ``model_factory`` to restore it."""
    policy, policy_kwargs, sim_kwargs, params = CASES[case]
    session = PrefetchSession(
        policy=policy, cache_size=CACHE, params=params,
        policy_kwargs=policy_kwargs or None, **sim_kwargs,
    )
    if case != DELTA:
        return session, None
    base = shared_base()
    session.simulator.policy.replace_model(
        OverlayTree(base, base_ref=BASE_REF)
    )
    return session, model_factory(base)


def encoded(session):
    return encode_snapshot(snapshot_session(session))


def run_case(case):
    """Snapshot mid-stream; returns the snapshot's bytes, the uninterrupted
    and resumed advice over the tail, and both sessions' final bytes."""
    session, factory = open_session(case)
    blocks = stream()
    for block in blocks[:MID]:
        session.observe(block)
    data = encoded(session)
    resumed = restore_session(decode_snapshot(data), model_factory=factory)
    assert encoded(resumed) == data
    want = [session.observe(block).as_dict() for block in blocks[MID:]]
    got = [resumed.observe(block).as_dict() for block in blocks[MID:]]
    return data, want, got, encoded(session), encoded(resumed), session


@pytest.mark.parametrize("case", sorted(CASES))
def test_session_snapshot_matches_pinned_digest(case):
    data, want, got, end, resumed_end, session = run_case(case)
    if case == "no-prefetch":
        assert session.simulator.stats.prefetches_issued == 0
    else:
        # A pinned prefetch cache that was always empty would be vacuous.
        assert session.simulator.stats.prefetches_issued > 0
    assert hashlib.sha256(data).hexdigest() == PINNED_SESSIONS[case]
    assert got == want
    assert resumed_end == end


if __name__ == "__main__":
    print("PINNED_SESSIONS = {")
    for case in sorted(CASES):
        digest = hashlib.sha256(run_case(case)[0]).hexdigest()
        print(f'    "{case}":\n        "{digest}",')
    print("}")
