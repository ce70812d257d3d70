"""Pin ``Simulator.step``'s advice to committed digests.

The parity tests compare the engine with itself (offline run vs session
vs server); these digests compare it with the engine as it was when they
were generated.  A refactor of the engine's inner loop that changes one
outcome, one decision, one probability's float bits or the order of a
period's decisions changes a digest here.  For every case with a model (all tree-backed cases among
them), the SHA-256 of the model's ``snapshot_state()`` at the end of the
stream is pinned as well: a change that keeps every decision but moves
the tree's state (a hub node's relevant-children index rebuilt on a
different schedule, say) changes a later decision on a longer stream.

The stream comes from :class:`random.Random` (not numpy) so a library
upgrade cannot move it.  When a deliberate behaviour change moves a
digest, regenerate with ``python tests/sim/test_advice_pinned.py``.
"""

import hashlib
import json
import random

import pytest

from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy, policy_names
from repro.sim.engine import Simulator

CACHE = 64
REFS = 3000

#: Registry-docstring kwargs for the parametric schemes.
KWARGS = {
    "tree-threshold": {"threshold": 0.025},
    "tree-children": {"num_children": 5},
}

#: Policies that never issue on this stream: no-prefetch by definition,
#: file-prefetch because the stream carries no extent map.
SILENT = {"no-prefetch", "file-prefetch"}

#: ``tree`` at T_cpu = 2 ms: a short period widens the prefetch horizon,
#: so the best-first walk (not the depth-1 shortcut) picks candidates.
DEEP = "tree@t_cpu=2"

CASES = {name: (name, PAPER_PARAMS) for name in policy_names()}
CASES[DEEP] = ("tree", PAPER_PARAMS.with_t_cpu(2.0))

PINNED = {
    "cb-last-successor":
        "cc7776f4640a970415454a38c3a83d0450fb80cae48e20979672db6c63814abc",
    "cb-lz":
        "c1576b6c0d94016779ded3e489663e20bb45639bda14f6f541f13075735eebd1",
    "cb-markov":
        "ff269164bb566904f676edbbc0a3b5444626e1e6f8c00b422bd47384e770ce78",
    "cb-ppm":
        "10e3fb656b28d437534695d955b47c5b3ecbdc6c2497fc58ebc319746611b2a5",
    "cb-prob-graph":
        "f696c8db627704e67379f5fee7c5e1335d4c390acaad59e2e8f7946d66c6366f",
    "file-prefetch":
        "944ef6145c569c54cdb175603eaf0e5c03f1a439b992da3103e41a6a3d6758f8",
    "informed":
        "3955d2c97e447adeda6a5b6cabbdf8a5cab453d8682a4c0097f318488a6ba78b",
    "next-limit":
        "4b6c1101eaab695494762124e6d6ca50104fca425fdcc3198c474e466ca525ad",
    "no-prefetch":
        "944ef6145c569c54cdb175603eaf0e5c03f1a439b992da3103e41a6a3d6758f8",
    "perfect-selector":
        "5cd988ece70d9821a8f25ccfcd6eed65acc80465cdda259212429a65add87b9b",
    "tree":
        "c1576b6c0d94016779ded3e489663e20bb45639bda14f6f541f13075735eebd1",
    "tree-children":
        "2116a5530bdb33e7ce68bc13ee607a82a84d5038c68234e845d757ea9eadac4d",
    "tree-filtered":
        "7619eea0614d9d824d530095cb843ee6f6719acd5ea7848200281b2acfa602de",
    "tree-lvc":
        "a617512a63e1738eb63901e193d27fd3c452aea14dc1874c00b27b291141933c",
    "tree-next-limit":
        "526f63c8a1f18c0dced1390b89e72c0b605d4c35507edb1d8d52916ee60b5292",
    "tree-threshold":
        "6782af22b6f1ea5b9d52f5fc6e9e2cd089bf8738bf062102fc6e6c0423ab5e57",
    "tree@t_cpu=2":
        "44c39e0eea2440324e7e7c811a354181ce9985c0fef0673cddf682b6bae3dc5b",
}

#: ``sha256(json(model.snapshot_state()))`` after the stream, per case.
PINNED_MODELS = {
    "cb-last-successor":
        "200bcf4c7e46a706e0a11258f7698e568575254373a0e662a0beefb4372950f9",
    "cb-lz":
        "d7473ae21cadd4abe04c50a9d18e9a45bd10c3b9009cca651700180906ea5f2d",
    "cb-markov":
        "c5bc3f129310c844195ef3a4be59fecdda05ba7e71271404135a6cab93c5aef2",
    "cb-ppm":
        "8a9b29936d28d97b07d701ebed8b574cbac2b02212412a4fec08c0f50d53f2f0",
    "cb-prob-graph":
        "6552bd91546c5d7821f0e7691353205d3ef0fa18ec73a1c7311e799fdff61292",
    "perfect-selector":
        "33f17a847398dc1f948e62fb24a50f2a5baa9b4fcc7e7507bd85789bacdaf96f",
    "tree":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree-children":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree-filtered":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree-lvc":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree-next-limit":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree-threshold":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
    "tree@t_cpu=2":
        "8b18a9b68ecf61271dee0e1ef4f82733c058b80a487326a3d28840c1e96c36c1",
}


def stream(n=REFS, seed=14):
    """Repeated chains, short sequential runs and cold blocks."""
    rng = random.Random(seed)
    chains = [
        [rng.randrange(1, 400) for _ in range(rng.randint(3, 8))]
        for _ in range(12)
    ]
    blocks = []
    cold = 10_000
    while len(blocks) < n:
        pick = rng.random()
        if pick < 0.6:
            blocks.extend(rng.choice(chains))
        elif pick < 0.85:
            start = rng.randrange(500, 900)
            blocks.extend(range(start, start + rng.randint(2, 6)))
        else:
            blocks.append(cold)
            cold += 1
    return blocks[:n]


def model_digest(sim):
    """SHA-256 of the policy model's snapshot, or ``None`` without a model."""
    model = sim.policy.model()
    if model is None:
        return None
    blob = json.dumps(model.snapshot_state(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def advice_digest(case):
    """Run one case the way :meth:`Simulator.run` does, hashing every step.

    Returns the advice digest, the sealed statistics, the decision depths
    seen and the model digest at the end of the stream.
    """
    name, params = CASES[case]
    blocks = stream()
    sim = Simulator(params, make_policy(name, **KWARGS.get(name, {})), CACHE)
    sim.full_trace = blocks
    sim.policy.on_run_start(blocks)
    digest = hashlib.sha256()
    depths = set()
    for i, block in enumerate(blocks):
        sim.next_block = blocks[i + 1] if i + 1 < len(blocks) else None
        step = sim.step(block)
        parts = [step.outcome]
        for d in step.decisions:
            parts.append(f"{d.block},{d.probability!r},{d.depth},{d.tag}")
            depths.add(d.depth)
        digest.update(("|".join(parts) + "\n").encode("ascii"))
    stats = sim.finalize()
    return digest.hexdigest(), stats, depths, model_digest(sim)


@pytest.mark.parametrize("case", sorted(CASES))
def test_advice_matches_pinned_digest(case):
    digest, stats, _, _ = advice_digest(case)
    if case in SILENT:
        assert stats.prefetches_issued == 0
    else:
        # A pin over a policy that never prefetches would be vacuous.
        assert stats.prefetches_issued > 0
    assert digest == PINNED[case]


def test_short_period_reaches_past_depth_one():
    _, _, depths, _ = advice_digest(DEEP)
    assert max(depths) >= 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_matches_pinned_digest(case):
    assert advice_digest(case)[3] == PINNED_MODELS.get(case)


if __name__ == "__main__":
    results = {case: advice_digest(case) for case in sorted(CASES)}
    print("PINNED = {")
    for case, result in results.items():
        print(f'    "{case}":\n        "{result[0]}",')
    print("}\n\nPINNED_MODELS = {")
    for case, result in results.items():
        if result[3] is not None:
            print(f'    "{case}":\n        "{result[3]}",')
    print("}")
