"""Pin ``Simulator.step``'s advice to committed digests.

The parity tests compare the engine with itself (offline run vs session
vs server); these digests compare it with the engine as it was when they
were generated.  A refactor of the engine's inner loop that changes one
outcome, one decision, one probability's float bits or the order of a
period's decisions changes a digest here.

The stream comes from :class:`random.Random` (not numpy) so a library
upgrade cannot move it.  When a deliberate behaviour change moves a
digest, regenerate with ``python tests/sim/test_advice_pinned.py``.
"""

import hashlib
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


def advice_digest(case):
    """Run one case the way :meth:`Simulator.run` does, hashing every step."""
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
    return digest.hexdigest(), stats, depths


@pytest.mark.parametrize("case", sorted(CASES))
def test_advice_matches_pinned_digest(case):
    digest, stats, _ = advice_digest(case)
    if case in SILENT:
        assert stats.prefetches_issued == 0
    else:
        # A pin over a policy that never prefetches would be vacuous.
        assert stats.prefetches_issued > 0
    assert digest == PINNED[case]


def test_short_period_reaches_past_depth_one():
    _, _, depths = advice_digest(DEEP)
    assert max(depths) >= 2


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}":\n        "{advice_digest(case)[0]}",')
