"""The archived benchmark results agree with EXPERIMENTS.md.

Each ``## <id>:`` section of EXPERIMENTS.md quotes its measured output in
a fenced block, and ``benchmarks/results/<id>.txt`` is the file the bench
wrote.  A results file that no longer contains its quoted block means one
of the two was regenerated without the other.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

#: Timing results: wall-clock figures vary by host, so EXPERIMENTS.md quotes
#: no block for them.
TIMING_RESULTS = {
    "service_throughput", "fleet_scaling", "multitenancy", "overload",
    "warm_start", "campaign_diurnal_chaos",
}

_SECTION = re.compile(r"^## ([\w.]+): .*?\n(.*?)(?=^## |\Z)", re.S | re.M)
_MEASURED = re.compile(r"\*\*Measured:\*\*\s*\n```\n(.*?)```", re.S)


def _quoted_blocks():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    blocks = {}
    for section in _SECTION.finditer(text):
        measured = _MEASURED.search(section.group(2))
        if measured is not None:
            blocks[section.group(1)] = measured.group(1)
    return blocks


BLOCKS = _quoted_blocks()
RESULT_IDS = sorted(path.stem for path in RESULTS.glob("*.txt"))


def test_every_quoted_block_has_a_results_file():
    assert BLOCKS, "no measured blocks found in EXPERIMENTS.md"
    assert sorted(set(BLOCKS) - set(RESULT_IDS)) == []


@pytest.mark.parametrize("exp_id", RESULT_IDS)
def test_results_file_contains_its_block(exp_id):
    body = (RESULTS / f"{exp_id}.txt").read_text(encoding="utf-8")
    if exp_id in TIMING_RESULTS:
        assert exp_id not in BLOCKS
        return
    assert exp_id in BLOCKS, f"EXPERIMENTS.md quotes no block for {exp_id}"
    assert BLOCKS[exp_id] in body
