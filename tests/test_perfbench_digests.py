"""The tiny-size seed-3 output digests of every perfbench workload, pinned.

A digest covers a workload's generated tokens and steps, verify results or
block counts, so a change to any seeded stream (model rows, keyed uniforms,
construction or verification order) fails here, traced and untraced.  The
digests of the full-size runs are recorded with each benchmark result.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

TINY_SEED3_DIGESTS = {
    "paper-b64": "2ce67675f6a72657",
    "bench-cold": "8a1c0f2d776ce2df",
    "mc-verify": "8989fbfc77a33ccc",
    "mask-2048": "f2c59990e0d6a75f",
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY_SEED3_DIGESTS))
def test_tiny_seed3_digest(name, trace):
    result, lines = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    digests = [line.split()[-1] for line in lines if line.startswith("  output digest ")]
    assert digests == [TINY_SEED3_DIGESTS[name]]
