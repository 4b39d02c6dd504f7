"""Golden CLI outputs: seeded runs must reproduce the stored files byte for byte.

Each case runs one small command in-process through ``cli.main`` and
compares every file it writes with ``tests/golden/<case>/``.  The fixtures
pin the seeded streams, so a refactor that claims unchanged behaviour must
leave them untouched.  Regenerate them only in a change that deliberately
alters seeded outputs, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from dyspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "config.json")
# config.json without the keys a command does not read (it would exit 2).
BENCH_CONFIG = str(GOLDEN / "config-bench.json")
HYPOTHESIS_CONFIG = str(GOLDEN / "config-hypothesis.json")
MASK_CONFIG = str(GOLDEN / "config-mask.json")

CASES = {
    "generate-budget": ["generate", "--config", CONFIG, "--budget", "16"],
    "generate-threshold": [
        "generate", "--config", CONFIG, "--threshold", "0.05", "--size-cap", "24",
    ],
    "generate-chain": ["generate", "--config", CONFIG, "--structure", "chain", "--budget", "8"],
    "generate-k-chains": [
        "generate", "--config", CONFIG, "--structure", "k_chains", "--k", "3", "--budget", "12",
    ],
    "generate-static-tree": [
        "generate", "--config", CONFIG, "--structure", "static_tree",
        "--branching", "3,2", "--budget", "10", "--target-temp", "0",
    ],
    "bench-json": [
        "bench", "--config", BENCH_CONFIG, "--format", "json", "--budgets", "16",
        "--thresholds", "0.1", "--size-cap", "24", "--k", "2", "--branching", "2,2,2",
        "--seeds", "2",
    ],
    "hypothesis": [
        "hypothesis", "--config", HYPOTHESIS_CONFIG, "--min-events", "300", "--bins", "5",
    ],
    "mask-constructed": [
        "mask", "--config", MASK_CONFIG, "--generator", "constructed", "--sizes", "48",
        "--block", "8", "--seeds", "2", "--per-seed",
    ],
    "oracle-threshold-equivalence": [
        "oracle", "--suite", "threshold-equivalence", "--instances", "20", "--seed", "2",
    ],
}


def run_case(name: str, out: Path) -> None:
    assert main(CASES[name] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    run_case(name, tmp_path)
    expected = GOLDEN / name
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in expected.iterdir())
    for filename in produced:
        assert (tmp_path / filename).read_bytes() == (expected / filename).read_bytes(), filename


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        run_case(case, target)
