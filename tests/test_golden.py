"""Pinned sha256 digests of every file three fixed runs write.

Criterion 9 only shows that two runs of the same code agree; these pins
also catch a change that moves the rng draw order or a float expression.
The runs: ``train`` on seed 17 for 200 trials with the gate on, the same
with the gate off, and ``extract-rules`` + ``eval-rules`` (100 trials,
seed 17) on the first run's instances.

A change that alters outputs on purpose re-records the pins and says so:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pursuitrl import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")


def digests(path: Path) -> dict[str, str]:
    return {item.relative_to(path).as_posix(): hashlib.sha256(item.read_bytes()).hexdigest()
            for item in sorted(path.rglob("*")) if item.is_file()}


def run_all(work: Path) -> dict[str, dict[str, str]]:
    """Run the pinned commands under ``work``; digests per run directory."""
    train = ["train", "--trials", "200", "--seed", "17"]
    commands = {
        "train-gated": train + ["--atf", "on", "--out", work / "train-gated"],
        "train-ungated": train + ["--atf", "off", "--out", work / "train-ungated"],
        "extract-rules": ["extract-rules", "--instances",
                          work / "train-gated" / "instances.csv",
                          "--out", work / "extract-rules" / "rules.txt"],
        "eval-rules": ["eval-rules", "--rules", work / "extract-rules" / "rules.txt",
                       "--trials", "100", "--seed", "17", "--out", work / "eval-rules"],
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands.values():
            assert cli.main([str(arg) for arg in argv]) == 0
    return {name: digests(work / name) for name in commands}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", ["train-gated", "train-ungated", "extract-rules",
                                 "eval-rules"])
def test_outputs_match_pinned_digests(recorded, run):
    assert recorded[run] == json.loads(GOLDEN.read_text())[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(run_all(Path(work)), sys.stdout, indent=1, sort_keys=True)
        print()
