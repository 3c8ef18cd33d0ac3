"""Pinned sha256 digests of every file the fixed runs of ``RUNS`` write.

Criterion 9 only shows that two runs of the same code agree; these pins
also catch a change that moves the rng draw order or a float expression.
Every run but ``extract-rules`` uses seed 17. The pins:

- ``train-gated``, ``train-ungated``: the default scenario, 200 trials with
  the gate on and off: side 7, both prey alive, ``ring2`` candidates, and
  no trial reaching the step cap;
- ``extract-rules``: the rules induced from ``train-gated``'s instances;
- ``eval-rules``: 100 rule-driven trials on those rules, with the learner
  as rule fallback;
- ``one-live-prey``: only the positive prey lives, so every trace step's
  prey gap is ``None`` and the gate stays open;
- ``side-5``: a 5x5 grid, with an explicit ``instance_window`` and the
  trajectory of one trial inside it;
- ``side-11``: an 11x11 grid, where a coordinate takes two digits, so
  ascending module ids no longer sort in line order at export;
- ``candidates-all``: every cell but the prey's is a candidate target,
  with a low step cap; no trial earns an upper reward, so every upper
  table stays empty;
- ``candidates-all-learned``: the same on a 5x5 grid without the cap, so
  that positive captures fill every upper table and target selection
  scores learned rules over every cell;
- ``step-capped``: a step cap of 20, which most trials reach, settling
  their traces with a zero reward;
- ``eval-rules-stay``: a rule-driven run with ``rule_fallback = stay``
  and rules that match only the offsets with ``theta_X != 0``, so the
  fallback decides every other move. Rules extracted from a tree match
  every offset and never reach the fallback;
- ``swapped-kinds``: prey 0 is the dangerous one and its capture costs a
  negative reward, so a capture's outcome and reward follow ``prey_kinds``
  rather than the prey's index;
- ``second-prey-only``: only prey 1 lives, so it is the step's agent 4
  and ``p0`` never appears in the trajectory.

A change that alters outputs on purpose re-records the pins and says so:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from pursuitrl import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")

# Pin name -> (command line, config text or None), run in this order inside
# one work directory, with paths relative to it. A run with config text
# reads it from <name>.cfg and adds --seed 17 --out <name>.
RUNS = {
    "train-gated": ("train --trials 200 --seed 17 --atf on --out train-gated", None),
    "train-ungated": ("train --trials 200 --seed 17 --atf off --out train-ungated", None),
    "extract-rules": ("extract-rules --instances train-gated/instances.csv"
                      " --out extract-rules/rules.txt", None),
    "eval-rules": ("eval-rules --rules extract-rules/rules.txt --trials 100 --seed 17"
                   " --out eval-rules", None),
    "one-live-prey": ("train", "trials = 60\nprey_alive = true,false\n"),
    "side-5": ("train", "trials = 100\ngrid_side = 5\ninstance_window = 31,50\n"
                        "trajectory_trial = 40\n"),
    "side-11": ("train", "trials = 40\ngrid_side = 11\n"),
    "candidates-all": ("train", "trials = 30\ncandidate_mode = all\nstep_cap = 200\n"),
    "candidates-all-learned": ("train", "trials = 40\ngrid_side = 5\ncandidate_mode = all\n"),
    "step-capped": ("train", "trials = 100\nstep_cap = 20\n"),
    "eval-rules-stay": ("eval-rules --rules partial-rules.txt",
                        "trials = 30\ngrid_side = 5\nstep_cap = 100\nrule_fallback = stay\n"),
    "swapped-kinds": ("train", "trials = 60\nprey_kinds = dangerous,positive\n"
                               "dangerous_reward = -1.0\n"),
    "second-prey-only": ("train", "trials = 60\nprey_kinds = dangerous,positive\n"
                                  "prey_alive = false,true\ntrajectory_trial = 30\n"),
}
# Ranked by CF first; an offset with theta_X == 0 matches neither rule.
PARTIAL_RULES = ("No.1\nIf theta_X > 0 Then right with CF=1.0\n"
                 "No.2\nIf theta_X <= -1 Then left with CF=0.5\n")


def digests(path: Path) -> dict[str, str]:
    return {item.relative_to(path).as_posix(): hashlib.sha256(item.read_bytes()).hexdigest()
            for item in sorted(path.rglob("*")) if item.is_file()}


def run_all(work: Path) -> dict[str, dict[str, str]]:
    """Run every pin under ``work``; digests per run directory."""
    (work / "partial-rules.txt").write_text(PARTIAL_RULES)
    home = Path.cwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name, (line, config) in RUNS.items():
                argv = line.split()
                if config is not None:
                    Path(f"{name}.cfg").write_text(config)
                    argv += ["--config", f"{name}.cfg", "--seed", "17", "--out", name]
                assert cli.main(argv) == 0, name
    finally:
        os.chdir(home)
    return {name: digests(work / name) for name in RUNS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(run_all(Path(work)), sys.stdout, indent=1, sort_keys=True)
        print()
    sys.exit()

# Only the tests need pytest: the re-record command above runs on the
# standard library alone.
import pytest


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", list(RUNS))
def test_outputs_match_pinned_digests(recorded, run):
    assert recorded[run] == json.loads(GOLDEN.read_text())[run]
