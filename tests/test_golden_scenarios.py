"""Pinned sha256 digests of every file the non-default scenarios write.

``tests/test_golden.py`` pins four commands on the default scenario: side
7, both prey alive, ``ring2`` candidates, the learner as rule fallback, and
no trial reaching the step cap. These runs pin the paths it leaves out,
one scenario each, all with seed 17:

- ``one-live-prey``: only the positive prey lives, so every trace step's
  prey gap is ``None`` and the gate stays open;
- ``side-5``: a 5x5 grid, with an explicit ``instance_window`` and the
  trajectory of one trial inside it;
- ``side-11``: an 11x11 grid, where a coordinate takes two digits, so
  ascending module ids no longer sort in line order at export;
- ``candidates-all``: every cell but the prey's is a candidate target,
  with a low step cap;
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

    PYTHONPATH=src python3 tests/test_golden_scenarios.py > tests/golden_scenarios.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pursuitrl import cli
from test_golden import digests

GOLDEN = Path(__file__).with_name("golden_scenarios.json")

# Config file text per scenario; each run adds --seed 17.
CONFIGS = {
    "one-live-prey": "trials = 60\nprey_alive = true,false\n",
    "side-5": "trials = 100\ngrid_side = 5\ninstance_window = 31,50\ntrajectory_trial = 40\n",
    "side-11": "trials = 40\ngrid_side = 11\n",
    "candidates-all": "trials = 30\ncandidate_mode = all\nstep_cap = 200\n",
    "step-capped": "trials = 100\nstep_cap = 20\n",
    "eval-rules-stay": "trials = 30\ngrid_side = 5\nstep_cap = 100\nrule_fallback = stay\n",
    "swapped-kinds": "trials = 60\nprey_kinds = dangerous,positive\ndangerous_reward = -1.0\n",
    "second-prey-only": ("trials = 60\nprey_kinds = dangerous,positive\nprey_alive = false,true\n"
                         "trajectory_trial = 30\n"),
}
# Ranked by CF first; an offset with theta_X == 0 matches neither rule.
PARTIAL_RULES = ("No.1\nIf theta_X > 0 Then right with CF=1.0\n"
                 "No.2\nIf theta_X <= -1 Then left with CF=0.5\n")


def run_all(work: Path) -> dict[str, dict[str, str]]:
    """Run the pinned scenarios under ``work``; digests per run directory."""
    (work / "rules.txt").write_text(PARTIAL_RULES)
    with contextlib.redirect_stdout(io.StringIO()):
        for name, text in CONFIGS.items():
            config = work / f"{name}.cfg"
            config.write_text(text)
            command = "eval-rules" if name.startswith("eval-rules") else "train"
            argv = [command, "--config", config, "--seed", 17, "--out", work / name]
            if command == "eval-rules":
                argv += ["--rules", work / "rules.txt"]
            assert cli.main([str(arg) for arg in argv]) == 0, name
    return {name: digests(work / name) for name in CONFIGS}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden-scenarios"))


@pytest.mark.parametrize("run", list(CONFIGS))
def test_scenario_outputs_match_pinned_digests(recorded, run):
    assert recorded[run] == json.loads(GOLDEN.read_text())[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(run_all(Path(work)), sys.stdout, indent=1, sort_keys=True)
        print()
