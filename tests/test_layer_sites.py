"""The call sites the benchmark's per-layer tracer wraps, exercised from here.

``bench/spans.py`` installs its wrappers on module attributes after the
package is imported, and ``bench/golden.json`` pins the call counts they
record. A caller that binds one of those functions at import time, or
calls it by another name, bypasses the wrapper and silently changes the
counts. These tests read the site list from ``bench/spans.py`` (without
changing it), wrap every site of a fresh import with a counter the same
way, and run short ``train``, ``extract-rules`` and ``eval-rules``
commands through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE = "pursuitrl"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()
SITES = SPANS.SPAN_SITES + SPANS.COUNT_SITES


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name == PACKAGE or name.startswith(PACKAGE + ".")]


@pytest.fixture
def fresh_modules():
    """The package imported anew, as each shell command gets it, by short
    module name; the copy the rest of the suite imported is put back after."""
    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        importlib.import_module(f"{PACKAGE}.cli")
        yield {name.rpartition(".")[2]: sys.modules[name] for name in _package_modules()}
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class SiteCounter:
    """Calls per site name, and the keyword names each site was called with."""

    def __init__(self, modules: dict) -> None:
        self.calls: Counter[str] = Counter()
        self.keywords: dict[str, set[str]] = {}
        for name, module, path in SITES:
            owner, attr = resolve(modules[module], path)
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))

    def _counted(self, name: str, fn):
        calls, keywords = self.calls, self.keywords.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            keywords.update(kwargs)
            return fn(*args, **kwargs)

        return wrapper


def run_command(modules: dict, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert modules["cli"].main([str(arg) for arg in argv]) == 0


def world_steps(run_dir: Path) -> int:
    with open(run_dir / "trials.csv", newline="") as handle:
        return sum(int(row["steps"]) for row in csv.DictReader(handle))


def test_every_site_resolves_to_a_function_on_a_fresh_import(fresh_modules):
    for name, module, path in SITES:
        owner, attr = resolve(fresh_modules[module], path)
        assert callable(getattr(owner, attr)), name


def test_commands_call_every_site_through_its_wrapper(fresh_modules, tmp_path):
    counter = SiteCounter(fresh_modules)
    calls = counter.calls

    train = tmp_path / "train"
    run_command(fresh_modules, ["train", "--trials", 8, "--seed", 3, "--atf", "off",
                                "--out", train])
    steps = world_steps(train)
    assert steps > 0
    assert calls["hmrl.select_target"] == 4 * steps
    assert calls["q_learning.q_update"] == 4 * steps
    assert calls["env.step"] == steps
    for name in ("hmrl.policy_step", "hmrl.observe", "q_learning.epsilon_greedy",
                 "hmrl.deliver_rewards", "hmrl.reinforce_upper",
                 "profit_sharing.WeightTable.add"):
        assert calls[name] >= 1, name
    assert calls["knowledge.rule_policy_act"] == 0

    rules = tmp_path / "rules.txt"
    run_command(fresh_modules, ["extract-rules", "--instances", train / "instances.csv",
                                "--out", rules])
    used = calls.copy()
    calls.clear()
    evaluated = tmp_path / "eval"
    run_command(fresh_modules, ["eval-rules", "--rules", rules, "--trials", 5, "--seed", 4,
                                "--out", evaluated])
    steps = world_steps(evaluated)
    assert calls["hmrl.select_target"] == 4 * steps
    assert calls["q_learning.q_update"] == 4 * steps
    assert calls["env.step"] == steps
    assert calls["knowledge.rule_policy_act"] == 4 * steps
    # The tracer counts fallbacks by wrapping the fallback= keyword argument.
    assert counter.keywords["knowledge.rule_policy_act"] == {"fallback"}

    used.update(calls)
    assert [name for name, _, _ in SITES if used[name] == 0] == []
