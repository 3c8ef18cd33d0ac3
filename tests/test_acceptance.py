"""Acceptance suite: one test per shipped criterion.

The multi-seed training sweeps are expensive, so they run once in
module-scoped fixtures (two worker processes) and every directional
criterion reads from the shared results. Each test prints a one-line
PASS marker naming its criterion.
"""

import filecmp
import math
import multiprocessing
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from random import Random

import pytest

from pursuitrl import cli
from pursuitrl.env import ACTIONS, Action, Position, legal_actions_at
from pursuitrl.experiment import (
    ExperimentConfig,
    compute_metrics,
    run_rule_eval,
    run_training,
)
from pursuitrl.hmrl import ATFieldParams, atf
from pursuitrl.knowledge import Instance, Leaf, extract_rules, gain_ratio, induce_tree
from pursuitrl.profit_sharing import PSParams, check_suppression
from pursuitrl.q_learning import ExplicitMDP, QTable, q_update, solve_value_iteration

pytestmark = pytest.mark.slow

SEEDS = (1, 2, 3, 4, 5)
SWEEP_CONFIG = ExperimentConfig(trials=2000)
DISTILL_SEEDS = SEEDS[:3]


def _train_task(args):
    seed, atf_enabled = args
    config = ExperimentConfig(trials=SWEEP_CONFIG.trials, atf_enabled=atf_enabled)
    result = run_training(config, seed=seed)
    return seed, result.records, result.instances


def _rule_eval_task(args):
    seed, rules = args
    result = run_rule_eval(SWEEP_CONFIG, rules, seed=seed)
    return seed, result.records


def _run_parallel(task, arguments):
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return [task(a) for a in arguments]
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        return list(pool.map(task, arguments))


@pytest.fixture(scope="module")
def sweep():
    started = time.monotonic()
    on_runs = _run_parallel(_train_task, [(s, True) for s in SEEDS])
    on_elapsed = time.monotonic() - started
    off_runs = _run_parallel(_train_task, [(s, False) for s in SEEDS])
    return {
        "on": {seed: (records, instances) for seed, records, instances in on_runs},
        "off": {seed: (records, instances) for seed, records, instances in off_runs},
        "on_elapsed": on_elapsed,
    }


@pytest.fixture(scope="module")
def distilled(sweep):
    tasks = []
    for seed in DISTILL_SEEDS:
        _, instances = sweep["on"][seed]
        rules = extract_rules(induce_tree(instances))
        assert rules
        tasks.append((seed, rules))
    return dict(_run_parallel(_rule_eval_task, tasks))


def final_block(records, atf_enabled=True):
    return compute_metrics(records, block_ends=SWEEP_CONFIG.block_ends)[-1]


def test_criterion_1_atf_field_exact():
    params = ATFieldParams(near_distance=2, far_distance=5)
    expected = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    for distance in range(13):
        assert atf(distance, params) == expected[distance]
    print("\n[criterion 1] PASS: credit gate exact on all distances 0..12")


def test_criterion_2_confidence_factor_cross_check():
    (rule,) = extract_rules(Leaf(label=Action.WEST, covered=12519, errors=1907))
    assert rule.cf == 0.8476715392603243
    assert repr(rule.cf) == "0.8476715392603243"
    print("\n[criterion 2] PASS: leaf (12519/1907) -> CF=0.8476715392603243")


def test_criterion_3_suppression_sweep():
    started = time.monotonic()
    for rule_bound in range(1, 7):
        for discount in range(rule_bound + 1, rule_bound + 5):
            params = PSParams(discount=float(discount), rule_bound=rule_bound)
            for length in range(1, 51):
                assert check_suppression(params, length), (rule_bound, discount, length)
    tight = PSParams.__new__(PSParams)
    object.__setattr__(tight, "discount", 4.0)
    object.__setattr__(tight, "rule_bound", 4)
    object.__setattr__(tight, "reward", 100.0)
    assert not check_suppression(tight, 10)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\n[criterion 3] PASS: suppression holds on the full grid ({elapsed:.2f}s)")


def test_criterion_4_q_learning_matches_value_iteration():
    side, target, gamma, reward = 5, Position(4, 4), 0.9, 100.0
    states = [Position(x, y) for x in range(side) for y in range(side)]
    transitions = {}
    for state in states:
        if state == target:
            continue
        for action in legal_actions_at(state, side):
            nxt = Position(state.x + action.value[0], state.y + action.value[1])
            transitions[(state, action)] = (
                (1.0, nxt, reward if nxt == target else 0.0),)
    mdp = ExplicitMDP(states=tuple(states), actions=ACTIONS,
                      transitions=transitions, gamma=gamma,
                      terminal=frozenset((target,)))
    oracle = solve_value_iteration(mdp)

    table = QTable(alpha=1.0, gamma=gamma)
    rng = Random(1)
    visits = Counter()
    nonterminal = [s for s in states if s != target]
    for _ in range(100_000):
        state = rng.choice(nonterminal)
        action = rng.choice(legal_actions_at(state, side))
        visits[(state, action)] += 1
        (_, nxt, r), = transitions[(state, action)]
        q_update(table, state, action.index, r, nxt, terminal=nxt == target,
                 alpha=visits[(state, action)] ** -0.6)

    tolerance = 1e-3
    tie_eps = 1e-6
    for state in nonterminal:
        legal = legal_actions_at(state, side)
        learned_best = max(table.get(state, a.index) for a in legal)
        assert learned_best == pytest.approx(oracle[state], abs=tolerance)
        learned_greedy = {a for a in legal
                          if table.get(state, a.index) >= learned_best - tie_eps}
        exact_q = {
            a: transitions[(state, a)][0][2]
            + gamma * oracle[transitions[(state, a)][0][1]]
            for a in legal
        }
        best_q = max(exact_q.values())
        oracle_greedy = {a for a in legal if exact_q[a] >= best_q - tie_eps}
        assert learned_greedy == oracle_greedy, state
    print("\n[criterion 4] PASS: greedy values within 1e-3 and policy identical")


def brute_force_gain_ratio(instances, attr_index, threshold):
    def entropy(group):
        if not group:
            return 0.0
        total = 0.0
        for label in set(item.label for item in group):
            p = sum(1 for item in group if item.label is label) / len(group)
            total -= p * math.log2(p)
        return total

    left = [item for item in instances if item[attr_index] <= threshold]
    right = [item for item in instances if item[attr_index] > threshold]
    n = len(instances)
    gain = entropy(instances) - (len(left) / n) * entropy(left) \
        - (len(right) / n) * entropy(right)
    fractions = (len(left) / n, len(right) / n)
    split_info = -sum(f * math.log2(f) for f in fractions if f)
    return gain / split_info


def planted_label(x, y):
    if y == 0 and x > 0:
        return Action.EAST
    if y < 0:
        return Action.NORTH
    return Action.STAY


def test_criterion_5_tree_induction_oracles():
    rng = Random(1234)
    checked = 0
    for _ in range(50):
        instances = [
            Instance(rng.randrange(-6, 7), rng.randrange(-6, 7),
                     rng.choice(ACTIONS))
            for _ in range(20)
        ]
        for attr_index, attribute in enumerate(("theta_X", "theta_Y")):
            values = sorted({item[attr_index] for item in instances})
            for threshold in values[:-1]:
                expected = brute_force_gain_ratio(instances, attr_index, threshold)
                assert gain_ratio(instances, attribute, threshold) == pytest.approx(
                    expected, abs=1e-12)
                checked += 1
    assert checked >= 50

    grid = [Instance(x, y, planted_label(x, y))
            for x in range(-6, 7) for y in range(-6, 7)]
    tree = induce_tree(grid, min_leaf=2, max_depth=12)
    from pursuitrl.knowledge import classify

    mismatches = [(x, y) for x in range(-6, 7) for y in range(-6, 7)
                  if classify(tree, x, y) is not planted_label(x, y)]
    assert mismatches == []
    print(f"\n[criterion 5] PASS: {checked} gain-ratio checks vs brute force; "
          "planted rule recovered on all 169 offsets")


def test_criterion_6_learning_curve_direction(sweep):
    for seed in SEEDS:
        records, _ = sweep["on"][seed]
        early, late = compute_metrics(records, block_ends=(200, 2000))
        assert (early.start, early.end) == (1, 200)
        assert (late.start, late.end) == (201, 2000)
        assert late.steps_mean < early.steps_mean, (
            f"seed {seed}: {late.steps_mean:.1f} !< {early.steps_mean:.1f}")
    assert sweep["on_elapsed"] < 300.0
    print(f"\n[criterion 6] PASS: steps fall from block 1-200 to 201-2000 for all "
          f"{len(SEEDS)} seeds ({sweep['on_elapsed']:.0f}s for the sweep)")


def test_criterion_7_atf_benefit_direction(sweep):
    with_gate = statistics.fmean(
        final_block(sweep["on"][seed][0]).positive_ratio for seed in SEEDS)
    without_gate = statistics.fmean(
        final_block(sweep["off"][seed][0]).positive_ratio for seed in SEEDS)
    assert with_gate >= without_gate
    print(f"\n[criterion 7] PASS: mean final-block positive ratio "
          f"{with_gate:.1%} (gated) >= {without_gate:.1%} (ungated)")


def test_criterion_8_rule_distillation_closure(sweep, distilled):
    trained_safety, trained_steps = [], []
    ruled_safety, ruled_steps = [], []
    for seed in DISTILL_SEEDS:
        trained = final_block(sweep["on"][seed][0])
        ruled = final_block(distilled[seed])
        trained_safety.append(trained.safety_target)
        trained_steps.append(trained.steps_mean)
        ruled_safety.append(ruled.safety_target)
        ruled_steps.append(ruled.steps_mean)
    safety_gap = abs(statistics.fmean(ruled_safety) - statistics.fmean(trained_safety))
    steps_ratio = statistics.fmean(ruled_steps) / statistics.fmean(trained_steps)
    assert safety_gap <= 0.10, f"capture-rate gap {safety_gap:.3f}"
    assert steps_ratio <= 1.25, f"steps ratio {steps_ratio:.3f}"
    print(f"\n[criterion 8] PASS: distilled rules within {safety_gap * 100:.1f}pp "
          f"capture rate, {steps_ratio:.2f}x steps")


def test_criterion_9_train_reports_byte_identical(tmp_path):
    args = ["train", "--trials", "60", "--seed", "17", "--atf", "on"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    print(f"\n[criterion 9] PASS: {len(match)} report files byte-identical")


def test_criterion_10_metric_identity_exact(sweep):
    blocks = 0
    for bank in ("on", "off"):
        for seed in SEEDS:
            records, _ = sweep[bank][seed]
            for m in compute_metrics(records, block_ends=(200, 2000)):
                if m.within_safety is None:
                    assert m.positive_ratio == 0.0
                else:
                    assert m.positive_ratio == m.safety_target * m.within_safety
                    assert m.within_safety + m.within_dangerous == 1.0
                blocks += 1
    assert blocks == 20
    print(f"\n[criterion 10] PASS: ratio identity exact on all {blocks} blocks")
