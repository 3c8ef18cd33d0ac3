import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import ACTIONS, Action
from pursuitrl.knowledge import (
    IfThenRule,
    Instance,
    Leaf,
    Split,
    classify,
    extract_rules,
    format_rules,
    format_tree,
    gain_ratio,
    induce_tree,
    load_instances,
    load_rules,
    parse_rules,
    rule_policy_act,
    save_instances,
    save_rules,
)


def inst(x, y, label):
    return Instance(x, y, label)


# --- gain ratio ---------------------------------------------------------

def brute_force_gain_ratio(instances, attribute, threshold):
    """Independent calculation straight from probability lists."""
    idx = 0 if attribute == "theta_X" else 1

    def entropy(subset):
        if not subset:
            return 0.0
        total = 0.0
        for label in set(i.label for i in subset):
            p = sum(1 for i in subset if i.label is label) / len(subset)
            total -= p * math.log(p, 2)
        return total

    left = [i for i in instances if i[idx] <= threshold]
    right = [i for i in instances if i[idx] > threshold]
    n = len(instances)
    gain = entropy(instances) - (len(left) / n) * entropy(left) \
        - (len(right) / n) * entropy(right)
    split_info = entropy_of_fractions(len(left) / n, len(right) / n)
    return gain / split_info


def entropy_of_fractions(*fractions):
    return -sum(f * math.log(f, 2) for f in fractions if f)


def test_gain_ratio_zero_for_pure_labels():
    instances = [inst(x, 0, Action.STAY) for x in range(-3, 4)]
    for threshold in range(-3, 3):
        assert gain_ratio(instances, "theta_X", threshold) == 0.0


def test_gain_ratio_perfect_split_is_one():
    instances = [inst(-1, 0, Action.WEST)] * 5 + [inst(2, 0, Action.EAST)] * 5
    assert gain_ratio(instances, "theta_X", 0) == pytest.approx(1.0)


def test_gain_ratio_hand_dataset_matches_oracle():
    rng = Random(12)
    instances = [
        inst(rng.randrange(-3, 4), rng.randrange(-3, 4),
             rng.choice((Action.STAY, Action.EAST, Action.WEST)))
        for _ in range(12)
    ]
    for attribute in ("theta_X", "theta_Y"):
        for threshold in (-2, -1, 0, 1):
            idx = 0 if attribute == "theta_X" else 1
            sides = {i[idx] <= threshold for i in instances}
            if sides != {True, False}:
                continue
            assert gain_ratio(instances, attribute, threshold) == pytest.approx(
                brute_force_gain_ratio(instances, attribute, threshold), abs=1e-12)


def test_gain_ratio_degenerate_split_rejected():
    instances = [inst(1, 0, Action.STAY), inst(2, 0, Action.EAST)]
    with pytest.raises(ValueError):
        gain_ratio(instances, "theta_X", 5)
    with pytest.raises(ValueError):
        gain_ratio(instances[:1], "theta_X", 1)
    with pytest.raises(ValueError):
        gain_ratio(instances, "theta_Z", 1)


# --- tree induction -----------------------------------------------------

def test_pure_input_gives_single_leaf():
    tree = induce_tree([inst(1, 2, Action.SOUTH)] * 9)
    assert isinstance(tree, Leaf)
    assert tree.label is Action.SOUTH
    assert tree.covered == 9 and tree.errors == 0


def planted_label(x, y):
    if y == 0 and x > 0:
        return Action.EAST
    if y < 0:
        return Action.NORTH
    return Action.STAY


def grid_instances(label_fn, copies=1):
    return [inst(x, y, label_fn(x, y))
            for x in range(-6, 7) for y in range(-6, 7)
            for _ in range(copies)]


def test_planted_rule_recovered_exactly():
    tree = induce_tree(grid_instances(planted_label))
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert classify(tree, x, y) is planted_label(x, y)


def test_thresholds_are_observed_integer_values():
    tree = induce_tree(grid_instances(planted_label))
    seen = []

    def walk(node):
        if isinstance(node, Split):
            seen.append(node.threshold)
            walk(node.le_child)
            walk(node.gt_child)

    walk(tree)
    assert seen
    for threshold in seen:
        assert threshold == int(threshold)
        assert -6 <= threshold < 6      # below the max observed value


def test_tree_deterministic_under_shuffle():
    base = grid_instances(planted_label)
    rng = Random(3)
    shuffled = list(base)
    rng.shuffle(shuffled)
    assert induce_tree(base) == induce_tree(shuffled)


def test_every_split_reduces_weighted_entropy():
    rng = Random(8)
    instances = [
        inst(rng.randrange(-6, 7), rng.randrange(-6, 7),
             rng.choice(tuple(Action)))
        for _ in range(400)
    ]
    tree = induce_tree(instances)

    def node_instances(node, subset):
        if isinstance(node, Leaf):
            return
        idx = 0 if node.attribute == "theta_X" else 1
        left = [i for i in subset if i[idx] <= node.threshold]
        right = [i for i in subset if i[idx] > node.threshold]

        def entropy(group):
            total = 0.0
            for label in set(i.label for i in group):
                p = sum(1 for i in group if i.label is label) / len(group)
                total -= p * math.log2(p)
            return total

        n = len(subset)
        before = entropy(subset) * n
        after = entropy(left) * len(left) + entropy(right) * len(right)
        assert after < before
        node_instances(node.le_child, left)
        node_instances(node.gt_child, right)

    node_instances(tree, instances)


def test_min_leaf_and_depth_stops():
    instances = grid_instances(planted_label)
    shallow = induce_tree(instances, max_depth=1)

    def depth(node):
        if isinstance(node, Leaf):
            return 0
        return 1 + max(depth(node.le_child), depth(node.gt_child))

    assert depth(shallow) <= 1
    chunky = induce_tree(instances, min_leaf=80)

    def smallest_leaf(node):
        if isinstance(node, Leaf):
            return node.covered
        return min(smallest_leaf(node.le_child), smallest_leaf(node.gt_child))

    assert smallest_leaf(chunky) >= 80


# --- rule extraction ----------------------------------------------------

def test_leaf_confidence_factor_cross_check():
    rules = extract_rules(Leaf(label=Action.WEST, covered=12519, errors=1907))
    assert len(rules) == 1
    assert rules[0].cf == (12519 - 1907) / 12519
    assert repr(rules[0].cf) == "0.8476715392603243"


def test_error_free_leaf_has_full_confidence():
    rules = extract_rules(Leaf(label=Action.STAY, covered=8056, errors=0))
    assert rules[0].cf == 1.0
    assert rules[0].conditions == ()


def test_extract_rules_simplifies_interval_bounds():
    tree = Split(
        "theta_X", 0,
        le_child=Split("theta_X", -2,
                       le_child=Leaf(Action.WEST, 10, 0),
                       gt_child=Leaf(Action.STAY, 6, 1)),
        gt_child=Leaf(Action.EAST, 8, 2),
    )
    rules = extract_rules(tree)
    by_action = {rule.action: rule for rule in rules}
    assert by_action[Action.STAY].conditions == (
        ("theta_X", "<=", 0), ("theta_X", ">", -2))
    assert by_action[Action.WEST].conditions == (("theta_X", "<=", -2),)
    assert by_action[Action.EAST].conditions == (("theta_X", ">", 0),)
    assert [r.cf for r in rules] == sorted((r.cf for r in rules), reverse=True)


def test_rules_match_tree_on_every_offset():
    rng = Random(5)
    instances = [
        inst(rng.randrange(-6, 7), rng.randrange(-6, 7),
             rng.choice(tuple(Action)))
        for _ in range(600)
    ]
    tree = induce_tree(instances)
    rules = extract_rules(tree)
    assert all(0.0 <= rule.cf <= 1.0 for rule in rules)
    fallback_hits = []
    for x in range(-6, 7):
        for y in range(-6, 7):
            ruled = rule_policy_act(rules, x, y,
                                    fallback=lambda *_: fallback_hits.append(1))
            assert ruled is classify(tree, x, y)
    assert not fallback_hits        # leaf rules partition the whole plane


REFERENCE_RULES = """\
No.1
If theta_X <= 0 theta_X > -1 theta_Y <= 0 theta_Y > -1 Then stay with CF=1.0
No.2
If theta_X <= 0 theta_X > -1 theta_Y <= 1 theta_Y > 0 Then down with CF=0.8742743263148774
No.3
If theta_X <= 2 theta_X > 0 theta_Y <= 0 theta_Y > -1 Then right with CF=0.8586460032626427
No.4
If theta_X <= 0 theta_X > -1 theta_Y <= -1 Then up with CF=0.8478816513050886
No.5
If theta_X <= -1 theta_Y <= 0 theta_Y > -1 Then left with CF=0.8476715392603243
"""


def test_reference_rules_drive_expected_actions():
    rules = parse_rules(REFERENCE_RULES)
    fallback = lambda x, y: Action.SOUTH
    assert rule_policy_act(rules, 0, 0, fallback) is Action.STAY
    assert rule_policy_act(rules, -3, 0, fallback) is Action.WEST
    assert rule_policy_act(rules, 0, -4, fallback) is Action.NORTH
    assert rule_policy_act(rules, 1, 0, fallback) is Action.EAST


def test_fallback_invoked_exactly_once_when_unmatched():
    rules = parse_rules(REFERENCE_RULES)
    calls = []

    def fallback(x, y):
        calls.append((x, y))
        return Action.STAY

    rule_policy_act(rules, 5, 5, fallback)
    assert calls == [(5, 5)]


conditions = st.lists(st.tuples(st.sampled_from(("theta_X", "theta_Y")),
                                 st.sampled_from(("<=", ">")),
                                 st.integers(-26, 26).map(lambda t: t / 2)),
                       max_size=4)
rule_sets = st.lists(st.builds(IfThenRule, conditions.map(tuple), st.sampled_from(ACTIONS),
                               st.floats(0.0, 1.0)), max_size=12)


def assert_matches_condition_scan(rules, side):
    # Every offset a hunter can have to a target on a side-``side`` grid.
    bound = 2 * (side - 1)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            calls = []

            def fallback(*offset):
                calls.append(offset)
                return None

            expected = next((rule.action for rule in rules
                             if reference.rule_matches(rule, x, y)), None)
            assert rule_policy_act(rules, x, y, fallback=fallback) is expected
            assert calls == ([] if expected is not None else [(x, y)])


@settings(max_examples=60, deadline=None)
@given(rules=rule_sets)
def test_rule_lookup_matches_condition_scan(rules):
    assert_matches_condition_scan(rules, side=7)


@pytest.mark.parametrize("side", (5, 7, 9))
def test_extracted_rule_lookup_matches_condition_scan(side):
    rules = extract_rules(induce_tree(grid_instances(planted_label)))
    assert_matches_condition_scan(rules + parse_rules(REFERENCE_RULES), side)


def test_rule_file_round_trip(tmp_path):
    tree = induce_tree(grid_instances(planted_label))
    rules = extract_rules(tree)
    path = tmp_path / "rules.txt"
    save_rules(path, rules)
    assert load_rules(path) == rules
    # Confidence factors survive with full precision.
    text = path.read_text()
    assert parse_rules(text) == rules


def test_parse_rules_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rules("If theta_X <= 1 Do something\n")
    with pytest.raises(ValueError):
        parse_rules("If theta_X <= 1 Then sideways with CF=1.0\n")


# --- formatting ---------------------------------------------------------

def test_format_tree_golden():
    tree = Split(
        "theta_Y", -1,
        le_child=Leaf(Action.NORTH, 120, 0),
        gt_child=Split(
            "theta_X", -1,
            le_child=Leaf(Action.WEST, 12519, 1907),
            gt_child=Leaf(Action.STAY, 8056, 0),
        ),
    )
    assert format_tree(tree) == (
        "theta_Y <= -1: up (120.0)\n"
        "theta_Y > -1\n"
        "|   theta_X <= -1: left (12519.0/1907.0)\n"
        "|   theta_X > -1: stay (8056.0)\n"
    )


def test_format_rules_golden():
    rules = [
        IfThenRule((("theta_X", "<=", 0), ("theta_X", ">", -1)), Action.STAY, 1.0),
        IfThenRule((("theta_X", "<=", -1),), Action.WEST, 10612 / 12519),
    ]
    assert format_rules(rules) == (
        "No.1\n"
        "If theta_X <= 0 theta_X > -1 Then stay with CF=1.0\n"
        "No.2\n"
        "If theta_X <= -1 Then left with CF=0.8476715392603243\n"
    )


def test_instances_csv_round_trip(tmp_path):
    instances = grid_instances(planted_label)[:57]
    path = tmp_path / "instances.csv"
    count = save_instances(path, instances)
    assert count == 57
    assert load_instances(path) == instances
    assert path.read_text().splitlines()[0] == "theta_x,theta_y,action"


def test_load_instances_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,stay\n")
    with pytest.raises(ValueError):
        load_instances(path)


def test_induce_tree_rejects_empty_input():
    with pytest.raises(ValueError):
        induce_tree([])
