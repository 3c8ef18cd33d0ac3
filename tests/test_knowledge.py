import csv
import math
import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import ACTION_LABELS, ACTIONS, grid_for
from pursuitrl.knowledge import (
    ATTRIBUTES,
    GAIN_EPS,
    IfThenRule,
    Instance,
    Leaf,
    Split,
    compile_rules,
    extract_rules,
    format_rules,
    format_tree,
    induce_tree,
    load_instances,
    load_rules,
    parse_rules,
    rule_policy_act,
    save_instances,
)
from reference import (DOWN, LEFT, RIGHT, STAY, UP, brute_force_gain_ratio, classify,
                       gain_ratio)


def inst(x, y, label):
    return Instance(x, y, label)


# --- gain ratio ---------------------------------------------------------

def test_gain_ratio_zero_for_pure_labels():
    instances = [inst(x, 0, STAY) for x in range(-3, 4)]
    for threshold in range(-3, 3):
        assert gain_ratio(instances, "theta_X", threshold) == 0.0


def test_gain_ratio_perfect_split_is_one():
    instances = [inst(-1, 0, LEFT)] * 5 + [inst(2, 0, RIGHT)] * 5
    assert gain_ratio(instances, "theta_X", 0) == pytest.approx(1.0)


def test_gain_ratio_hand_dataset_matches_oracle():
    rng = Random(12)
    instances = [
        inst(rng.randrange(-3, 4), rng.randrange(-3, 4),
             rng.choice((STAY, RIGHT, LEFT)))
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
    instances = [inst(1, 0, STAY), inst(2, 0, RIGHT)]
    with pytest.raises(ValueError):
        gain_ratio(instances, "theta_X", 5)
    with pytest.raises(ValueError):
        gain_ratio(instances[:1], "theta_X", 1)
    with pytest.raises(ValueError):
        gain_ratio(instances, "theta_Z", 1)


# --- tree induction -----------------------------------------------------

def test_pure_input_gives_single_leaf():
    tree = induce_tree([inst(1, 2, DOWN)] * 9)
    assert isinstance(tree, Leaf)
    assert tree.label == DOWN
    assert tree.covered == 9 and tree.errors == 0


def planted_label(x, y):
    if y == 0 and x > 0:
        return RIGHT
    if y < 0:
        return UP
    return STAY


def grid_instances(label_fn, copies=1):
    return [inst(x, y, label_fn(x, y))
            for x in range(-6, 7) for y in range(-6, 7)
            for _ in range(copies)]


def test_planted_rule_recovered_exactly():
    tree = induce_tree(grid_instances(planted_label))
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert classify(tree, x, y) == planted_label(x, y)


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
             rng.choice(ACTIONS))
        for _ in range(400)
    ]
    tree = induce_tree(instances)

    def node_instances(node, subset):
        if isinstance(node, Leaf):
            return
        idx = node.attribute
        left = [i for i in subset if i[idx] <= node.threshold]
        right = [i for i in subset if i[idx] > node.threshold]

        def entropy(group):
            total = 0.0
            for label in set(i.label for i in group):
                p = sum(1 for i in group if i.label == label) / len(group)
                total -= p * math.log2(p)
            return total

        n = len(subset)
        before = entropy(subset) * n
        after = entropy(left) * len(left) + entropy(right) * len(right)
        assert after < before
        node_instances(node.le_child, left)
        node_instances(node.gt_child, right)

    node_instances(tree, instances)


@pytest.mark.parametrize("name, value, least", [("min_leaf", 0, 1), ("min_leaf", -5, 1),
                                                ("max_depth", -1, 0)])
def test_induce_tree_rejects_min_leaf_below_one_and_negative_depth(name, value, least):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {value}$"):
        induce_tree(grid_instances(planted_label), **{name: value})


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
    rules = extract_rules(Leaf(label=LEFT, covered=12519, errors=1907))
    assert len(rules) == 1
    assert rules[0].cf == (12519 - 1907) / 12519
    assert repr(rules[0].cf) == "0.8476715392603243"


def test_error_free_leaf_has_full_confidence():
    rules = extract_rules(Leaf(label=STAY, covered=8056, errors=0))
    assert rules[0].cf == 1.0
    assert rules[0].box == (-math.inf, math.inf, -math.inf, math.inf)


def test_extract_rules_simplifies_interval_bounds():
    tree = Split(
        0, 0,
        le_child=Split(0, -2,
                       le_child=Leaf(LEFT, 10, 0),
                       gt_child=Leaf(STAY, 6, 1)),
        gt_child=Leaf(RIGHT, 8, 2),
    )
    rules = extract_rules(tree)
    by_action = {rule.action: rule for rule in rules}
    assert by_action[STAY].box == (-2, 0, -math.inf, math.inf)
    assert by_action[LEFT].box == (-math.inf, -2, -math.inf, math.inf)
    assert by_action[RIGHT].box == (0, math.inf, -math.inf, math.inf)
    assert [r.cf for r in rules] == sorted((r.cf for r in rules), reverse=True)


def test_rules_match_tree_on_every_offset():
    rng = Random(5)
    instances = [
        inst(rng.randrange(-6, 7), rng.randrange(-6, 7),
             rng.choice(ACTIONS))
        for _ in range(600)
    ]
    tree = induce_tree(instances)
    rules = extract_rules(tree)
    assert all(0.0 <= rule.cf <= 1.0 for rule in rules)
    fallback_hits = []
    grid = grid_for(7)                  # offsets -6..6 on both axes
    compiled = compile_rules(rules, grid)
    for offset, (x, y) in enumerate(grid.offsets):
        ruled = rule_policy_act(compiled, offset,
                                fallback=lambda *_: fallback_hits.append(1))
        assert ruled == classify(tree, x, y)
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


def act(rules, x, y, fallback, side=7):
    """The action the rules, compiled for a side-``side`` grid, command at (x, y)."""
    grid = grid_for(side)
    return rule_policy_act(compile_rules(rules, grid), grid.offsets.index((x, y)),
                           fallback=fallback)


def test_reference_rules_drive_expected_actions():
    rules = parse_rules(REFERENCE_RULES)
    fallback = lambda offset: DOWN
    assert act(rules, 0, 0, fallback) == STAY
    assert act(rules, -3, 0, fallback) == LEFT
    assert act(rules, 0, -4, fallback) == UP
    assert act(rules, 1, 0, fallback) == RIGHT


def test_fallback_invoked_exactly_once_when_unmatched():
    rules = parse_rules(REFERENCE_RULES)
    calls = []

    def fallback(offset):
        calls.append(grid_for(7).offsets[offset])
        return STAY

    assert act(rules, 5, 5, fallback) == STAY
    assert calls == [(5, 5)]


conditions = st.lists(st.tuples(st.sampled_from(("theta_X", "theta_Y")),
                                 st.sampled_from(("<=", ">")),
                                 st.integers(-26, 26).map(lambda t: t / 2)),
                       max_size=4)


def parsed_rule(conditions, action, cf):
    """``(conditions, the rule parse_rules reads from their text)``."""
    text = " ".join(f"{attribute} {op} {threshold:g}" for attribute, op, threshold in conditions)
    (rule,) = parse_rules(f"If {text} Then {ACTION_LABELS[action]} with CF={cf!r}\n")
    return conditions, rule


rule_sets = st.lists(st.builds(parsed_rule, conditions.map(tuple), st.sampled_from(ACTIONS),
                               st.floats(0.0, 1.0)), max_size=12)


def with_conditions(rules):
    """``(conditions, rule)`` pairs, the conditions read back from the rules' text."""
    return [(reference.rule_conditions(rule), rule) for rule in rules]


def assert_matches_condition_scan(conditioned_rules, side):
    # Every offset a hunter can have to a target on a side-``side`` grid:
    # the compiled table against a first-match scan of the conditions.
    rules = [rule for _, rule in conditioned_rules]
    grid = grid_for(side)
    compiled = compile_rules(rules, grid)
    assert len(compiled) == (2 * side - 1) ** 2
    assert all(type(action) is int for action in compiled)
    for offset, (x, y) in enumerate(grid.offsets):
        calls = []

        def fallback(offset):
            calls.append(offset)
            return -1

        expected = next((rule.action for conds, rule in conditioned_rules
                         if reference.rule_matches(conds, x, y)), -1)
        assert compiled[offset] == expected
        assert rule_policy_act(compiled, offset, fallback=fallback) == expected
        assert calls == ([] if expected >= 0 else [offset])


@settings(max_examples=60, deadline=None)
@given(rules=rule_sets)
def test_rule_lookup_matches_condition_scan(rules):
    # Side 13 spans offsets -12..12, past every threshold the rules draw.
    assert_matches_condition_scan(rules, side=13)


@pytest.mark.parametrize("side", (5, 7, 9, 13, 17))
def test_extracted_rule_lookup_matches_condition_scan(side):
    rules = extract_rules(induce_tree(grid_instances(planted_label)))
    assert_matches_condition_scan(with_conditions(rules + parse_rules(REFERENCE_RULES)), side)


def test_parse_rules_folds_conditions_into_one_box():
    (messy,) = parse_rules("If theta_Y > -3 theta_X > -1 theta_X <= 4 theta_Y > -5 "
                           "theta_X <= 2 theta_X > -1 Then up with CF=0.5\n")
    (canonical,) = parse_rules("If theta_X <= 2 theta_X > -1 theta_Y > -3 Then up with CF=0.5\n")
    assert messy == canonical == IfThenRule((-1, 2, -3, math.inf), UP, 0.5)
    assert format_rules([messy]) == (
        "No.1\nIf theta_X <= 2 theta_X > -1 theta_Y > -3 Then up with CF=0.5\n")
    # Bounds that leave no offset between them match nowhere.
    (contradictory,) = parse_rules("If theta_X <= -1 theta_Y <= 3 theta_X > 2 Then up with CF=1.0\n")
    grid = grid_for(13)
    assert contradictory.box == (2, -1, -math.inf, 3)
    assert compile_rules([contradictory], grid) == (-1,) * len(grid.offsets)


def test_rule_file_round_trip(tmp_path):
    tree = induce_tree(grid_instances(planted_label))
    rules = extract_rules(tree)
    path = tmp_path / "rules.txt"
    path.write_text(format_rules(rules))     # as extract-rules writes it
    assert load_rules(path) == rules
    # Confidence factors survive with full precision.
    text = path.read_text()
    assert parse_rules(text) == rules


@pytest.mark.parametrize("conditions, spelled", [
    ("theta_X <= 2.9999999", "theta_X <= 2.9999999"),   # not "<= 3": offset 3 stays out
    ("theta_X <= 1234567", "theta_X <= 1234567"),
    ("theta_Y > 0.00000015", "theta_Y > 1.5e-07"),
    ("theta_X <= 2.5 theta_Y > -0.5", "theta_X <= 2.5 theta_Y > -0.5"),
])
def test_a_hand_edited_bound_survives_format_and_parse(conditions, spelled):
    (rule,) = parse_rules(f"If {conditions} Then up with CF=1.0\n")
    text = format_rules([rule])
    assert text == f"No.1\nIf {spelled} Then up with CF=1.0\n"
    assert parse_rules(text) == [rule]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_boxes = st.tuples(st.one_of(st.just(-math.inf), _finite), st.one_of(st.just(math.inf), _finite),
                   st.one_of(st.just(-math.inf), _finite), st.one_of(st.just(math.inf), _finite))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(IfThenRule, _boxes, st.sampled_from(ACTIONS), st.floats(0.0, 1.0)),
                max_size=4))
def test_formatted_rules_parse_back_equal(rules):
    assert parse_rules(format_rules(rules)) == rules


def test_parse_rules_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rules("If theta_X <= 1 Do something\n")
    with pytest.raises(ValueError):
        parse_rules("If theta_X <= 1 Then sideways with CF=1.0\n")


def test_parse_rules_names_line_of_bad_condition_or_cf():
    good = "No.1\nIf theta_X <= 1 Then up with CF=1.0\n"
    with pytest.raises(ValueError, match=r"line 4: .*theta_Z"):
        parse_rules(good + "No.2\nIf theta_Z <= 1 Then up with CF=1.0\n")
    for cf in ("high", "nan", "inf", "-5", "1.5"):
        with pytest.raises(ValueError, match=rf"line 4: .*CF={cf}"):
            parse_rules(good + f"No.2\nIf theta_X > 1 Then up with CF={cf}\n")


def test_load_rules_names_file_and_line(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("No.1\nIf theta_X <= 1 Then sideways with CF=1.0\n")
    with pytest.raises(ValueError, match=r"rules\.txt: line 2: .*sideways"):
        load_rules(path)


@pytest.mark.parametrize("row", ["1,2,sideways", "1,two,up", "1,2", "1,2,up,down", ""])
def test_load_instances_names_malformed_row(tmp_path, row):
    path = tmp_path / "instances.csv"
    path.write_text(f"theta_x,theta_y,action\n0,1,up\n{row}\n")
    with pytest.raises(ValueError, match=rf"instances\.csv:3: .*'{row}'"):
        load_instances(path)


# --- formatting ---------------------------------------------------------

def test_format_tree_golden():
    tree = Split(
        1, -1,
        le_child=Leaf(UP, 120, 0),
        gt_child=Split(
            0, -1,
            le_child=Leaf(LEFT, 12519, 1907),
            gt_child=Leaf(STAY, 8056, 0),
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
        IfThenRule((-1, 0, -math.inf, math.inf), STAY, 1.0),
        IfThenRule((-math.inf, -1, -math.inf, math.inf), LEFT, 10612 / 12519),
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


def test_save_instances_writes_what_a_plain_csv_loop_writes(tmp_path):
    distinct = [inst(x, y, action) for x in (-12, -1, 0, 3, 10) for y in (-6, 0, 7)
                for action in ACTIONS]
    # Repeats of one object, as a run logs them, and equal copies.
    instances = distinct + distinct[::-3] * 4 + [inst(*item) for item in distinct[::7]]
    path, expected = tmp_path / "instances.csv", tmp_path / "expected.csv"
    assert save_instances(path, instances) == len(instances)
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta_x", "theta_y", "action"])
        for x, y, label in instances:
            writer.writerow([x, y, ACTION_LABELS[label]])
    assert path.read_bytes() == expected.read_bytes()


def test_repeated_rows_load_as_one_object(tmp_path):
    path = tmp_path / "instances.csv"
    path.write_text("theta_x,theta_y,action\n0,1,up\n2,-3,stay\n0,1,up\n0,1,up\n")
    loaded = load_instances(path)
    assert loaded == [inst(0, 1, UP), inst(2, -3, STAY),
                      inst(0, 1, UP), inst(0, 1, UP)]
    assert loaded[0] is loaded[2] is loaded[3]


instance_rows = st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                          st.sampled_from([ACTION_LABELS[action] for action in ACTIONS]))
malformed_rows = st.sampled_from(["1,2,sideways", "1,two,up", "1,2", "1,2,up,down",
                                  "1.5,0,stay", "0,0,Stay", ",,"])


@st.composite
def instance_logs(draw):
    """(rows, malformed row or None, line ending, final newline): rows drawn
    from a few distinct ones, so most repeat."""
    pool = draw(st.lists(instance_rows, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    rows = [",".join(map(str, pool[i])) for i in picks]
    bad = draw(st.one_of(st.none(), malformed_rows))
    if bad is not None:
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return rows, bad, draw(st.sampled_from(["\r\n", "\n"])), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(log=instance_logs())
def test_load_instances_matches_a_plain_csv_reader(tmp_path_factory, log):
    rows, bad, ending, final_newline = log
    path = tmp_path_factory.mktemp("log") / "instances.csv"
    path.write_bytes((ending.join(["theta_x,theta_y,action", *rows])
                      + (ending if final_newline else "")).encode())
    if bad is not None:
        with pytest.raises(ValueError) as expected:
            reference.load_instances(path)
        assert re.match(rf"{re.escape(str(path))}:\d+: malformed row '{re.escape(bad)}': ",
                        str(expected.value))
        with pytest.raises(ValueError) as got:
            load_instances(path)
        assert str(got.value) == str(expected.value)
        return
    if not rows:
        assert reference.load_instances(path) == []
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no rows$"):
            load_instances(path)
        return
    loaded = load_instances(path)
    assert loaded == reference.load_instances(path)
    # One object per distinct line; a last line without its newline is another.
    lines = [row + ending for row in rows]
    if not final_newline:
        lines[-1] = rows[-1]
    assert len({id(item) for item in loaded}) == len(set(lines))
    if ending == "\r\n" and final_newline:     # as save_instances writes a log
        copy = path.with_name("copy.csv")
        save_instances(copy, loaded)
        assert copy.read_bytes() == path.read_bytes()


def test_load_instances_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,stay\n")
    with pytest.raises(ValueError):
        load_instances(path)


def test_induce_tree_rejects_empty_input():
    with pytest.raises(ValueError):
        induce_tree([])


small_instance_sets = st.lists(
    st.builds(Instance, st.integers(-3, 3), st.integers(-3, 3),
              st.sampled_from(ACTIONS[:3])),
    min_size=2, max_size=40)


@settings(max_examples=300, deadline=None)
@given(instances=small_instance_sets, min_leaf=st.integers(1, 4))
# theta_Y <= 0 and theta_X <= 1 split 3 vs 3 with the same label counts in
# another order: an exact tie that gain_ratio must score as the tree does.
@example(instances=[inst(0, 0, UP), inst(2, 0, DOWN), inst(1, 0, STAY),
                    inst(2, 1, STAY), inst(0, 1, DOWN), inst(2, 1, DOWN)],
         min_leaf=3)
def test_root_split_has_the_largest_gain_ratio(instances, min_leaf):
    # The split the tree grows at its root is one gain_ratio scores best
    # among the admissible thresholds (min_leaf per side and positive gain),
    # and of the splits that tie for best, the smallest (threshold,
    # attribute index). Without one the root is a leaf.
    n = len(instances)
    admissible = {}
    for attr_idx, attribute in enumerate(ATTRIBUTES):
        for threshold in sorted({item[attr_idx] for item in instances})[:-1]:
            n_left = sum(item[attr_idx] <= threshold for item in instances)
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            ratio = gain_ratio(instances, attribute, threshold)
            split_info = -sum(k / n * math.log2(k / n) for k in (n_left, n - n_left))
            if ratio * split_info > GAIN_EPS:
                admissible[threshold, attr_idx] = ratio
    tree = induce_tree(instances, min_leaf=min_leaf)
    if not admissible:
        assert isinstance(tree, Leaf)
        return
    assert isinstance(tree, Split)
    root = (tree.threshold, tree.attribute)
    assert root in admissible
    assert admissible[root] == max(admissible.values())
    assert root == min(split for split, ratio in admissible.items() if ratio == admissible[root])


def test_tied_splits_go_to_the_smallest_threshold_then_attribute():
    # theta_X <= 0 and theta_X <= 1 score the same, in the same arithmetic.
    tree = induce_tree([inst(0, 0, STAY), inst(1, 0, UP),
                        inst(2, 0, STAY)], min_leaf=1)
    assert (ATTRIBUTES[tree.attribute], tree.threshold) == ("theta_X", 0)
    # Mirror-symmetric in x and y: each threshold ties across the attributes.
    tree = induce_tree([inst(0, 0, STAY), inst(1, 1, UP)] * 2, min_leaf=1)
    assert (ATTRIBUTES[tree.attribute], tree.threshold) == ("theta_X", 0)
    # theta_Y <= -1 and theta_Y <= 0 split 1 vs 6 with the same label counts
    # in another order; their scores must not differ in the last bit.
    tree = induce_tree([inst(0, 0, STAY)] * 2 + [inst(0, 0, UP)]
                       + [inst(0, 0, DOWN)] * 2
                       + [inst(0, 1, DOWN), inst(0, -1, STAY)], min_leaf=1)
    assert (ATTRIBUTES[tree.attribute], tree.threshold) == ("theta_Y", -1)
