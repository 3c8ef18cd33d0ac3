"""Decision-tree distillation of the learned walking policy.

Logged (theta_x, theta_y) -> action instances are grown into a binary
decision tree by gain ratio, the tree is flattened into If-Then rules
with a confidence factor per rule, and the rules can be replayed as a
policy with first-match-by-confidence semantics.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .env import ACTION_BY_LABEL, ACTION_LABELS, ACTIONS, Action

ATTRIBUTES = ("theta_X", "theta_Y")

# Splits must beat this in information gain; guards against float noise
# promoting a do-nothing split.
GAIN_EPS = 1e-12

_LABEL_ORDER = {action: i for i, action in enumerate(ACTIONS)}


class Instance(NamedTuple):
    theta_x: int
    theta_y: int
    label: Action


@dataclass
class Leaf:
    label: Action
    covered: int
    errors: int


@dataclass
class Split:
    attribute: str            # one of ATTRIBUTES
    threshold: float
    le_child: "TreeNode"
    gt_child: "TreeNode"


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class IfThenRule:
    conditions: tuple[tuple[str, str, float], ...]   # (attribute, "<=" or ">", threshold)
    action: Action
    cf: float
    # (theta_X lower, theta_X upper, theta_Y lower, theta_Y upper): the rule
    # matches when lower < value <= upper on both attributes
    bounds: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = [-math.inf, -math.inf]
        upper = [math.inf, math.inf]
        for attribute, op, threshold in self.conditions:
            idx = _attribute_index(attribute)
            if op == "<=":
                upper[idx] = min(upper[idx], threshold)
            else:
                lower[idx] = max(lower[idx], threshold)
        object.__setattr__(self, "bounds", (lower[0], upper[0], lower[1], upper[1]))


def _entropy(counts: Iterable[int], total: float) -> float:
    result = 0.0
    for count in counts:
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


def _attribute_index(attribute: str) -> int:
    try:
        return ATTRIBUTES.index(attribute)
    except ValueError:
        raise ValueError(f"unknown attribute: {attribute!r}") from None


def gain_ratio(instances: Sequence[Instance], attribute: str, threshold: float) -> float:
    """Information gain of the binary split over its split entropy (base 2)."""
    if len(instances) < 2:
        raise ValueError("need at least 2 instances to split")
    idx = _attribute_index(attribute)
    left = Counter()
    right = Counter()
    for inst in instances:
        (left if inst[idx] <= threshold else right)[inst.label] += 1
    n_left, n_right = sum(left.values()), sum(right.values())
    if n_left == 0 or n_right == 0:
        raise ValueError(f"degenerate split at {attribute} <= {threshold}")
    total = n_left + n_right
    before = _entropy((left + right).values(), total)
    after = (n_left / total) * _entropy(left.values(), n_left) \
        + (n_right / total) * _entropy(right.values(), n_right)
    gain = before - after
    split_info = _entropy((n_left, n_right), total)
    return gain / split_info


def _grow(items: list[tuple[int, int, int, int]], min_leaf: int, max_depth: int,
          depth: int) -> TreeNode:
    """items: (theta_x, theta_y, label index, weight), sorted, non-empty."""
    counts = [0] * len(ACTIONS)
    total = 0
    for _, _, label_idx, weight in items:
        counts[label_idx] += weight
        total += weight
    majority_idx = max(range(len(ACTIONS)), key=lambda i: (counts[i], -i))
    leaf = Leaf(label=ACTIONS[majority_idx], covered=total,
                errors=total - counts[majority_idx])

    if leaf.errors == 0 or depth >= max_depth:
        return leaf

    node_entropy = _entropy(counts, total)
    best_ratio = 0.0
    best: list[tuple[float, int]] = []       # (threshold, attribute index)
    for attr_idx in (0, 1):
        ordered = sorted(items, key=lambda item: item[attr_idx])
        left_counts = [0] * len(ACTIONS)
        left_total = 0
        pos = 0
        while pos < len(ordered):
            value = ordered[pos][attr_idx]
            while pos < len(ordered) and ordered[pos][attr_idx] == value:
                left_counts[ordered[pos][2]] += ordered[pos][3]
                left_total += ordered[pos][3]
                pos += 1
            if pos == len(ordered):
                break                         # splitting past the max value is no split
            right_total = total - left_total
            if left_total < min_leaf or right_total < min_leaf:
                continue
            after = (left_total / total) * _entropy(left_counts, left_total) \
                + (right_total / total) * _entropy(
                    (c - l for c, l in zip(counts, left_counts)), right_total)
            gain = node_entropy - after
            if gain <= GAIN_EPS:
                continue
            ratio = gain / _entropy((left_total, right_total), total)
            if ratio > best_ratio:
                best_ratio = ratio
                best = [(value, attr_idx)]
            elif ratio == best_ratio:
                best.append((value, attr_idx))

    if not best:
        return leaf
    threshold, attr_idx = min(best)
    left_items = [item for item in items if item[attr_idx] <= threshold]
    right_items = [item for item in items if item[attr_idx] > threshold]
    return Split(
        attribute=ATTRIBUTES[attr_idx],
        threshold=threshold,
        le_child=_grow(left_items, min_leaf, max_depth, depth + 1),
        gt_child=_grow(right_items, min_leaf, max_depth, depth + 1),
    )


def induce_tree(instances: Sequence[Instance], min_leaf: int = 2,
                max_depth: int = 12) -> TreeNode:
    """Grow a tree by best gain-ratio binary splits on observed values.

    Splits stop at purity, ``min_leaf`` instances per side, ``max_depth``,
    or when no split has positive gain. The result depends only on the
    instance multiset, not its order.
    """
    if not instances:
        raise ValueError("cannot induce a tree from no instances")
    grouped = Counter(
        (inst.theta_x, inst.theta_y, _LABEL_ORDER[inst.label]) for inst in instances
    )
    items = sorted((x, y, label_idx, weight)
                   for (x, y, label_idx), weight in grouped.items())
    return _grow(items, min_leaf, max_depth, depth=0)


def classify(tree: TreeNode, theta_x: int, theta_y: int) -> Action:
    node = tree
    while isinstance(node, Split):
        value = theta_x if node.attribute == "theta_X" else theta_y
        node = node.le_child if value <= node.threshold else node.gt_child
    return node.label


def _leaf_text(leaf: Leaf) -> str:
    label = ACTION_LABELS[leaf.label]
    if leaf.errors:
        return f"{label} ({leaf.covered:.1f}/{leaf.errors:.1f})"
    return f"{label} ({leaf.covered:.1f})"


def format_tree(tree: TreeNode) -> str:
    """Indented text dump, one branch per line, leaves inline."""
    if isinstance(tree, Leaf):
        return _leaf_text(tree) + "\n"
    lines: list[str] = []

    def walk(node: Split, depth: int) -> None:
        prefix = "|   " * depth
        for op, child in (("<=", node.le_child), (">", node.gt_child)):
            head = f"{prefix}{node.attribute} {op} {node.threshold:g}"
            if isinstance(child, Leaf):
                lines.append(f"{head}: {_leaf_text(child)}")
            else:
                lines.append(head)
                walk(child, depth + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


def extract_rules(tree: TreeNode) -> list[IfThenRule]:
    """One rule per leaf; per-attribute bounds simplified, sorted by
    confidence factor descending."""
    rules: list[IfThenRule] = []

    def walk(node: TreeNode, bounds: dict[str, list[float]]) -> None:
        if isinstance(node, Leaf):
            conditions: list[tuple[str, str, float]] = []
            for attribute in ATTRIBUTES:
                lower, upper = bounds[attribute]
                if upper != math.inf:
                    conditions.append((attribute, "<=", upper))
                if lower != -math.inf:
                    conditions.append((attribute, ">", lower))
            cf = (node.covered - node.errors) / node.covered
            rules.append(IfThenRule(tuple(conditions), node.label, cf))
            return
        lower, upper = bounds[node.attribute]
        le_bounds = {a: list(b) for a, b in bounds.items()}
        le_bounds[node.attribute] = [lower, min(upper, node.threshold)]
        gt_bounds = {a: list(b) for a, b in bounds.items()}
        gt_bounds[node.attribute] = [max(lower, node.threshold), upper]
        walk(node.le_child, le_bounds)
        walk(node.gt_child, gt_bounds)

    walk(tree, {attribute: [-math.inf, math.inf] for attribute in ATTRIBUTES})
    rules.sort(key=lambda rule: (-rule.cf, _conditions_text(rule.conditions)))
    return rules


def rule_policy_act(rules: Sequence[IfThenRule], theta_x: int, theta_y: int,
                    fallback: Callable[[int, int], Action]) -> Action:
    """Action of the first matching rule; the fallback policy handles the rest.

    Expects ``rules`` sorted by confidence factor descending, as
    :func:`extract_rules` returns them.
    """
    for rule in rules:
        x_lower, x_upper, y_lower, y_upper = rule.bounds
        if x_lower < theta_x <= x_upper and y_lower < theta_y <= y_upper:
            return rule.action
    return fallback(theta_x, theta_y)


def _conditions_text(conditions: Sequence[tuple[str, str, float]]) -> str:
    return " ".join(f"{attribute} {op} {threshold:g}"
                    for attribute, op, threshold in conditions)


def format_rules(rules: Sequence[IfThenRule]) -> str:
    lines = []
    for number, rule in enumerate(rules, start=1):
        lines.append(f"No.{number}")
        lines.append(f"If {_conditions_text(rule.conditions)} "
                     f"Then {ACTION_LABELS[rule.action]} with CF={rule.cf!r}")
    return "\n".join(lines) + "\n"


_RULE_RE = re.compile(r"^If\s*(.*?)\s*Then (\S+) with CF=(\S+)$")
_COND_RE = re.compile(r"(theta_[XY])\s*(<=|>)\s*(-?\d+(?:\.\d+)?)")


def parse_rules(text: str) -> list[IfThenRule]:
    rules: list[IfThenRule] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("No."):
            continue
        match = _RULE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable rule line: {line!r}")
        conditions_text, label, cf_text = match.groups()
        conditions = tuple(
            (attribute, op, float(threshold))
            for attribute, op, threshold in _COND_RE.findall(conditions_text)
        )
        if label not in ACTION_BY_LABEL:
            raise ValueError(f"unknown action label: {label!r}")
        rules.append(IfThenRule(conditions, ACTION_BY_LABEL[label], float(cf_text)))
    return rules


def save_rules(path, rules: Sequence[IfThenRule]) -> None:
    with open(path, "w") as handle:
        handle.write(format_rules(rules))


def load_rules(path) -> list[IfThenRule]:
    with open(path) as handle:
        return parse_rules(handle.read())


def save_instances(path, instances: Iterable[Instance]) -> int:
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta_x", "theta_y", "action"])
        for inst in instances:
            writer.writerow([inst.theta_x, inst.theta_y, ACTION_LABELS[inst.label]])
            count += 1
    return count


def load_instances(path) -> list[Instance]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["theta_x", "theta_y", "action"]:
            raise ValueError(f"unexpected instance header: {header}")
        return [Instance(int(x), int(y), ACTION_BY_LABEL[label])
                for x, y, label in reader]
