"""Decision-tree distillation of the learned walking policy.

Logged (theta_x, theta_y) -> action instances are grown into a binary
decision tree by gain ratio; each leaf becomes an If-Then rule over one
box of the offset plane, with a confidence factor. The rules replay as a
policy, compiled per grid: the first rule that matches, in the order the
file lists them, wins (:func:`extract_rules` lists them by confidence
factor, highest first). :func:`parse_rules` folds a rule file's interval
tests into boxes.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, Union

from .env import ACTION_BY_LABEL, ACTION_LABELS, ACTIONS, Grid
from .tableio import load_csv

ATTRIBUTES = ("theta_X", "theta_Y")

INSTANCE_HEADER = ("theta_x", "theta_y", "action")

# Splits must beat this in information gain; guards against float noise
# promoting a do-nothing split.
GAIN_EPS = 1e-12


class Instance(NamedTuple):
    theta_x: int
    theta_y: int
    label: int


@dataclass
class Leaf:
    label: int
    covered: int
    errors: int


@dataclass
class Split:
    attribute: int            # index into ATTRIBUTES
    threshold: float
    le_child: "TreeNode"
    gt_child: "TreeNode"


if TYPE_CHECKING:   # a runtime subscription would pin this module in typing's cache
    TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class IfThenRule:
    # Matches when x_lower < theta_X <= x_upper and y_lower < theta_Y <= y_upper;
    # an open side is -inf or inf.
    box: tuple[float, float, float, float]   # (x_lower, x_upper, y_lower, y_upper)
    action: int
    cf: float


def _entropy(counts: Iterable[int], total: float) -> float:
    """Base-2 entropy of ``counts``, summed in sorted order so that equal
    multisets of counts give bit-identical results."""
    result = 0.0
    for count in sorted(counts):
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


def _split_score(node_entropy: float, counts: Sequence[int], left_counts: Sequence[int],
                 total: int, left_total: int) -> tuple[float, float]:
    """(information gain, gain ratio) of the binary split of a node with label
    ``counts`` (entropy ``node_entropy``) that sends ``left_counts`` left;
    both sides must be non-empty."""
    right_total = total - left_total
    after = (left_total / total) * _entropy(left_counts, left_total) \
        + (right_total / total) * _entropy(
            (c - l for c, l in zip(counts, left_counts)), right_total)
    gain = node_entropy - after
    return gain, gain / _entropy((left_total, right_total), total)


def _grow(items: list[tuple[int, int, int, int]], min_leaf: int, max_depth: int,
          depth: int) -> TreeNode:
    """items: (theta_x, theta_y, label, weight), sorted, non-empty."""
    counts = [0] * len(ACTIONS)
    total = 0
    for _, _, label, weight in items:
        counts[label] += weight
        total += weight
    majority = max(ACTIONS, key=lambda action: (counts[action], -action))
    leaf = Leaf(label=majority, covered=total, errors=total - counts[majority])

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
            if left_total < min_leaf or total - left_total < min_leaf:
                continue
            gain, ratio = _split_score(node_entropy, counts, left_counts, total, left_total)
            if gain <= GAIN_EPS:
                continue
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
        attribute=attr_idx,
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
    for name, value, least in (("min_leaf", min_leaf, 1), ("max_depth", max_depth, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if not instances:
        raise ValueError("cannot induce a tree from no instances")
    items = sorted((x, y, label, weight) for (x, y, label), weight in Counter(instances).items())
    return _grow(items, min_leaf, max_depth, depth=0)


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
            head = f"{prefix}{ATTRIBUTES[node.attribute]} {op} {node.threshold:g}"
            if isinstance(child, Leaf):
                lines.append(f"{head}: {_leaf_text(child)}")
            else:
                lines.append(head)
                walk(child, depth + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


def extract_rules(tree: TreeNode) -> list[IfThenRule]:
    """One rule per leaf, boxed by the splits above it, sorted by
    confidence factor descending."""
    rules: list[IfThenRule] = []

    def walk(node: TreeNode, box: tuple[float, ...]) -> None:
        if isinstance(node, Leaf):
            rules.append(IfThenRule(box, node.label, (node.covered - node.errors) / node.covered))
            return
        i = 2 * node.attribute      # box[i] < value <= box[i + 1]
        walk(node.le_child, (*box[:i + 1], min(box[i + 1], node.threshold), *box[i + 2:]))
        walk(node.gt_child, (*box[:i], max(box[i], node.threshold), *box[i + 1:]))

    walk(tree, (-math.inf, math.inf, -math.inf, math.inf))
    rules.sort(key=lambda rule: (-rule.cf, _conditions_text(rule.box)))
    return rules


def compile_rules(rules: Sequence[IfThenRule], grid: Grid) -> tuple[int, ...]:
    """Per offset id of ``grid``: the action index of the first of
    ``rules``, in their given order (a rule file's, as :func:`parse_rules`
    keeps it), matching the offset, else -1."""
    boxes = [(*rule.box, rule.action) for rule in rules]
    return tuple(next((action for x_lower, x_upper, y_lower, y_upper, action in boxes
                       if x_lower < theta_x <= x_upper and y_lower < theta_y <= y_upper), -1)
                 for theta_x, theta_y in grid.offsets)


def rule_policy_act(compiled: Sequence[int], offset: int,
                    fallback: Callable[[int], int]) -> int:
    """Action index of the compiled rules at an offset id, else ``fallback(offset)``."""
    action = compiled[offset]
    return fallback(offset) if action < 0 else action


def _conditions_text(box: Sequence[float]) -> str:
    """Per attribute, its finite upper bound and then its finite lower bound,
    a whole number spelled as an int (as extracted rules hold), any other by ``repr``."""
    conditions = []
    for attribute, lower, upper in zip(ATTRIBUTES, box[::2], box[1::2]):
        for op, bound, open_side in (("<=", upper, math.inf), (">", lower, -math.inf)):
            if bound != open_side:
                text = str(int(bound)) if bound == int(bound) else repr(bound)
                conditions.append(f"{attribute} {op} {text}")
    return " ".join(conditions)


def format_rules(rules: Sequence[IfThenRule]) -> str:
    lines = []
    for number, rule in enumerate(rules, start=1):
        lines.append(f"No.{number}")
        lines.append(f"If {_conditions_text(rule.box)} "
                     f"Then {ACTION_LABELS[rule.action]} with CF={rule.cf!r}")
    return "\n".join(lines) + "\n"


_RULE_RE = re.compile(r"^If\s*(.*?)\s*Then (\S+) with CF=(\S+)$")
_COND_RE = re.compile(r"(theta_[XY])\s*(<=|>)\s*(-?\d+(?:\.\d+)?(?:e[-+]\d+)?)")


def parse_rules(text: str) -> list[IfThenRule]:
    """Rules in the :func:`format_rules` layout, conditions folded into boxes;
    a line that is not one raises ``ValueError`` naming its line number."""
    rules: list[IfThenRule] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("No."):
            continue
        match = _RULE_RE.match(line)
        try:
            if not match or _COND_RE.sub("", match[1]).strip():
                raise ValueError("not an If-Then rule")
            conditions_text, label, cf_text = match.groups()
            box = [-math.inf, math.inf, -math.inf, math.inf]
            for attribute, op, threshold in _COND_RE.findall(conditions_text):
                i = 2 * ATTRIBUTES.index(attribute) + (op == "<=")
                box[i] = (min if op == "<=" else max)(box[i], float(threshold))
            if label not in ACTION_BY_LABEL:
                raise ValueError(f"unknown action label {label!r}")
            cf = float(cf_text)
            if not 0.0 <= cf <= 1.0:        # also false for nan
                raise ValueError(f"confidence factor {cf_text} is not in [0, 1]")
            rules.append(IfThenRule(tuple(box), ACTION_BY_LABEL[label], cf))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}: {line!r}") from None
    return rules


def load_rules(path) -> list[IfThenRule]:
    """The rules of a :func:`format_rules` file; a file that holds none is an error."""
    try:        # a file that is not UTF-8 raises UnicodeDecodeError, a ValueError
        with open(path) as handle:
            rules = parse_rules(handle.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rules:
        raise ValueError(f"{path}: no rules")
    return rules


def save_instances(path, instances: Sequence[Instance]) -> int:
    """Write ``instances`` as ``csv.writer`` would, spelling each distinct
    object once: a run and :func:`load_instances` share one object per row."""
    lines: dict[int, str] = {}
    for inst in instances:
        if id(inst) not in lines:
            lines[id(inst)] = f"{inst.theta_x},{inst.theta_y},{ACTION_LABELS[inst.label]}\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(INSTANCE_HEADER) + "\r\n")
        handle.writelines(map(lines.__getitem__, map(id, instances)))
    return len(instances)


def load_instances(path) -> list[Instance]:
    """The instances of a :func:`save_instances` file; equal rows load as one object."""
    return load_csv(path, INSTANCE_HEADER,
                    lambda x, y, label: Instance(int(x), int(y), ACTION_BY_LABEL[label]))
