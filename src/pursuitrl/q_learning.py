"""Tabular off-policy Q-learning plus a value-iteration oracle for tests.

The action-value table is keyed by (state, action index, target tag);
for the pursuit hunters the state is the (dx, dy) offset to the
commanded target cell and the tag names which prey the target belongs
to. Actions are addressed by their index in the table's action set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Hashable, Sequence

from .env import ACTION_BY_LABEL, ACTION_LABELS, ACTIONS, Action
from .tableio import load_table, save_table

StateKey = Hashable
TargetTag = Hashable


class QTable:
    """Action values with step size ``alpha`` and discount ``gamma``.

    Unseen entries read as 0. The action set defaults to the five grid
    moves; tests may pass any hashable action vocabulary. Entries are
    keyed by the action's index in ``actions``.
    """

    def __init__(self, alpha: float = 0.1, gamma: float = 0.9,
                 actions: Sequence = ACTIONS):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.actions = tuple(actions)
        self.values: dict[tuple, float] = {}

    def get(self, state: StateKey, action: int, target: TargetTag = None) -> float:
        return self.values.get((state, action, target), 0.0)

    def max_value(self, state: StateKey, target: TargetTag = None) -> float:
        values = self.values
        return max([values.get((state, a, target), 0.0) for a in range(len(self.actions))])


def q_update(table: QTable, state: StateKey, action: int, reward: float,
             next_state: StateKey, terminal: bool, target: TargetTag = None,
             alpha: float | None = None) -> QTable:
    """One temporal-difference backup toward reward + discounted best next value."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward: {reward}")
    step = table.alpha if alpha is None else alpha
    bootstrap = 0.0 if terminal else table.gamma * table.max_value(next_state, target)
    key = (state, action, target)
    old = table.values.get(key, 0.0)
    table.values[key] = old + step * (reward + bootstrap - old)
    return table


def epsilon_greedy(table: QTable, state: StateKey, legal: Sequence[int],
                   epsilon: float, rng: Random, target: TargetTag = None) -> int:
    """Greedy action index over ``legal`` with uniform tie-break, exploring
    with probability ``epsilon``."""
    if not legal:
        raise ValueError("no legal actions")
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.choice(legal)
    values = table.values
    scores = [values.get((state, a, target), 0.0) for a in legal]
    best_value = max(scores)
    if scores.count(best_value) == 1:
        return legal[scores.index(best_value)]
    return rng.choice([a for a, value in zip(legal, scores) if value == best_value])


@dataclass
class ExplicitMDP:
    """Small enumerated MDP for oracle computations.

    ``transitions[(state, action)]`` lists ``(probability, next_state,
    reward)`` triples; probabilities per pair must sum to 1. Terminal
    states have value 0 and no outgoing transitions.
    """

    states: tuple
    actions: tuple
    transitions: dict
    gamma: float
    terminal: frozenset = field(default_factory=frozenset)


def solve_value_iteration(mdp: ExplicitMDP, tolerance: float = 1e-9,
                          max_sweeps: int = 100_000) -> dict:
    """Fixed point of the optimal Bellman backup, to ``tolerance``."""
    if not 0.0 <= mdp.gamma < 1.0:
        raise ValueError("value iteration needs gamma in [0, 1)")
    values = {s: 0.0 for s in mdp.states}
    for _ in range(max_sweeps):
        delta = 0.0
        for s in mdp.states:
            if s in mdp.terminal:
                continue
            best = -float("inf")
            for a in mdp.actions:
                if (s, a) not in mdp.transitions:
                    continue
                total = sum(
                    p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(s, a)]
                )
                best = max(best, total)
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < tolerance:
            return values
    raise RuntimeError(f"value iteration did not converge in {max_sweeps} sweeps")


def greedy_action(mdp: ExplicitMDP, values: dict, state) -> object:
    """Best action under the solved values; ties go to action order."""
    best_a, best_v = None, -float("inf")
    for a in mdp.actions:
        if (state, a) not in mdp.transitions:
            continue
        total = sum(p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(state, a)])
        if total > best_v:
            best_a, best_v = a, total
    return best_a


def _encode_action(action) -> str:
    if isinstance(action, Action):
        return ACTION_LABELS[action]
    return repr(action)


def _decode_action(text: str):
    if text in ACTION_BY_LABEL:
        return ACTION_BY_LABEL[text]
    import ast

    return ast.literal_eval(text)


def save_q_table(path, table: QTable, meta: dict[str, object] | None = None) -> None:
    header = {"alpha": table.alpha, "gamma": table.gamma}
    header.update(meta or {})
    # Flatten (state, action, target) onto the two-column persistence
    # scheme: the stored state is (state, target).
    labels = [_encode_action(action) for action in table.actions]
    entries = {((s, t), a): v for (s, a, t), v in table.values.items()}
    save_table(path, entries, header, encode_action=labels.__getitem__)


def load_q_table(path) -> tuple[QTable, dict[str, object]]:
    entries, meta = load_table(path, decode_action=_decode_action)
    table = QTable(alpha=float(meta.pop("alpha")), gamma=float(meta.pop("gamma")))
    index = {action: a for a, action in enumerate(table.actions)}
    table.values = {(s, index[action], t): v for ((s, t), action), v in entries.items()}
    return table, meta
