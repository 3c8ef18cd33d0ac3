"""Tabular off-policy Q-learning, one row of action values per state.

The hunters' states are lower-layer state ids (:func:`hmrl.lower_state_text`).
"""

from __future__ import annotations

import math
from random import Random
from typing import Hashable, Sequence

from .env import ACTION_BY_LABEL, ACTION_LABELS, ACTIONS, below
from .tableio import Decoder, Encoder, load_table, save_table

StateKey = Hashable


class QTable:
    """Action values with step size ``alpha`` and discount ``gamma``.

    A row has a slot per index of ``actions`` (default: the grid moves);
    a state with no row reads 0. Only the ``written`` slots are entries.
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
        self.rows: dict[StateKey, list[float]] = {}
        self.written: set[tuple[StateKey, int]] = set()

    @property
    def values(self) -> dict[tuple[StateKey, int], float]:
        """The written entries by ``(state, action index)``."""
        rows = self.rows
        return {(state, action): rows[state][action] for state, action in self.written}

    def get(self, state: StateKey, action: int) -> float:
        row = self.rows.get(state)
        return 0.0 if row is None else row[action]

    def set(self, state: StateKey, action: int, value: float) -> None:
        self.rows.setdefault(state, [0.0] * len(self.actions))[action] = value
        self.written.add((state, action))


def q_update(table: QTable, state: StateKey, action: int, reward: float,
             next_state: StateKey, terminal: bool, alpha: float | None = None) -> QTable:
    """One temporal-difference backup toward reward + discounted best next value."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward: {reward}")
    step = table.alpha if alpha is None else alpha
    rows = table.rows
    next_row = None if terminal else rows.get(next_state)
    bootstrap = 0.0 if next_row is None else table.gamma * max(next_row)
    row = rows.get(state) or rows.setdefault(state, [0.0] * len(table.actions))
    old = row[action]
    row[action] = old + step * (reward + bootstrap - old)
    table.written.add((state, action))
    return table


def epsilon_greedy(table: QTable, state: StateKey, legal: Sequence[int],
                   epsilon: float, rng: Random) -> int:
    """Greedy action index over ``legal`` with uniform tie-break, exploring
    with probability ``epsilon``."""
    if not legal:
        raise ValueError("no legal actions")
    if epsilon > 0.0 and rng.random() < epsilon:
        return legal[below(rng, len(legal))]
    row = table.rows.get(state)
    scores = [row[a] for a in legal] if row else [0.0] * len(legal)
    best_value = max(scores)
    if scores.count(best_value) == 1:
        return legal[scores.index(best_value)]
    ties = [a for a, value in zip(legal, scores) if value == best_value]
    return ties[below(rng, len(ties))]


def save_q_table(path, table: QTable, encode_state: Encoder,
                 meta: dict[str, object] | None = None) -> None:
    """Write a table over the grid actions: states by ``encode_state``, actions by label."""
    header = {"alpha": table.alpha, "gamma": table.gamma}
    header.update(meta or {})
    labels = [ACTION_LABELS[action] for action in table.actions]
    save_table(path, table.values, header, encode_state=encode_state,
               encode_action=labels.__getitem__)


def load_q_table(path, decode_state: Decoder) -> tuple[QTable, dict[str, object]]:
    """Read a :func:`save_q_table` table, states by ``decode_state`` of their text."""
    entries, meta = load_table(path, decode_state=decode_state,
                               decode_action=lambda label: ACTION_BY_LABEL[label].index)
    table = QTable(alpha=float(meta.pop("alpha")), gamma=float(meta.pop("gamma")))
    for (state, action), value in entries.items():
        table.set(state, action, value)
    return table, meta
