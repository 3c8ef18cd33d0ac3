"""Tabular off-policy Q-learning, one row of action values per state.

The hunters' states are lower-layer state ids (:func:`hmrl.lower_state_texts`).
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .env import ACTION_LABELS, ACTIONS, below
from .tableio import save_table

# A state with no row scores 0.0 on every action: a tie unless only one is legal.
_NO_ROW = (0.0,) * len(ACTIONS)


class QTable:
    """Action values with step size ``alpha`` and discount ``gamma``.

    A row has a slot per grid action (:data:`env.ACTIONS`); a state with
    no row reads 0. Only written slots are entries: bit ``action`` of
    ``written[state]``. An unwritten slot holds 0.0.
    """

    def __init__(self, alpha: float, gamma: float):
        self.alpha = alpha
        self.gamma = gamma
        self.rows: dict[int, list[float]] = {}
        self.written: dict[int, int] = {}

    @property
    def values(self) -> dict[tuple[int, int], float]:
        """The written entries by ``(state, action index)``."""
        rows = self.rows
        return {(state, action): rows[state][action] for state, mask in self.written.items()
                for action in ACTIONS if mask >> action & 1}


def q_update(table: QTable, state: int, action: int, reward: float,
             next_state: int | None) -> None:
    """One temporal-difference backup toward reward + discounted best next
    value; a ``None`` next state is terminal and bootstraps nothing."""
    rows = table.rows
    next_row = None if next_state is None else rows.get(next_state)
    bootstrap = 0.0 if next_row is None else table.gamma * max(next_row)
    row = rows.get(state) or rows.setdefault(state, [0.0] * len(ACTIONS))
    old = row[action]
    row[action] = old + table.alpha * (reward + bootstrap - old)
    if old == 0.0:      # maybe the slot's first write: a nonzero slot is marked already
        table.written[state] = table.written.get(state, 0) | 1 << action


def epsilon_greedy(table: QTable, state: int, legal: Sequence[int],
                   epsilon: float, rng: Random) -> int:
    """Greedy action index over ``legal`` with uniform tie-break, exploring
    with probability ``epsilon``."""
    if not legal:
        raise ValueError("no legal actions")
    if epsilon > 0.0 and rng.random() < epsilon:
        return legal[below(rng, len(legal))]
    row = table.rows.get(state, _NO_ROW)
    # Over every action in index order the row is the score list itself.
    scores = row if legal is ACTIONS else [row[a] for a in legal]
    best_value = max(scores)
    if scores.count(best_value) == 1:
        return legal[scores.index(best_value)]
    ties = [a for a, value in zip(legal, scores) if value == best_value]
    return ties[below(rng, len(ties))]


def save_q_table(path, table: QTable, state_texts: Sequence[str],
                 meta: dict[str, object]) -> None:
    """Write a table over the grid actions: states by ``state_texts[state]``, actions by label."""
    header = {"alpha": table.alpha, "gamma": table.gamma}
    header.update(meta)
    rows: list[str] = []
    for state, written in table.written.items():    # spell each state once
        text, values = state_texts[state], table.rows[state]
        rows += [f"{text}\t{label}\t{values[action]!r}\n"
                 for action, label in enumerate(ACTION_LABELS) if written >> action & 1]
    save_table(path, rows, header)
