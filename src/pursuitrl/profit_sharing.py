"""Profit Sharing: episodic credit assignment over fired state-action rules.

A learner keeps a weight per rule. When a reward arrives, every rule in
the episode trace is reinforced with a geometrically shrinking share of
it, newest rule first; no value function is estimated. The share ratio
must be steep enough to keep rules that only ever fire on detours from
out-earning the rules that actually lead to reward (the suppression
condition checked by :func:`check_suppression`). The backward credit
walk over a trial's trace is :func:`hmrl.reinforce_upper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable

from .tableio import Encoder, load_table, save_table

StateKey = Hashable
ActionKey = Hashable


@dataclass(frozen=True)
class PSParams:
    discount: float = 5.0     # divisor between consecutive credit shares
    rule_bound: int = 4       # most effective rules competing for one input

    def __post_init__(self) -> None:
        if self.discount < self.rule_bound + 1:
            raise ValueError(
                f"discount {self.discount} must be >= rule bound + 1 "
                f"({self.rule_bound + 1})"
            )


class WeightTable:
    """Rule weights keyed by (state, action); unseen rules read as 0.

    ``states`` indexes the rules: every state with at least one rule maps
    to the actions it has rules for, in the order they were first added
    (kept in step by :meth:`add`), so a reader visits only rules that exist.
    """

    def __init__(self):
        self.weights: dict[tuple[StateKey, ActionKey], float] = {}
        self.states: dict[StateKey, tuple[ActionKey, ...]] = {}

    def get(self, state: StateKey, action: ActionKey) -> float:
        return self.weights.get((state, action), 0.0)

    def add(self, state: StateKey, action: ActionKey, amount: float) -> None:
        key = (state, action)
        old = self.weights.get(key)
        if old is None:             # a new rule: index it after its state's others
            old = 0.0
            self.states[state] = self.states.get(state, ()) + (action,)
        self.weights[key] = old + amount

    def __len__(self) -> int:
        return len(self.weights)


def check_suppression(params: PSParams, episode_length: int) -> bool:
    """Whether detour-only rules can never out-earn the regular ones.

    For every step i of an episode, the bound-many shares from step i to
    the end together must stay below the single share at step i-1.

    At the tightest admissible discount the margin shrinks below float
    resolution within a few dozen steps, so the inequality is evaluated
    in exact integer arithmetic: with the discount as p/q, both sides
    are scaled by p**length.
    """
    if episode_length < 1:
        raise ValueError("episode length must be >= 1")
    p, q = Fraction(params.discount).as_integer_ratio()
    # share at offset j, scaled by p**length: q**j * p**(length - j)
    p_pow = [1]
    q_pow = [1]
    for _ in range(episode_length + 1):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    tail = 0
    for i in range(episode_length, 0, -1):
        tail += q_pow[i] * p_pow[episode_length - i]
        if params.rule_bound * tail >= q_pow[i - 1] * p_pow[episode_length - i + 1]:
            return False
    return True


def save_weights(path, table: WeightTable, meta: dict[str, object] | None = None,
                 encode_state: Encoder = repr, encode_action: Encoder = repr) -> None:
    header = {"default_weight": 0.0}        # what unseen rules read as
    header.update(meta or {})
    save_table(path, table.weights, header, encode_state, encode_action)


def load_weights(path) -> tuple[WeightTable, dict[str, object]]:
    entries, meta = load_table(path)
    default = meta.pop("default_weight", 0.0)
    if default != 0.0:
        raise ValueError(f"{path}: default_weight must be 0.0, got {default!r}")
    table = WeightTable()
    table.weights = entries
    for state, action in entries:
        table.states[state] = table.states.get(state, ()) + (action,)
    return table, meta
