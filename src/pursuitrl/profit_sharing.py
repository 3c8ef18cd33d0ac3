"""Profit Sharing: episodic credit assignment over fired state-action rules.

A learner keeps a weight per rule. When a reward arrives, every rule in
the episode trace is reinforced with a geometrically shrinking share of
it, newest rule first; no value function is estimated. The share ratio
must be steep enough to keep rules that only ever fire on detours from
out-earning the rules that actually lead to reward (the suppression
condition checked by :func:`check_suppression`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Hashable, Sequence

from .tableio import Encoder, load_table, save_table

StateKey = Hashable
ActionKey = Hashable


@dataclass(frozen=True)
class PSParams:
    discount: float = 5.0     # divisor between consecutive credit shares
    rule_bound: int = 4       # most effective rules competing for one input
    reward: float = 100.0

    def __post_init__(self) -> None:
        if self.discount < self.rule_bound + 1:
            raise ValueError(
                f"discount {self.discount} must be >= rule bound + 1 "
                f"({self.rule_bound + 1})"
            )


class WeightTable:
    """Rule weights keyed by (state, action); unseen rules read as the default.

    ``states`` holds every state with at least one rule (kept in step by
    :meth:`add`), so a reader can skip the states no rule has fired in.
    """

    def __init__(self, default_weight: float = 0.0):
        self.default_weight = default_weight
        self.weights: dict[tuple[StateKey, ActionKey], float] = {}
        self.states: set[StateKey] = set()

    def get(self, state: StateKey, action: ActionKey) -> float:
        return self.weights.get((state, action), self.default_weight)

    def add(self, state: StateKey, action: ActionKey, amount: float) -> None:
        key = (state, action)
        self.weights[key] = self.weights.get(key, self.default_weight) + amount
        self.states.add(state)

    def __len__(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightTable)
                and self.default_weight == other.default_weight
                and self.weights == other.weights)


class EpisodeTrace:
    """Fired rules of the current episode, oldest first.

    Bounded by the trial step cap: once full, the oldest entries fall
    off and receive no credit.
    """

    def __init__(self, max_length: int | None = None):
        self._rules: deque[tuple[StateKey, ActionKey]] = deque(maxlen=max_length)

    def record(self, state: StateKey, action: ActionKey) -> None:
        self._rules.append((state, action))

    def clear(self) -> None:
        self._rules.clear()

    def rules(self) -> list[tuple[StateKey, ActionKey]]:
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


def reinforcement_value(initial: float, offset: int, discount: float) -> float:
    """Credit share for the rule fired ``offset`` steps before the reward.

    Computed by successive division so one backward step is a single
    float rounding; stepping a share forward by the discount recovers
    the previous share to within 1 ulp.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if discount <= 0:
        raise ValueError("discount must be positive")
    value = initial
    for _ in range(offset):
        value /= discount
    return value


def reinforce_episode(table: WeightTable, trace: EpisodeTrace, reward: float,
                      params: PSParams) -> WeightTable:
    """Share ``reward`` backward over the trace, then clear it."""
    rules = trace.rules()
    if not rules and reward != 0.0:
        raise ValueError("cannot reinforce an empty trace with a nonzero reward")
    if reward != 0.0:
        credit = reward
        for state, action in reversed(rules):
            table.add(state, action, credit)
            credit /= params.discount
    trace.clear()
    return table


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


def select_by_weight(table: WeightTable, state: StateKey,
                     candidates: Sequence[ActionKey], rng: Random,
                     exploration: float = 0.0) -> ActionKey:
    """Greedy pick by weight with uniform tie-breaking; explores uniformly
    with probability ``exploration``."""
    if not candidates:
        raise ValueError("no candidate actions")
    if exploration > 0.0 and rng.random() < exploration:
        return rng.choice(candidates)
    best: list[ActionKey] = []
    best_weight = -float("inf")
    for action in candidates:
        weight = table.get(state, action)
        if weight > best_weight:
            best_weight = weight
            best = [action]
        elif weight == best_weight:
            best.append(action)
    if len(best) == 1:
        return best[0]
    return rng.choice(best)


def save_weights(path, table: WeightTable, meta: dict[str, object] | None = None,
                 encode_state: Encoder = repr, encode_action: Encoder = repr) -> None:
    header = {"default_weight": table.default_weight}
    header.update(meta or {})
    save_table(path, table.weights, header, encode_state, encode_action)


def load_weights(path) -> tuple[WeightTable, dict[str, object]]:
    entries, meta = load_table(path)
    table = WeightTable(default_weight=float(meta.pop("default_weight", 0.0)))
    table.weights = entries
    table.states = {state for state, _ in entries}
    return table, meta
