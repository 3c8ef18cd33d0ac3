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

from array import array
from dataclasses import dataclass
from fractions import Fraction

from .tableio import save_table


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
    """Rule weights keyed by (state, action id); unseen rules read as 0.

    Rules are numbered in first-add order: ``weight[rule]`` is a rule's
    weight and ``cell[rule]`` its action id (a target cell id). ``states``
    indexes them: every state with at least one rule maps to its rule id,
    or to the tuple of its rule ids in first-add order once it has a
    second rule, so a reader visits only rules that exist.
    """

    def __init__(self):
        self.weight = array("d")
        self.cell = array("i")
        self.states: dict[int, int | tuple[int, ...]] = {}

    def add(self, state: int, action: int, amount: float) -> None:
        states, weight, cell = self.states, self.weight, self.cell
        rules = states.get(state)
        if rules is None:
            states[state] = len(weight)
        else:
            if rules.__class__ is int:
                rules = (rules,)
            for rule in rules:
                if cell[rule] == action:
                    weight[rule] += amount
                    return
            states[state] = rules + (len(weight),)
        weight.append(0.0 + amount)     # a new rule, after its state's others
        cell.append(action)

    def __len__(self) -> int:
        return len(self.weight)


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


def save_weights(path, rows: list[str], meta: dict[str, object] | None = None) -> None:
    """Write a weight table's spelled rows (see :func:`hmrl.save_upper_banks`)
    under a header saying what unseen rules read as."""
    header = {"default_weight": 0.0}
    header.update(meta or {})
    save_table(path, rows, header)
