"""Profit Sharing: episodic credit assignment over fired state-action rules.

A learner keeps a weight per rule. When a reward arrives, every rule in
the episode trace is reinforced with a geometrically shrinking share of
it, newest rule first; no value function is estimated. A steep enough
share ratio keeps rules that only fire on detours from out-earning the
rules that lead to reward (``check_suppression`` in ``tests/reference.py``).
The backward credit walk over a trial's trace is :func:`hmrl.reinforce_upper`.
"""

from __future__ import annotations

from array import array

from .tableio import save_table


class WeightTable:
    """Rule weights keyed by (state, action id); unseen rules read as 0.

    Rules are numbered in first-add order: ``weight[rule]`` is a rule's
    weight and ``cell[rule]`` its action id (a target cell id). ``states``
    maps every state with a rule to its first rule id, and ``next_rule``
    chains each rule to its state's next one in first-add order (-1 after
    the last), so a reader walks only rules that exist: ``while rule >= 0``.
    """

    def __init__(self):
        self.weight = array("d")
        self.cell = array("i")
        self.next_rule = array("i")
        self.states: dict[int, int] = {}

    def add(self, state: int, action: int, amount: float) -> None:
        weight, cell, next_rule = self.weight, self.cell, self.next_rule
        new = len(weight)                   # the id a new rule gets
        rule = self.states.setdefault(state, new)
        while rule != new:
            if cell[rule] == action:
                weight[rule] += amount
                return
            if next_rule[rule] < 0:         # the state's last rule: the new one follows it
                next_rule[rule] = new
            rule = next_rule[rule]
        weight.append(0.0 + amount)     # a new rule, after its state's others
        cell.append(action)
        next_rule.append(-1)

    def __len__(self) -> int:
        return len(self.weight)


def save_weights(path, rows: list[str], meta: dict[str, object]) -> None:
    """Write a weight table's spelled rows (see :func:`hmrl.save_upper_banks`)
    under a header saying what unseen rules read as."""
    header = {"default_weight": 0.0}
    header.update(meta)
    save_table(path, rows, header)
