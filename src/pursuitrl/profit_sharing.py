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


def save_weights(path, rows: list[str], meta: dict[str, object]) -> None:
    """Write a weight table's spelled rows (see :func:`hmrl.save_upper_banks`)
    under a header saying what unseen rules read as."""
    header = {"default_weight": 0.0}
    header.update(meta)
    save_table(path, rows, header)
