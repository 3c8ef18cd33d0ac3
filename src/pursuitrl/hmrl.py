"""Two-layer hunter agents for the pursuit world.

The upper layer is a modular Profit Sharing learner: for each prey it
scores candidate target cells from rules keyed by (hunter, prey, own
position, one peer's position, prey position), summing the score over
the three peers and discounting by the distance the hunter would have
to travel. The lower layer is plain Q-learning over the (dx, dy) offset
to the commanded target. The lower layer backs up after every move
(:func:`deliver_rewards`); the upper layer learns once per trial, when
the trial loop settles each hunter's trace with the trial's one reward
(:func:`reinforce_upper`).

In the two-prey setting the upper layer's backward credit is gated by
the inter-prey distance: share nothing upstream of a step where the two
prey were within the close range, slightly dampen it when they were far
apart.

Both layers run on the integer-coded grid of :func:`env.grid_for`. An
upper rule is keyed by the packed module key (see :func:`save_upper_banks`)
and the target's cell id; a lower rule by the lower state id (see
:func:`lower_state_texts`) and the action's index. Every learning
parameter is read from the run's ``ExperimentConfig``, which checked it
when it was built.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Sequence

from .env import (
    N_HUNTERS,
    N_PREY,
    Grid,
    StepOutcome,
    WorldState,
    below,
)
from . import profit_sharing
from .profit_sharing import WeightTable
from .q_learning import QTable, epsilon_greedy, q_update

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# Credit shares below this are dropped during backward reinforcement;
# with decay <= 0.9 the cutoff is reached within ~200 steps and the
# skipped weight increments are far below tie-breaking relevance.
CREDIT_FLOOR = 1e-9

# save_upper_banks spells a weight once per this many module keys: recurring
# weights recur within them, and a dict for all of a bank's raised the peak memory.
SPELLING_KEYS = 4096

# The other hunters of each hunter, in hunter order.
_PEERS = tuple(tuple(k for k in range(N_HUNTERS) if k != i) for i in range(N_HUNTERS))


def atf(prey_distance: int, config: ExperimentConfig) -> float:
    """Credit gate keyed on the distance between the two prey.

    Zero up to ``config.atf_near`` (prey dangerously close), full strength
    up to ``config.atf_far``, and 0.9 once the prey are farther apart.
    """
    if prey_distance < 0:
        raise ValueError("distance must be >= 0")
    if prey_distance <= config.atf_near:
        return 0.0
    if prey_distance <= config.atf_far:
        return 1.0
    return 0.9


def save_upper_banks(out_dir: Path, uppers: Sequence[WeightTable], grid: Grid,
                     meta: dict[str, object]) -> None:
    """Write ``uppers[h]``, hunter ``h``'s upper rules on ``grid``, as one
    ``upper_h{h}_p{prey}.tsv`` bank per prey, by :func:`profit_sharing.save_weights`.

    A module key packs (hunter, prey, own cell, peer cell, prey cell) as
    ``(((hunter * N_PREY + prey) * n + own) * n + peer) * n + goal`` over
    the grid's ``n`` cell ids, so a hunter's sorted keys hold its banks in
    prey order. Each rule along a module's ``WeightTable.next_rule`` chain
    is one row: the key spelled as the plain tuple ``(hunter, prey, (x, y),
    (x, y), (x, y))`` from two tables, by the key's quotient by ``n * n``
    and its remainder; then the target cell, and the weight by
    ``repr``, once per :data:`SPELLING_KEYS` keys (of equal floats only 0.0
    and -0.0 spell apart, and ``WeightTable.add`` never stores -0.0).
    """
    text = [f"({x}, {y})" for x, y in grid.cells]
    heads = [f"({hunter}, {prey}, {own}, " for hunter in range(N_HUNTERS)
             for prey in range(N_PREY) for own in text]
    tails = [f"{peer}, {goal})" for peer in text for goal in text]
    pair = grid.size * grid.size
    for hunter, table in enumerate(uppers):
        index, weight, cell, next_rule = table.states, table.weight, table.cell, table.next_rule
        keys = sorted(index)
        for prey in range(N_PREY):
            start = bisect_left(keys, (hunter * N_PREY + prey) * grid.size ** 3)
            stop = bisect_left(keys, (hunter * N_PREY + prey + 1) * grid.size ** 3, start)
            rows: list[str] = []
            append = rows.append
            for chunk in range(start, stop, SPELLING_KEYS):
                spelled: dict[float, str] = {}
                for key in keys[chunk:min(chunk + SPELLING_KEYS, stop)]:
                    rule = index[key]
                    while rule >= 0:
                        value = weight[rule]
                        append(f"{heads[key // pair]}{tails[key % pair]}\t{text[cell[rule]]}\t"
                               f"{spelled.get(value) or spelled.setdefault(value, repr(value))}\n")
                        rule = next_rule[rule]
            profit_sharing.save_weights(out_dir / f"upper_h{hunter}_p{prey}.tsv", rows, meta)
            del rows, append    # one bank's rows are alive at a time, also across hunters


def lower_state_texts(grid: Grid) -> tuple[str, ...]:
    """The persisted spelling ``((dx, dy), prey)`` of every lower-layer
    state id of ``grid``, by id. A state id packs the target's offset id
    from the hunter and the prey the target belongs to as
    ``offset * N_PREY + prey``."""
    return tuple(f"(({dx}, {dy}), {prey})" for dx, dy in grid.offsets for prey in range(N_PREY))


def select_target(weights: WeightTable, hunter_index: int, state: WorldState,
                  rng: Random, exploration: float,
                  config: ExperimentConfig) -> tuple[int, tuple[int, ...], int]:
    """Pick the commanded target cell for one hunter: ``(prey, modules,
    cell)``, the chased prey, the packed module key per peer (the rules
    fired with) and the target's cell id.

    With two live prey the nearer one (by Manhattan distance) is chased;
    equidistant prey are chosen at random. The cell is the candidate (of
    ``config.candidate_mode``) maximizing the rule weight summed over the
    peers' rule chains, discounted by the hunter's distance to it, ties uniform.
    """
    first, second = prey = state.prey      # N_PREY == 2
    grid = state.grid
    hunters = state.hunters
    own = hunters[hunter_index]
    if state.gap is not None:               # both prey alive
        distance = grid.distance[own]
        d0 = distance[first]
        d1 = distance[second]
        if d0 != d1:
            prey_index = 0 if d0 < d1 else 1
        else:
            prey_index = below(rng, 2)
    else:
        prey_index = state.alive.index(True)

    goal = prey[prey_index]
    mode = config.candidate_mode
    cells = grid.candidates[mode][goal]
    n = grid.size
    head = ((hunter_index * N_PREY + prey_index) * n + own) * n * n + goal
    p0, p1, p2 = _PEERS[hunter_index]       # N_HUNTERS == 4
    m0, m1, m2 = modules = (head + hunters[p0] * n, head + hunters[p1] * n,
                            head + hunters[p2] * n)
    if exploration > 0.0 and rng.random() < exploration:
        return prey_index, modules, cells[below(rng, len(cells))]

    states = weights.states
    if m0 in states or m1 in states or m2 in states:
        # Each module's chain of rules is added into their cells' slots, in
        # peer order, from 0.0; a missing rule would add +0.0, which changes no
        # sum. A cell outside the candidates lands in the spare last slot.
        weight, cell_of, next_rule = weights.weight, weights.cell, weights.next_rule
        slot = grid.slots[mode][goal]
        totals: dict[int, float] = {}       # slot -> sum, for the slots a rule reaches
        for module in modules:
            rule = states.get(module, -1)
            while rule >= 0:
                at = slot[cell_of[rule]]
                totals[at] = totals.get(at, 0.0) + weight[rule]
                rule = next_rule[rule]
        totals.pop(len(cells), None)        # the spare slot
        # Any other slot scores 0.0 / d, which is 0.0: only reached ones divide.
        divisors = grid.reach_divisors(config.reach_discount)[own]
        scores = [0.0] * len(cells)
        for at, total in totals.items():
            scores[at] = score = total / divisors[cells[at]]
        if len(totals) == 1 and score > 0.0:    # the one reached slot beats the zeros
            return prey_index, modules, cells[at]
        best_score = max(scores)
        if scores.count(best_score) == 1:
            return prey_index, modules, cells[scores.index(best_score)]
        best = [cell for cell, score in zip(cells, scores) if score == best_score]
    else:
        best = cells            # zero weights everywhere: every candidate ties
    return prey_index, modules, best[below(rng, len(best))]


# A trace step: the fired packed modules (one per peer), the commanded cell
# id, and the inter-prey distance (None with a lone prey).
TraceStep = tuple[tuple[int, ...], int, int | None]


def reinforce_upper(weights: WeightTable, trace: list[TraceStep], reward: float,
                    config: ExperimentConfig) -> None:
    """Share ``reward`` backward over a trial's fired upper rules, then clear the trace.

    The newest step gets the whole reward. The share entering each
    earlier step is the later step's share times ``config.upper_decay``,
    times (when ``config.atf_enabled``) the gate at the later step's prey
    distance; a ``None`` distance leaves the gate open. The walk stops
    once a share falls below :data:`CREDIT_FLOOR`.
    """
    if reward != 0.0:
        if not trace:
            raise ValueError("cannot reinforce an empty trace with a nonzero reward")
        credit = reward
        decay, gated = config.upper_decay, config.atf_enabled
        for modules, cell, gap in reversed(trace):
            for module in modules:
                weights.add(module, cell, credit)
            gate = atf(gap, config) if (gated and gap is not None) else 1.0
            credit *= decay * gate
            if abs(credit) < CREDIT_FLOOR:
                break
    trace.clear()


class HunterAgent:
    """One hunter's learning state: upper weight bank, lower Q table, trace."""

    def __init__(self, index: int, config: ExperimentConfig):
        self.index = index
        self.upper = WeightTable()
        self.q = QTable(config.alpha, config.gamma)
        self.config = config
        self.trace: list[TraceStep] = []
        # (lower state id, action index, target cell id) of the move in flight
        self.pending: tuple[int, int, int] | None = None

    def policy_step(self, state: WorldState, rng: Random, exploration: float) -> int:
        """Select this step's target, then the move toward it: an action index."""
        index = self.index
        prey, modules, target = select_target(self.upper, index, state, rng, exploration,
                                              self.config)
        self.trace.append((modules, target, state.gap))

        grid = state.grid
        own = state.hunters[index]
        lower = grid.offset[own][target] * N_PREY + prey
        action = epsilon_greedy(self.q, lower, grid.legal[own], exploration, rng)
        self.pending = (lower, action, target)
        return action

    def observe(self, next_state: WorldState) -> bool:
        """Lower-layer update after the world moved; True if the target was reached."""
        pending = self.pending
        if pending is None:
            raise RuntimeError("observe() without a preceding policy_step()")
        lower, action, target = pending
        self.pending = None
        cell = next_state.hunters[self.index]
        if cell == target:      # terminal: the backup reads no next state
            q_update(self.q, lower, action, self.config.reward, None)
            return True
        next_lower = next_state.grid.offset[cell][target] * N_PREY + lower % N_PREY
        q_update(self.q, lower, action, 0.0, next_lower)
        return False


def deliver_rewards(agents: Sequence[HunterAgent], outcome: StepOutcome) -> list[bool]:
    """The lower layer's per-step update: every hunter observes the moved
    world. Returns the per-hunter target-reached flags. The upper layer
    learns only at the trial's end (:func:`reinforce_upper`).
    """
    next_state = outcome.next_state
    a0, a1, a2, a3 = agents     # N_HUNTERS == 4
    return [a0.observe(next_state), a1.observe(next_state), a2.observe(next_state),
            a3.observe(next_state)]
