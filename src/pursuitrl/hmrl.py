"""Two-layer hunter agents for the pursuit world.

The upper layer is a modular Profit Sharing learner: for each prey it
scores candidate target cells from rules keyed by (hunter, prey, own
position, one peer's position, prey position), summing the score over
the three peers and discounting by the distance the hunter would have
to travel. The lower layer is plain Q-learning over the (dx, dy) offset
to the commanded target.

In the two-prey setting the upper layer's backward credit is gated by
the inter-prey distance: share nothing upstream of a step where the two
prey were within the close range, slightly dampen it when they were far
apart.

Both layers run on the integer-coded grid of :func:`env.grid_for`. An
upper rule is keyed by the packed module key (see :func:`module_text`)
and the target's cell id; a lower rule by the lower state id (see
:func:`lower_state_text`) and the action's index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from random import Random
from typing import Literal, NamedTuple, Sequence

from .env import (
    ACTIONS,
    N_HUNTERS,
    N_PREY,
    Action,
    Grid,
    PreyKind,
    StepOutcome,
    WorldState,
    below,
    grid_for,
)
from .profit_sharing import WeightTable
from .q_learning import QTable, epsilon_greedy, q_update

logger = logging.getLogger(__name__)

# Credit shares below this are dropped during backward reinforcement;
# with decay <= 0.9 the cutoff is reached within ~200 steps and the
# skipped weight increments are far below tie-breaking relevance.
CREDIT_FLOOR = 1e-9

# The other hunters of each hunter, in hunter order.
_PEERS = tuple(tuple(k for k in range(N_HUNTERS) if k != i) for i in range(N_HUNTERS))


@dataclass(frozen=True)
class ATFieldParams:
    near_distance: int = 2    # at or under this, prey are dangerously close
    far_distance: int = 5     # beyond this, prey are comfortably apart
    decay: float = 0.8        # per-step upper-layer credit decay

    def __post_init__(self) -> None:
        if not (0 < self.near_distance < self.far_distance and 0.0 < self.decay <= 1.0):
            raise ValueError(f"need 0 < near < far and 0 < decay <= 1, got near "
                             f"{self.near_distance}, far {self.far_distance}, "
                             f"decay {self.decay}")


def atf(prey_distance: int, params: ATFieldParams) -> float:
    """Credit gate keyed on the distance between the two prey.

    Zero within the close range, full strength in the middle band, and
    0.9 once the prey are far apart.
    """
    if prey_distance < 0:
        raise ValueError("distance must be >= 0")
    if prey_distance <= params.near_distance:
        return 0.0
    if prey_distance <= params.far_distance:
        return 1.0
    return 0.9


def module_text(grid: Grid, key: int) -> str:
    """The persisted spelling of a packed module key.

    A key packs (hunter, prey, own cell, peer cell, prey cell) as
    ``(((hunter * N_PREY + prey) * n + own) * n + peer) * n + goal`` over
    the grid's ``n`` cell ids; it is written as the plain tuple
    ``(hunter, prey, (x, y), (x, y), (x, y))``.
    """
    n = grid.size
    rest, goal = divmod(key, n)
    rest, peer = divmod(rest, n)
    rest, own = divmod(rest, n)
    hunter, prey = divmod(rest, N_PREY)
    text = grid.cell_text
    return f"({hunter}, {prey}, {text[own]}, {text[peer]}, {text[goal]})"


def module_prey(grid: Grid, key: int) -> int:
    """The prey a packed module key belongs to."""
    return key // grid.size**3 % N_PREY


def lower_state_text(grid: Grid, state: int) -> str:
    """The persisted spelling ``((dx, dy), prey)`` of a lower-layer state
    id, which packs the target's offset id from the hunter and the prey
    the target belongs to as ``offset * N_PREY + prey``."""
    offset, prey = divmod(state, N_PREY)
    return f"({grid.offset_text[offset]}, {prey})"


def lower_state_ids(grid: Grid) -> dict[str, int]:
    """Every lower-layer state id by its :func:`lower_state_text` spelling."""
    return {lower_state_text(grid, s): s for s in range(len(grid.offsets) * N_PREY)}


class TargetChoice(NamedTuple):
    prey: int
    modules: tuple[int, ...]   # packed module key per peer: the rules fired with
    cell: int                  # the target's cell id


CandidateMode = Literal["ring2", "all"]


def select_target(weights: WeightTable, hunter_index: int, state: WorldState,
                  rng: Random, reach_discount: float = 2.0,
                  exploration: float = 0.0,
                  candidates: CandidateMode = "ring2") -> TargetChoice:
    """Pick the commanded target cell for one hunter.

    With two live prey the nearer one (by Manhattan distance) is chased;
    equidistant prey are chosen at random. The cell is the candidate
    maximizing the peer-summed rule weight discounted by the hunter's
    distance to it, ties uniform.
    """
    if reach_discount < 1.0:
        raise ValueError(f"reach discount must be >= 1, got {reach_discount}")
    first, second = prey = state.prey      # N_PREY == 2
    if not (first.alive or second.alive):
        raise ValueError("no alive prey to target")

    grid = grid_for(state.side)
    n = grid.size
    hunters = state.hunters
    own = hunters[hunter_index]
    distance = grid.distance[own]
    if first.alive and second.alive:
        d0 = distance[first.cell]
        d1 = distance[second.cell]
        if d0 != d1:
            prey_index = 0 if d0 < d1 else 1
        else:
            prey_index = below(rng, 2)
            logger.debug("hunter %d equidistant from both prey, chose %d",
                         hunter_index, prey_index)
    else:
        prey_index = 0 if first.alive else 1

    goal = prey[prey_index].cell
    cells = grid.candidates[candidates][goal]
    head = ((hunter_index * N_PREY + prey_index) * n + own) * n
    p0, p1, p2 = _PEERS[hunter_index]       # N_HUNTERS == 4
    modules = ((head + hunters[p0]) * n + goal, (head + hunters[p1]) * n + goal,
               (head + hunters[p2]) * n + goal)
    if exploration > 0.0 and rng.random() < exploration:
        return TargetChoice(prey_index, modules, cells[below(rng, len(cells))])

    states = weights.states
    if modules[0] in states or modules[1] in states or modules[2] in states:
        # Each module's rules are added into their cells' slots, in peer
        # order; a missing rule would add +0.0, which changes no sum.
        weight = weights.weights
        slot = grid.slots[candidates][goal]
        totals = [0.0] * len(cells)
        for module in modules:
            for cell in states.get(module, ()):
                i = slot.get(cell)
                if i is not None:
                    totals[i] += weight[module, cell]
        powers = grid.discount_powers(reach_discount)
        scores = [total / powers[distance[cell]] for total, cell in zip(totals, cells)]
        best_score = max(scores)
        if scores.count(best_score) == 1:
            return TargetChoice(prey_index, modules, cells[scores.index(best_score)])
        best = [cell for cell, score in zip(cells, scores) if score == best_score]
    else:
        best = cells            # zero weights everywhere: every candidate ties
    return TargetChoice(prey_index, modules, best[below(rng, len(best))])


# A trace step: the fired packed modules (one per peer), the commanded cell
# id, and the inter-prey distance (None with a lone prey).
TraceStep = tuple[tuple[int, ...], int, int | None]


def reinforce_upper(weights: WeightTable, trace: list[TraceStep], reward: float,
                    params: ATFieldParams, gated: bool = True) -> WeightTable:
    """Share ``reward`` backward over a trial's fired upper rules, then clear the trace.

    The newest step gets the whole reward. The share entering each
    earlier step is the later step's share times the decay, times (when
    ``gated``) the gate at the later step's prey distance; a ``None``
    distance leaves the gate open. The walk stops once a share falls
    below :data:`CREDIT_FLOOR`.
    """
    if reward != 0.0:
        if not trace:
            raise ValueError("cannot reinforce an empty trace with a nonzero reward")
        credit = reward
        for modules, cell, gap in reversed(trace):
            for module in modules:
                weights.add(module, cell, credit)
            gate = atf(gap, params) if (gated and gap is not None) else 1.0
            credit *= params.decay * gate
            if abs(credit) < CREDIT_FLOOR:
                break
    trace.clear()
    return weights


class HunterAgent:
    """One hunter's learning state: upper weight bank, lower Q table, trace."""

    def __init__(self, index: int, *, alpha: float = 0.1, gamma: float = 0.9,
                 atf_params: ATFieldParams = ATFieldParams(),
                 reach_discount: float = 2.0, candidates: CandidateMode = "ring2",
                 goal_reward: float = 100.0):
        self.index = index
        self.upper = WeightTable()
        self.q = QTable(alpha=alpha, gamma=gamma)
        self.atf_params = atf_params
        self.reach_discount = reach_discount
        self.candidates: CandidateMode = candidates
        self.goal_reward = goal_reward
        self.trace: list[TraceStep] = []
        # (lower state id, action index, target cell id) of the move in flight
        self.pending: tuple[int, int, int] | None = None

    def begin_trial(self) -> None:
        self.trace.clear()
        self.pending = None

    def policy_step(self, state: WorldState, rng: Random, exploration: float) -> Action:
        """Select this step's target, then the move toward it."""
        choice = select_target(self.upper, self.index, state, rng, self.reach_discount,
                               exploration, self.candidates)
        grid = grid_for(state.side)
        first, second = state.prey
        target = choice.cell
        self.trace.append((choice.modules, target,
                           grid.distance[first.cell][second.cell]
                           if first.alive and second.alive else None))

        own = state.hunters[self.index]
        lower = grid.offset[own][target] * N_PREY + choice.prey
        action = epsilon_greedy(self.q, lower, grid.legal[own], exploration, rng)
        self.pending = (lower, action, target)
        return ACTIONS[action]

    def observe(self, next_state: WorldState) -> bool:
        """Lower-layer update after the world moved; True if the target was reached."""
        if self.pending is None:
            raise RuntimeError("observe() without a preceding policy_step()")
        lower, action, target = self.pending
        self.pending = None
        cell = next_state.hunters[self.index]
        reached = cell == target
        reward = self.goal_reward if reached else 0.0
        next_lower = (grid_for(next_state.side).offset[cell][target] * N_PREY
                      + lower % N_PREY)
        q_update(self.q, lower, action, reward, next_lower, terminal=reached)
        return reached

    def finish_trial(self, reward: float, gated: bool) -> None:
        """Upper-layer reinforcement (or plain trace reset when reward is 0)."""
        reinforce_upper(self.upper, self.trace, reward, self.atf_params, gated=gated)


def deliver_rewards(agents: Sequence[HunterAgent], outcome: StepOutcome,
                    gated: bool = True, positive_reward: float = 100.0,
                    dangerous_reward: float = 0.0) -> list[bool]:
    """Per-step reward plumbing for all hunters.

    Every hunter gets its lower-layer update; on a capture the upper
    traces are settled with the positive or the dangerous reward.
    Returns the per-hunter target-reached flags.
    """
    reached = [agent.observe(outcome.next_state) for agent in agents]
    if outcome.captures:
        positive = any(kind is PreyKind.POSITIVE for _, kind in outcome.captures)
        reward = positive_reward if positive else dangerous_reward
        for agent in agents:
            agent.finish_trial(reward, gated)
    return reached
