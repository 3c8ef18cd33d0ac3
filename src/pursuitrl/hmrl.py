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
and the target's cell id; a lower rule by the action's index.
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
    Position,
    PreyKind,
    StepOutcome,
    WorldState,
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
        if not 0 < self.near_distance < self.far_distance:
            raise ValueError(
                f"need 0 < near < far, got {self.near_distance}, {self.far_distance}"
            )


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


class TargetChoice(NamedTuple):
    target: Position
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

    side = state.side
    grid = grid_for(side)
    n = grid.size
    hunters = state.hunters
    own = hunters[hunter_index]
    distance = grid.distance[own[0] * side + own[1]]
    if first.alive and second.alive:
        d0 = distance[first.position[0] * side + first.position[1]]
        d1 = distance[second.position[0] * side + second.position[1]]
        if d0 != d1:
            prey_index = 0 if d0 < d1 else 1
        else:
            prey_index = rng.choice((0, 1))
            logger.debug("hunter %d equidistant from both prey, chose %d",
                         hunter_index, prey_index)
    else:
        prey_index = 0 if first.alive else 1

    x, y = prey[prey_index].position
    goal = x * side + y
    cells = grid.candidates[candidates][goal]
    head = ((hunter_index * N_PREY + prey_index) * n + own[0] * side + own[1]) * n
    modules = tuple([(head + hunters[k][0] * side + hunters[k][1]) * n + goal
                     for k in _PEERS[hunter_index]])
    if exploration > 0.0 and rng.random() < exploration:
        target = rng.choice(cells)
        return TargetChoice(grid.cells[target], prey_index, modules, target)

    get = weights.weights.get
    # Peer weights are summed in peer order. A module with no rule adds 0
    # to every cell, which changes no sum, so only modules with rules are read.
    fired = [key for key in modules if key in weights.states]
    if fired:
        powers = grid.discount_powers(reach_discount)
        totals = [0.0] * len(cells)
        for module in fired:
            totals = [total + get((module, cell), 0.0) for total, cell in zip(totals, cells)]
        scores = [total / powers[distance[cell]] for total, cell in zip(totals, cells)]
        best_score = max(scores)
        if scores.count(best_score) == 1:
            best = [cells[scores.index(best_score)]]
        else:
            best = [cell for cell, score in zip(cells, scores) if score == best_score]
    else:
        best = cells            # zero weights everywhere: every candidate ties
    target = best[0] if len(best) == 1 else rng.choice(best)
    return TargetChoice(grid.cells[target], prey_index, modules, target)


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
        self.pending: tuple[tuple[int, int], Action, Position, int] | None = None

    def begin_trial(self) -> None:
        self.trace.clear()
        self.pending = None

    def policy_step(self, state: WorldState, rng: Random, exploration: float) -> Action:
        """Select this step's target, then the move toward it."""
        choice = select_target(self.upper, self.index, state, rng,
                               reach_discount=self.reach_discount,
                               exploration=exploration, candidates=self.candidates)
        first, second = state.prey
        self.trace.append((choice.modules, choice.cell,
                           abs(first.position[0] - second.position[0])
                           + abs(first.position[1] - second.position[1])
                           if first.alive and second.alive else None))

        own = state.hunters[self.index]
        target = choice.target
        rel = (target[0] - own[0], target[1] - own[1])
        legal = grid_for(state.side).legal[own[0] * state.side + own[1]]
        action = ACTIONS[epsilon_greedy(self.q, rel, legal, exploration, rng,
                                        target=choice.prey)]
        self.pending = (rel, action, target, choice.prey)
        return action

    def observe(self, next_state: WorldState) -> bool:
        """Lower-layer update after the world moved; True if the target was reached."""
        if self.pending is None:
            raise RuntimeError("observe() without a preceding policy_step()")
        rel, action, target, prey_tag = self.pending
        self.pending = None
        new_pos = next_state.hunters[self.index]
        reached = new_pos == target
        reward = self.goal_reward if reached else 0.0
        next_rel = (target[0] - new_pos[0], target[1] - new_pos[1])
        q_update(self.q, rel, action.index, reward, next_rel, terminal=reached,
                 target=prey_tag)
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
