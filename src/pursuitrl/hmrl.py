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
from collections import deque
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
    score: float
    modules: tuple[int, ...]   # packed module key per peer: the rules fired with
    cell: int                  # the target's cell id


CandidateMode = Literal["ring2", "all"]


def select_target(weights: WeightTable, hunter_index: int, state: WorldState,
                  rng: Random, reach_discount: float = 2.0,
                  mode: Literal["single", "two_prey"] = "two_prey",
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
        if mode == "single":
            raise ValueError("single mode expects exactly one alive prey")
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
    default = weights.default_weight
    get = weights.weights.get
    # Peer weights are summed in peer order. A module with no rule adds the
    # default to every cell, which changes no sum when it is zero.
    fired = modules if default else [key for key in modules if key in weights.states]
    powers = grid.discount_powers(reach_discount)

    if exploration > 0.0 and rng.random() < exploration:
        target = rng.choice(cells)
        total = 0.0
        for module in fired:
            total += get((module, target), default)
        return TargetChoice(grid.cells[target], prey_index, total / powers[distance[target]],
                            modules, target)

    if fired:
        totals = [0.0] * len(cells)
        for module in fired:
            totals = [total + get((module, cell), default) for total, cell in zip(totals, cells)]
        scores = [total / powers[distance[cell]] for total, cell in zip(totals, cells)]
        best_score = max(scores)
        if scores.count(best_score) == 1:
            best = [cells[scores.index(best_score)]]
        else:
            best = [cell for cell, score in zip(cells, scores) if score == best_score]
    else:
        best_score = 0.0        # zero weights everywhere: every candidate ties
        best = cells
    target = best[0] if len(best) == 1 else rng.choice(best)
    return TargetChoice(grid.cells[target], prey_index, best_score, modules, target)


class UpperTrace:
    """Per-step fired upper rules of the current trial, oldest first.

    A step holds the packed module keys of its rules (one per peer) and
    the cell id they commanded.
    """

    def __init__(self, max_length: int | None = None):
        self._steps: deque[tuple[tuple[int, ...], int]] = deque(maxlen=max_length)

    def record(self, modules: tuple[int, ...], cell: int) -> None:
        self._steps.append((modules, cell))

    def entries(self) -> list[tuple[tuple[int, ...], int]]:
        return list(self._steps)

    def clear(self) -> None:
        self._steps.clear()

    def __len__(self) -> int:
        return len(self._steps)


def reinforce_upper(weights: WeightTable, trace: UpperTrace, reward: float,
                    prey_distances: Sequence[int | None], params: ATFieldParams,
                    gated: bool = True) -> WeightTable:
    """Share ``reward`` backward over the fired upper rules, then clear.

    The share entering each earlier step is the later step's share times
    the decay, times (when ``gated``) the prey-distance gate at that
    later step. A ``None`` distance (lone prey) leaves the gate open.
    """
    steps = trace.entries()
    if len(steps) != len(prey_distances):
        raise ValueError(
            f"trace length {len(steps)} != distance history {len(prey_distances)}"
        )
    if reward != 0.0:
        credit = reward
        for idx in range(len(steps) - 1, -1, -1):
            modules, cell = steps[idx]
            for module in modules:
                weights.add(module, cell, credit)
            if idx == 0:
                break
            gap = prey_distances[idx]
            gate = atf(gap, params) if (gated and gap is not None) else 1.0
            credit *= params.decay * gate
            if abs(credit) < CREDIT_FLOOR:
                break
    trace.clear()
    return weights


class HunterAgent:
    """One hunter's learning state: upper weight bank, lower Q table, traces."""

    def __init__(self, index: int, *, alpha: float = 0.1, gamma: float = 0.9,
                 atf_params: ATFieldParams = ATFieldParams(),
                 reach_discount: float = 2.0, candidates: CandidateMode = "ring2",
                 goal_reward: float = 100.0, trace_cap: int | None = None):
        self.index = index
        self.upper = WeightTable()
        self.q = QTable(alpha=alpha, gamma=gamma)
        self.atf_params = atf_params
        self.reach_discount = reach_discount
        self.candidates: CandidateMode = candidates
        self.goal_reward = goal_reward
        self.trace = UpperTrace(trace_cap)
        self.prey_distances: deque[int | None] = deque(maxlen=trace_cap)
        self.pending: tuple[tuple[int, int], Action, Position, int] | None = None

    def begin_trial(self) -> None:
        self.trace.clear()
        self.prey_distances.clear()
        self.pending = None

    def policy_step(self, state: WorldState, rng: Random, exploration: float) -> Action:
        """Select this step's target, then the move toward it."""
        choice = select_target(self.upper, self.index, state, rng,
                               reach_discount=self.reach_discount,
                               exploration=exploration, candidates=self.candidates)
        self.trace.record(choice.modules, choice.cell)
        first, second = state.prey
        self.prey_distances.append(
            abs(first.position[0] - second.position[0])
            + abs(first.position[1] - second.position[1])
            if first.alive and second.alive else None)

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
        reinforce_upper(self.upper, self.trace, reward, list(self.prey_distances),
                        self.atf_params, gated=gated)
        self.prey_distances.clear()


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
