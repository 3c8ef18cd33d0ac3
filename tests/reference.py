"""Reference implementations and oracles the tests check the program against.

The grid, target-choice and world-step references work on positions and
named keys by direct geometry, the way the program did before its tables
were integer-coded, and share no code with the :class:`pursuitrl.env.Grid`
tables; they convert the program's cell-id world states at their
boundary. Plain Profit Sharing and value iteration are the textbook
algorithms the two learning layers reduce to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from pursuitrl.env import ACTIONS, N_PREY, Position, PreyKind, PreyState, WorldState
from pursuitrl.knowledge import Split
from pursuitrl.profit_sharing import WeightTable


class ModuleKey(NamedTuple):
    """Upper-layer rule state: one module per (hunter, peer) pair per prey."""

    hunter: int
    prey: int
    own: Position
    peer: Position
    goal: Position


def cell_id(pos, side: int) -> int:
    return pos[0] * side + pos[1]


def position(cell: int, side: int) -> Position:
    return Position(*divmod(cell, side))


def make_world(hunters, prey, alive=(True, True),
               kinds=(PreyKind.POSITIVE, PreyKind.DANGEROUS), side=7) -> WorldState:
    """A cell-id world state from hunter and prey ``(x, y)`` positions."""
    return WorldState(side=side, hunters=[cell_id(h, side) for h in hunters],
                      prey=[PreyState(cell_id(p, side), a, k)
                            for p, a, k in zip(prey, alive, kinds)])


def positions(state: WorldState) -> tuple[list[Position], list[Position]]:
    """The hunter and prey positions of a cell-id world state."""
    return ([position(cell, state.side) for cell in state.hunters],
            [position(p.cell, state.side) for p in state.prey])


def lower_state(offset, prey: int, side: int) -> int:
    """Lower-layer state id of a ``(dx, dy)`` offset and a prey, by direct arithmetic."""
    span = 2 * side - 1
    return ((offset[0] + side - 1) * span + offset[1] + side - 1) * N_PREY + prey


def pack(key: ModuleKey, side: int) -> int:
    """Packed row key of a module: (hunter, prey, own, peer, goal) in mixed radix."""
    n = side * side
    packed = key.hunter * N_PREY + key.prey
    for cell in (key.own, key.peer, key.goal):
        packed = packed * n + cell_id(cell, side)
    return packed


def upper_table(rules: dict, side: int) -> WeightTable:
    """A packed weight table from ``{(ModuleKey, target Position): weight}``."""
    table = WeightTable()
    for (key, target), weight in rules.items():
        table.add(pack(key, side), cell_id(target, side), weight)
    return table


def legal_actions(pos, side: int):
    return tuple(a for a in ACTIONS
                 if 0 <= pos[0] + a.value[0] < side and 0 <= pos[1] + a.value[1] < side)


def neighbor_cells(pos, side: int) -> list[Position]:
    x, y = pos
    return [Position(x + dx, y + dy) for dx, dy in ((0, -1), (0, 1), (1, 0), (-1, 0))
            if 0 <= x + dx < side and 0 <= y + dy < side]


def candidate_cells(goal, side: int, mode: str = "ring2") -> tuple[Position, ...]:
    gx, gy = goal
    if mode == "ring2":
        return tuple(Position(x, y)
                     for x in range(max(0, gx - 2), min(side, gx + 3))
                     for y in range(max(0, gy - 2), min(side, gy + 3))
                     if 0 < abs(x - gx) + abs(y - gy) <= 2)
    if mode == "all":
        return tuple(Position(x, y) for x in range(side) for y in range(side)
                     if (x, y) != (gx, gy))
    raise ValueError(mode)


def select_target(rules: dict, hunter: int, state: WorldState, rng: Random,
                  reach_discount: float = 2.0, exploration: float = 0.0,
                  mode: str = "ring2") -> tuple[Position, int]:
    """Brute-force target choice over ``{(ModuleKey, Position): weight}``:
    ``(target, prey)``, drawing from ``rng`` as the program does."""
    hunters, prey_positions = positions(state)
    own = hunters[hunter]
    alive = [j for j, prey in enumerate(state.prey) if prey.alive]
    if len(alive) == 1:
        prey = alive[0]
    else:
        d = [abs(own[0] - prey_positions[j][0]) + abs(own[1] - prey_positions[j][1])
             for j in alive]
        prey = alive[0] if d[0] < d[1] else alive[1] if d[1] < d[0] else rng.choice(alive)
    goal = prey_positions[prey]
    keys = [ModuleKey(hunter, prey, own, peer, goal)
            for k, peer in enumerate(hunters) if k != hunter]
    cells = candidate_cells(goal, state.side, mode)

    def score(cell):
        total = 0.0
        for key in keys:
            total += rules.get((key, cell), 0.0)
        return total / reach_discount ** (abs(own[0] - cell[0]) + abs(own[1] - cell[1]))

    if exploration > 0.0 and rng.random() < exploration:
        return rng.choice(cells), prey
    scores = {cell: score(cell) for cell in cells}
    top = max(scores.values())
    best = [cell for cell in cells if scores[cell] == top]
    return (best[0] if len(best) == 1 else rng.choice(best)), prey


def classify(tree, theta_x: int, theta_y: int):
    """The action a decision tree predicts at an offset: the If-Then rules
    distilled from it must reproduce this."""
    node = tree
    while isinstance(node, Split):
        value = theta_x if node.attribute == "theta_X" else theta_y
        node = node.le_child if value <= node.threshold else node.gt_child
    return node.label


def rule_matches(rule, theta_x: int, theta_y: int) -> bool:
    """Condition-by-condition match of an If-Then rule."""
    values = {"theta_X": theta_x, "theta_Y": theta_y}
    for attribute, op, threshold in rule.conditions:
        value = values[attribute]
        if op == "<=":
            if not value <= threshold:
                return False
        elif not value > threshold:
            return False
    return True


def step(state: WorldState, hunter_actions, rng: Random):
    """One world tick with agent-id dicts: ``(next_state, captures, blocked)``.

    Same rules and rng draws as :func:`pursuitrl.env.step` with random prey.
    """
    side = state.side
    hunter_positions, prey_positions = positions(state)
    current, dest = {}, {}
    for i, action in enumerate(hunter_actions):
        pos = hunter_positions[i]
        current[f"h{i}"] = pos
        dest[f"h{i}"] = Position(pos.x + action.value[0], pos.y + action.value[1])
    for j, prey in enumerate(state.prey):
        if prey.alive:
            pos = prey_positions[j]
            action = rng.choice(legal_actions(pos, side))
            current[f"p{j}"] = pos
            dest[f"p{j}"] = Position(pos.x + action.value[0], pos.y + action.value[1])
    order = list(current)
    rng.shuffle(order)
    rank = {aid: k for k, aid in enumerate(order)}
    movers = {aid for aid in current if dest[aid] != current[aid]}
    blocked = []
    claims = {}
    for aid in movers:
        claims.setdefault(dest[aid], []).append(aid)
    for group in claims.values():
        group.sort(key=rank.__getitem__)
        for loser in group[1:]:
            movers.discard(loser)
            blocked.append(loser)
    stay_cells = {current[aid] for aid in current if aid not in movers}
    changed = True
    while changed:
        changed = False
        for aid in list(movers):
            if dest[aid] in stay_cells:
                movers.discard(aid)
                blocked.append(aid)
                stay_cells.add(current[aid])
                changed = True
    final = {aid: (dest[aid] if aid in movers else current[aid]) for aid in current}
    hunters = [final[f"h{i}"] for i in range(len(state.hunters))]
    prey_final = [final.get(f"p{j}", pos) for j, pos in enumerate(prey_positions)]
    prey = [PreyState(cell_id(pos, side), p.alive, p.kind)
            for pos, p in zip(prey_final, state.prey)]
    captures = []
    for j, p in enumerate(prey):
        surrounded = all(cell in set(hunters) for cell in neighbor_cells(prey_final[j], side))
        if p.alive and surrounded:
            captures.append((j, p.kind))
            p.alive = False
    blocked.sort(key=rank.__getitem__)
    next_state = WorldState(side, [cell_id(pos, side) for pos in hunters], prey,
                            state.step_count + 1)
    return next_state, captures, blocked


def profit_sharing(rules: list, reward: float, discount: float) -> dict:
    """Plain Profit Sharing credit over fired rules, oldest first: the rule
    fired ``i`` steps before the reward gets ``reward / discount**i``, and
    a rule fired more than once sums its shares."""
    credit: dict = {}
    share = reward
    for rule in reversed(rules):
        credit[rule] = credit.get(rule, 0.0) + share
        share /= discount
    return credit


@dataclass
class ExplicitMDP:
    """Small enumerated MDP for oracle computations.

    ``transitions[(state, action)]`` lists ``(probability, next_state,
    reward)`` triples; probabilities per pair must sum to 1. Terminal
    states have value 0 and no outgoing transitions.
    """

    states: tuple
    actions: tuple
    transitions: dict
    gamma: float
    terminal: frozenset = field(default_factory=frozenset)


def solve_value_iteration(mdp: ExplicitMDP, tolerance: float = 1e-9,
                          max_sweeps: int = 100_000) -> dict:
    """Fixed point of the optimal Bellman backup, to ``tolerance``."""
    if not 0.0 <= mdp.gamma < 1.0:
        raise ValueError("value iteration needs gamma in [0, 1)")
    values = {s: 0.0 for s in mdp.states}
    for _ in range(max_sweeps):
        delta = 0.0
        for s in mdp.states:
            if s in mdp.terminal:
                continue
            best = -float("inf")
            for a in mdp.actions:
                if (s, a) not in mdp.transitions:
                    continue
                total = sum(
                    p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(s, a)]
                )
                best = max(best, total)
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < tolerance:
            return values
    raise RuntimeError(f"value iteration did not converge in {max_sweeps} sweeps")


def greedy_action(mdp: ExplicitMDP, values: dict, state) -> object:
    """Best action under the solved values; ties go to action order."""
    best_a, best_v = None, -float("inf")
    for a in mdp.actions:
        if (state, a) not in mdp.transitions:
            continue
        total = sum(p * (r + mdp.gamma * values[ns])
                    for p, ns, r in mdp.transitions[(state, a)])
        if total > best_v:
            best_a, best_v = a, total
    return best_a
