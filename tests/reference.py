"""Reference implementations the tests check the integer-coded program against.

They work on positions and named keys by direct geometry, the way the
program did before its tables were integer-coded, and share no code with
the :class:`pursuitrl.env.Grid` tables.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from pursuitrl.env import ACTIONS, N_PREY, Position, PreyState, WorldState
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


def pack(key: ModuleKey, side: int) -> int:
    """Packed row key of a module: (hunter, prey, own, peer, goal) in mixed radix."""
    n = side * side
    packed = key.hunter * N_PREY + key.prey
    for cell in (key.own, key.peer, key.goal):
        packed = packed * n + cell_id(cell, side)
    return packed


def upper_table(rules: dict, side: int, default_weight: float = 0.0) -> WeightTable:
    """A packed weight table from ``{(ModuleKey, target Position): weight}``."""
    table = WeightTable(default_weight)
    for (key, target), weight in rules.items():
        module = pack(key, side)
        table.weights[module, cell_id(target, side)] = weight
        table.states.add(module)
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
                  mode: str = "ring2", default: float = 0.0) -> tuple[Position, int, float]:
    """Brute-force target choice over ``{(ModuleKey, Position): weight}``:
    ``(target, prey, score)``, drawing from ``rng`` as the program does."""
    own = state.hunters[hunter]
    alive = state.alive_prey_indices()
    if len(alive) == 1:
        prey = alive[0]
    else:
        d = [abs(own[0] - state.prey[j].position[0]) + abs(own[1] - state.prey[j].position[1])
             for j in alive]
        prey = alive[0] if d[0] < d[1] else alive[1] if d[1] < d[0] else rng.choice(alive)
    goal = state.prey[prey].position
    keys = [ModuleKey(hunter, prey, own, peer, goal)
            for k, peer in enumerate(state.hunters) if k != hunter]
    cells = candidate_cells(goal, state.side, mode)

    def score(cell):
        total = 0.0
        for key in keys:
            total += rules.get((key, cell), default)
        return total / reach_discount ** (abs(own[0] - cell[0]) + abs(own[1] - cell[1]))

    if exploration > 0.0 and rng.random() < exploration:
        cell = rng.choice(cells)
        return cell, prey, score(cell)
    scores = {cell: score(cell) for cell in cells}
    top = max(scores.values())
    best = [cell for cell in cells if scores[cell] == top]
    return (best[0] if len(best) == 1 else rng.choice(best)), prey, top


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
    current, dest = {}, {}
    for i, action in enumerate(hunter_actions):
        pos = state.hunters[i]
        current[f"h{i}"] = pos
        dest[f"h{i}"] = Position(pos.x + action.value[0], pos.y + action.value[1])
    for j, prey in enumerate(state.prey):
        if prey.alive:
            action = rng.choice(legal_actions(prey.position, side))
            current[f"p{j}"] = prey.position
            dest[f"p{j}"] = Position(prey.position.x + action.value[0],
                                     prey.position.y + action.value[1])
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
    prey = [PreyState(final.get(f"p{j}", p.position), p.alive, p.kind)
            for j, p in enumerate(state.prey)]
    captures = []
    for j, p in enumerate(prey):
        if p.alive and all(cell in set(hunters) for cell in neighbor_cells(p.position, side)):
            captures.append((j, p.kind))
            p.alive = False
    blocked.sort(key=rank.__getitem__)
    next_state = WorldState(side, hunters, prey, state.step_count + 1)
    return next_state, captures, blocked
