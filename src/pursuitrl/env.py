"""Grid world for the multi-agent pursuit problem.

Four hunters chase two randomly moving prey on a bounded square grid.
All agents move simultaneously; a prey is captured when every in-bounds
neighbouring cell is occupied by a hunter (grid walls count as blocking).

The topology of a grid side is precomputed once in a :class:`Grid` and
addressed by integer cell ids, which is what the trial loop runs on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from random import Random
from typing import Callable, Iterable, NamedTuple, Sequence


class Position(NamedTuple):
    x: int
    y: int


class Action(Enum):
    """One move per step. x grows east, y grows south.

    ``index`` is the action's place in :data:`ACTIONS`; learners key their
    tables by it rather than by the member, whose hash is slow.
    """

    STAY = (0, 0)
    NORTH = (0, -1)
    SOUTH = (0, 1)
    EAST = (1, 0)
    WEST = (-1, 0)

    def __init__(self, dx: int, dy: int) -> None:
        self.dx = dx
        self.dy = dy
        self.index = len(type(self)._member_names_)


ACTIONS: tuple[Action, ...] = tuple(Action)

# Serialization vocabulary for CSV/rule files: screen directions, with
# "down" meaning +y (south).
ACTION_LABELS = {
    Action.STAY: "stay",
    Action.NORTH: "up",
    Action.SOUTH: "down",
    Action.EAST: "right",
    Action.WEST: "left",
}
ACTION_BY_LABEL = {label: action for action, label in ACTION_LABELS.items()}


class PreyKind(Enum):
    POSITIVE = "positive"
    DANGEROUS = "dangerous"


N_HUNTERS = 4
N_PREY = 2

HUNTER_IDS = tuple(f"h{i}" for i in range(N_HUNTERS))
PREY_IDS = tuple(f"p{j}" for j in range(N_PREY))

CANDIDATE_MODES = ("ring2", "all")


class Grid:
    """Integer-coded topology of one square grid side.

    Cell ``x * side + y`` is ``Position(x, y)``, so ascending ids run
    x-outer, y-inner. Per cell it holds the move destination of every
    action (-1 off the grid), the legal actions, the in-bounds
    4-neighbours, the Manhattan distance to every cell, and per candidate
    mode the target cells a hunter may be sent to for a prey there.
    Build it with :func:`grid_for`, which keeps one per side.
    """

    def __init__(self, side: int):
        self.side = side
        self.size = side * side
        self.cells = tuple(Position(x, y) for x in range(side) for y in range(side))
        # repr of the cell as a plain tuple, as persisted tables spell it
        self.cell_text = tuple(f"({x}, {y})" for x, y in self.cells)
        self.moves = tuple(
            tuple((x + a.dx) * side + y + a.dy
                  if 0 <= x + a.dx < side and 0 <= y + a.dy < side else -1
                  for a in ACTIONS)
            for x, y in self.cells
        )
        self.legal = tuple(tuple(i for i, dest in enumerate(row) if dest >= 0)
                           for row in self.moves)
        self.legal_actions = tuple(tuple(ACTIONS[i] for i in row) for row in self.legal)
        self.neighbors = tuple(tuple(row[i] for i in legal if i != Action.STAY.index)
                               for row, legal in zip(self.moves, self.legal))
        self.distance = tuple(tuple(abs(x - u) + abs(y - v) for u, v in self.cells)
                              for x, y in self.cells)
        # ring2: cells within distance 2 of the prey (surrounding needs the
        # adjacent slots); all: the whole grid. Never the prey's own cell.
        self.candidates = {
            "ring2": tuple(tuple(c for c, d in enumerate(row) if 0 < d <= 2)
                           for row in self.distance),
            "all": tuple(tuple(c for c in range(self.size) if c != goal)
                         for goal in range(self.size)),
        }
        self._powers: dict[float, tuple[float, ...]] = {}

    def cell(self, pos: Position | tuple[int, int]) -> int:
        return pos[0] * self.side + pos[1]

    def discount_powers(self, base: float) -> tuple[float, ...]:
        """``base ** d`` for every distance ``d`` on this grid."""
        powers = self._powers.get(base)
        if powers is None:
            powers = self._powers[base] = tuple(base**d for d in range(2 * self.side - 1))
        return powers


@lru_cache(maxsize=None)
def grid_for(side: int) -> Grid:
    return Grid(side)


@dataclass(frozen=True)
class GridConfig:
    side: int = 7
    prey_kinds: tuple[PreyKind, PreyKind] = (PreyKind.POSITIVE, PreyKind.DANGEROUS)
    prey_alive: tuple[bool, bool] = (True, True)


@dataclass
class PreyState:
    position: Position
    alive: bool
    kind: PreyKind


@dataclass
class WorldState:
    side: int
    hunters: list[Position]
    prey: list[PreyState]
    step_count: int = 0

    def occupied_cells(self) -> set[Position]:
        cells = set(self.hunters)
        cells.update(p.position for p in self.prey if p.alive)
        return cells

    def alive_prey_indices(self) -> list[int]:
        return [j for j, p in enumerate(self.prey) if p.alive]


@dataclass
class StepOutcome:
    next_state: WorldState
    captures: list[tuple[int, PreyKind]] = field(default_factory=list)
    blocked_moves: list[str] = field(default_factory=list)


def manhattan_distance(a: Position | tuple[int, int], b: Position | tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def in_bounds(pos: tuple[int, int], side: int) -> bool:
    return 0 <= pos[0] < side and 0 <= pos[1] < side


def legal_actions_at(pos: Position, side: int) -> tuple[Action, ...]:
    return grid_for(side).legal_actions[pos[0] * side + pos[1]]


def _agent_position(state: WorldState, agent_id: str) -> Position:
    if agent_id in HUNTER_IDS:
        return state.hunters[int(agent_id[1:])]
    if agent_id in PREY_IDS:
        prey = state.prey[int(agent_id[1:])]
        if not prey.alive:
            raise ValueError(f"agent {agent_id} is dead")
        return prey.position
    raise KeyError(f"unknown agent id: {agent_id!r}")


def legal_moves(state: WorldState, agent_id: str) -> set[Action]:
    """Actions whose destination stays on the grid. Stay is always legal."""
    return set(legal_actions_at(_agent_position(state, agent_id), state.side))


def new_world(seed: int, config: GridConfig = GridConfig()) -> WorldState:
    """Place 4 hunters and 2 prey on distinct random cells."""
    n_agents = N_HUNTERS + N_PREY
    if config.side * config.side < n_agents:
        raise ValueError(
            f"grid of side {config.side} cannot hold {n_agents} distinct agents"
        )
    picks = Random(seed).sample(grid_for(config.side).cells, n_agents)
    hunters = picks[:N_HUNTERS]
    prey = [
        PreyState(position=picks[N_HUNTERS + j], alive=config.prey_alive[j],
                  kind=config.prey_kinds[j])
        for j in range(N_PREY)
    ]
    return WorldState(side=config.side, hunters=hunters, prey=prey)


def is_captured(state: WorldState, prey_index: int) -> bool:
    """True when every in-bounds neighbour cell of the prey holds a hunter."""
    prey = state.prey[prey_index]
    if not prey.alive:
        raise ValueError(f"prey {prey_index} is dead")
    grid = grid_for(state.side)
    hunter_cells = {grid.cell(pos) for pos in state.hunters}
    return hunter_cells.issuperset(grid.neighbors[grid.cell(prey.position)])


PreyPolicy = Callable[[WorldState, int, Sequence[Action], Random], Action]


def random_prey_policy(state: WorldState, prey_index: int,
                       legal: Sequence[Action], rng: Random) -> Action:
    return rng.choice(legal)


def step(state: WorldState, hunter_actions: Sequence[Action], rng: Random,
         prey_policy: PreyPolicy = random_prey_policy) -> StepOutcome:
    """Advance the world one tick with simultaneous moves.

    Movement conflicts (two agents claiming one cell, or moving onto an
    agent that stays put) are settled by a random priority order drawn
    from ``rng``; losers stay where they are. Captured prey are marked
    dead and stop occupying their cell.
    """
    if len(hunter_actions) != N_HUNTERS:
        raise ValueError(f"expected {N_HUNTERS} hunter actions")

    side = state.side
    grid = grid_for(side)
    moves = grid.moves
    # Agent-index arrays over the agents taking part: the hunters, then
    # the live prey in prey order.
    current = [x * side + y for x, y in state.hunters]
    dest = [moves[cell][action.index] for cell, action in zip(current, hunter_actions)]
    if -1 in dest:
        i = dest.index(-1)
        raise ValueError(f"illegal action {hunter_actions[i].name} for hunter {i} "
                         f"at {state.hunters[i]}")

    # Prey draws happen before the priority draw, in prey order, so the
    # rng stream for a step is well defined.
    live = [j for j, prey in enumerate(state.prey) if prey.alive]
    for j in live:
        x, y = state.prey[j].position
        cell = x * side + y
        action = prey_policy(state, j, grid.legal_actions[cell], rng)
        target = moves[cell][action.index]
        if target < 0:
            raise ValueError(f"illegal prey action {action.name} for prey {j}")
        current.append(cell)
        dest.append(target)

    order = list(range(len(current)))
    rng.shuffle(order)
    moving = [d != c for c, d in zip(current, dest)]
    blocked = [False] * len(current)

    # Same destination: the best-ranked claimant moves, the rest stay.
    claimed: set[int] = set()
    for k in order:
        if moving[k]:
            if dest[k] in claimed:
                moving[k] = False
                blocked[k] = True
            else:
                claimed.add(dest[k])

    # A move onto a cell whose occupant ends up staying is blocked; each
    # new stayer can block further movers, so iterate to a fixed point.
    stay_cells = {c for c, m in zip(current, moving) if not m}
    changed = True
    while changed:
        changed = False
        for k in order:
            if moving[k] and dest[k] in stay_cells:
                moving[k] = False
                blocked[k] = True
                stay_cells.add(current[k])
                changed = True

    final = [d if m else c for c, d, m in zip(current, dest, moving)]
    cells = grid.cells
    prey = [PreyState(p.position, p.alive, p.kind) for p in state.prey]
    for j, cell in zip(live, final[N_HUNTERS:]):
        prey[j].position = cells[cell]
    next_state = WorldState(side, [cells[cell] for cell in final[:N_HUNTERS]], prey,
                            state.step_count + 1)

    captures: list[tuple[int, PreyKind]] = []
    hunter_cells = set(final[:N_HUNTERS])
    for j, cell in zip(live, final[N_HUNTERS:]):
        if hunter_cells.issuperset(grid.neighbors[cell]):
            captures.append((j, prey[j].kind))
            prey[j].alive = False

    return StepOutcome(next_state, captures, [
        HUNTER_IDS[k] if k < N_HUNTERS else PREY_IDS[live[k - N_HUNTERS]]
        for k in order if blocked[k]])


def trajectory_rows(state: WorldState) -> list[tuple[int, str, int, int]]:
    """Positions of all live agents at one step, for trajectory dumps."""
    rows = [(state.step_count, HUNTER_IDS[i], p.x, p.y)
            for i, p in enumerate(state.hunters)]
    rows.extend((state.step_count, PREY_IDS[j], p.position.x, p.position.y)
                for j, p in enumerate(state.prey) if p.alive)
    return rows


def save_trajectory(path, rows: Iterable[tuple[int, str, int, int, str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "agent", "x", "y", "action"])
        writer.writerows(rows)


def load_trajectory(path) -> list[tuple[int, str, int, int, str]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["step", "agent", "x", "y", "action"]:
            raise ValueError(f"unexpected trajectory header: {header}")
        return [(int(s), a, int(x), int(y), act) for s, a, x, y, act in reader]
