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

from .tableio import load_csv


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

TRAJECTORY_HEADER = ("step", "agent", "x", "y", "action")


class Grid:
    """Integer-coded topology of one square grid side.

    Cell ``x * side + y`` is ``Position(x, y)``, so ascending ids run
    x-outer, y-inner. Per cell it holds the move destination of every
    action (-1 off the grid), the legal actions, the in-bounds
    4-neighbours, the Manhattan distance and the offset id to every cell,
    and per candidate mode the target cells a hunter may be sent to for a
    prey there. Offset ids run over ``(dx, dy)``, ``|dx|, |dy| < side``,
    dx-outer, dy-inner. Build it with :func:`grid_for`, which keeps one per side.
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
        reach = range(1 - side, side)
        self.offsets = tuple((dx, dy) for dx in reach for dy in reach)
        # repr of the offset as a plain tuple, as persisted tables spell it
        self.offset_text = tuple(f"({dx}, {dy})" for dx, dy in self.offsets)
        # offset[own][target]: id of the target's offset from the own cell
        self.offset = tuple(tuple((u - x + side - 1) * len(reach) + v - y + side - 1
                                  for u, v in self.cells) for x, y in self.cells)
        # ring2: cells within distance 2 of the prey (surrounding needs the
        # adjacent slots); all: the whole grid. Never the prey's own cell.
        self.candidates = {
            "ring2": tuple(tuple(c for c, d in enumerate(row) if 0 < d <= 2)
                           for row in self.distance),
            "all": tuple(tuple(c for c in range(self.size) if c != goal)
                         for goal in range(self.size)),
        }
        # slots[mode][goal]: each candidate cell's index in candidates[mode][goal]
        self.slots = {mode: tuple(dict(zip(cells, range(len(cells)))) for cells in rows)
                      for mode, rows in self.candidates.items()}
        self._powers: dict[float, tuple[float, ...]] = {}

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
    cell: int               # cell id on the world's grid
    alive: bool
    kind: PreyKind


@dataclass
class WorldState:
    side: int
    hunters: list[int]      # cell ids on the world's grid
    prey: list[PreyState]
    step_count: int = 0


@dataclass
class StepOutcome:
    next_state: WorldState
    captures: list[tuple[int, PreyKind]] = field(default_factory=list)
    blocked_moves: list[str] = field(default_factory=list)


def new_world(seed: int, config: GridConfig = GridConfig()) -> WorldState:
    """Place 4 hunters and 2 prey on distinct random cells."""
    n_agents = N_HUNTERS + N_PREY
    if config.side * config.side < n_agents:
        raise ValueError(
            f"grid of side {config.side} cannot hold {n_agents} distinct agents"
        )
    picks = Random(seed).sample(range(config.side * config.side), n_agents)
    hunters = picks[:N_HUNTERS]
    prey = [
        PreyState(cell=picks[N_HUNTERS + j], alive=config.prey_alive[j],
                  kind=config.prey_kinds[j])
        for j in range(N_PREY)
    ]
    return WorldState(side=config.side, hunters=hunters, prey=prey)


def below(rng: Random, n: int) -> int:
    """The index ``rng.choice`` draws from a sequence of length ``n >= 1``,
    by the same ``getrandbits`` calls, so the rng stream is the stdlib's."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


PreyPolicy = Callable[[WorldState, int, Sequence[Action], Random], Action]


def random_prey_policy(state: WorldState, prey_index: int,
                       legal: Sequence[Action], rng: Random) -> Action:
    return legal[below(rng, len(legal))]


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

    grid = grid_for(state.side)
    moves = grid.moves
    # Agent-index arrays over the agents taking part: the hunters, then
    # the live prey in prey order.
    current = list(state.hunters)
    dest = [moves[cell][action.index] for cell, action in zip(current, hunter_actions)]
    if -1 in dest:
        i = dest.index(-1)
        raise ValueError(f"illegal action {hunter_actions[i].name} for hunter {i} "
                         f"at {grid.cells[current[i]]}")

    # Prey draws happen before the priority draw, in prey order, so the
    # rng stream for a step is well defined.
    live = [j for j, prey in enumerate(state.prey) if prey.alive]
    for j in live:
        cell = state.prey[j].cell
        action = prey_policy(state, j, grid.legal_actions[cell], rng)
        target = moves[cell][action.index]
        if target < 0:
            raise ValueError(f"illegal prey action {action.name} for prey {j}")
        current.append(cell)
        dest.append(target)

    order = list(range(len(current)))
    for i in range(len(order) - 1, 0, -1):     # Random.shuffle's Fisher-Yates walk
        j = below(rng, i + 1)
        order[i], order[j] = order[j], order[i]
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
    prey = [PreyState(p.cell, p.alive, p.kind) for p in state.prey]
    for j, cell in zip(live, final[N_HUNTERS:]):
        prey[j].cell = cell
    next_state = WorldState(state.side, final[:N_HUNTERS], prey, state.step_count + 1)

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
    cells = grid_for(state.side).cells
    rows = [(state.step_count, HUNTER_IDS[i], *cells[cell])
            for i, cell in enumerate(state.hunters)]
    rows.extend((state.step_count, PREY_IDS[j], *cells[p.cell])
                for j, p in enumerate(state.prey) if p.alive)
    return rows


def save_trajectory(path, rows: Iterable[tuple[int, str, int, int, str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_HEADER)
        writer.writerows(rows)


def load_trajectory(path) -> list[tuple[int, str, int, int, str]]:
    return load_csv(path, TRAJECTORY_HEADER,
                    lambda s, agent, x, y, act: (int(s), agent, int(x), int(y), act))
