"""Grid world for the multi-agent pursuit problem.

Four hunters chase two randomly moving prey on a bounded square grid.
All agents move simultaneously; a prey is captured when every in-bounds
neighbouring cell is occupied by a hunter (grid walls count as blocking).

The topology of a grid side is precomputed once in a :class:`Grid` and
addressed by integer cell ids, which is what the trial loop runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import TYPE_CHECKING, Sequence

from .tableio import load_csv

if TYPE_CHECKING:
    from .experiment import ExperimentConfig


# An action is its index, in Q rows and in Grid.moves. Files spell it by
# its label: screen directions, with "down" meaning +y (south).
ACTION_LABELS = ("stay", "up", "down", "right", "left")
# Every action index, ascending; Grid.legal shares it where every move is legal.
ACTIONS = tuple(range(len(ACTION_LABELS)))
STAY = 0
ACTION_BY_LABEL = dict(zip(ACTION_LABELS, ACTIONS))
# (dx, dy) by action: x grows east, y grows south.
DELTAS = ((0, 0), (0, -1), (0, 1), (1, 0), (-1, 0))


N_HUNTERS = 4
N_PREY = 2

HUNTER_IDS = tuple(f"h{i}" for i in range(N_HUNTERS))
PREY_IDS = tuple(f"p{j}" for j in range(N_PREY))
# By agent count: (m, bits) of each draw of the priority walk, m falling to 2.
_PRIORITY_DRAWS = tuple(tuple((m, m.bit_length()) for m in range(n, 1, -1))
                        for n in range(N_HUNTERS + N_PREY + 1))

CANDIDATE_MODES = ("ring2", "all")

TRAJECTORY_HEADER = ("step", "agent", "x", "y", "action")


class Grid:
    """Integer-coded topology of one square grid side.

    Cell ``x * side + y`` is ``(x, y)``, so ascending ids run
    x-outer, y-inner. Per cell it holds the move destination of every
    action (-1 off the grid), the legal action indices, the in-bounds
    4-neighbours, the Manhattan distance and the offset id to every cell,
    and per candidate mode the target cells a hunter may be sent to for a
    prey there. Offset ids run over ``(dx, dy)``, ``|dx|, |dy| < side``,
    dx-outer, dy-inner. Build it with :func:`grid_for`, which keeps one per side.
    """

    def __init__(self, side: int):
        self.side = side
        self.size = side * side
        self.cells = tuple((x, y) for x in range(side) for y in range(side))
        self.moves = tuple(
            tuple((x + dx) * side + y + dy if 0 <= x + dx < side and 0 <= y + dy < side else -1
                  for dx, dy in DELTAS)
            for x, y in self.cells
        )
        self.legal = tuple(ACTIONS if min(row) >= 0
                           else tuple(i for i, dest in enumerate(row) if dest >= 0)
                           for row in self.moves)
        # what a uniform random move draws from: (destinations, count, bits)
        self.uniform_moves = tuple((tuple(row[i] for i in legal), len(legal),
                                    len(legal).bit_length())
                                   for row, legal in zip(self.moves, self.legal))
        self.neighbors = tuple(tuple(row[i] for i in legal if i != STAY)
                               for row, legal in zip(self.moves, self.legal))
        self.distance = tuple(tuple(abs(x - u) + abs(y - v) for u, v in self.cells)
                              for x, y in self.cells)
        reach = range(1 - side, side)
        self.offsets = tuple((dx, dy) for dx in reach for dy in reach)
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
        # slots[mode][goal][cell]: the cell's index in candidates[mode][goal],
        # or the index one past the last candidate for any other cell
        self.slots = {mode: tuple(_slots(cells, self.size) for cells in rows)
                      for mode, rows in self.candidates.items()}
        self._divisors: dict[float, tuple[tuple[float, ...], ...]] = {}

    def __repr__(self) -> str:
        return f"grid_for({self.side})"

    def reach_divisors(self, base: float) -> tuple[tuple[float, ...], ...]:
        """``base ** d`` for the distance ``d`` from every cell (outer) to
        every cell (inner)."""
        rows = self._divisors.get(base)
        if rows is None:
            powers = [base**d for d in range(2 * self.side - 1)]
            rows = self._divisors[base] = tuple(tuple(powers[d] for d in row)
                                                for row in self.distance)
        return rows


def _slots(cells: Sequence[int], size: int) -> tuple[int, ...]:
    slot = [len(cells)] * size
    for i, cell in enumerate(cells):
        slot[cell] = i
    return tuple(slot)


@lru_cache(maxsize=None)
def grid_for(side: int) -> Grid:
    return Grid(side)


@dataclass(slots=True)
class WorldState:
    grid: Grid
    hunters: list[int]      # cell ids on the grid
    prey: list[int]         # cell ids on the grid; a dead prey keeps its last cell
    alive: list[bool]       # by prey
    step_count: int = 0
    # derived once for every hunter: the prey distance with both prey alive, else None
    gap: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first, second = self.alive      # N_PREY == 2
        self.gap = self.grid.distance[self.prey[0]][self.prey[1]] if first and second else None


@dataclass(slots=True)
class StepOutcome:
    next_state: WorldState
    captures: list[int]          # prey indices
    # indices into the step's agents (the hunters, then the live prey in
    # prey order), in priority order
    blocked_moves: list[int]


def new_world(seed: int, config: ExperimentConfig) -> WorldState:
    """Place 4 hunters and 2 prey on distinct random cells of the config's grid."""
    grid = grid_for(config.grid_side)
    picks = Random(seed).sample(range(grid.size), N_HUNTERS + N_PREY)
    return WorldState(grid, picks[:N_HUNTERS], picks[N_HUNTERS:], list(config.prey_alive))


def below(rng: Random, n: int) -> int:
    """The index ``rng.choice`` draws from a sequence of length ``n >= 1``,
    by the same ``getrandbits`` calls, so the rng stream is the stdlib's."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def step(state: WorldState, hunter_actions: Sequence[int], rng: Random) -> StepOutcome:
    """Advance the world one tick with simultaneous moves: the hunters' given
    as action indices, and each live prey's drawn from ``rng`` uniformly over
    the legal moves of its cell.

    Movement conflicts (two agents claiming one cell, or moving onto an
    agent that stays put) are settled by a random priority order drawn
    from ``rng``; losers stay where they are. Captured prey are marked
    dead and stop occupying their cell. The outcome names captured prey by
    index and blocked agents by their index among the step's agents. A
    hunter's action index out of range, or a move off the grid, raises
    ``ValueError`` naming the hunter."""
    grid = state.grid
    moves = grid.moves
    # Agent-index arrays over the agents taking part: the hunters, then
    # the live prey in prey order.
    h0, h1, h2, h3 = state.hunters          # N_HUNTERS == 4
    a0, a1, a2, a3 = hunter_actions
    current = [h0, h1, h2, h3]
    try:                # an index past the row's end raises; a negative one would wrap
        dest = [moves[h0][a0], moves[h1][a1], moves[h2][a2], moves[h3][a3]]
    except IndexError:
        dest = [-1]
    if -1 in dest or a0 < 0 or a1 < 0 or a2 < 0 or a3 < 0:
        for i, action in enumerate(hunter_actions):
            if not 0 <= action < len(ACTIONS):
                raise ValueError(f"hunter {i}: action index {action!r} is out of range "
                                 f"0..{len(ACTIONS) - 1}")
            if moves[current[i]][action] < 0:
                raise ValueError(f"illegal action {ACTION_LABELS[action]} for hunter {i} "
                                 f"at {grid.cells[current[i]]}")

    # Prey draws happen before the priority draw, in prey order, so the
    # rng stream for a step is well defined. Uniform picks are drawn as in below().
    getrandbits = rng.getrandbits
    alive = state.alive
    for j, cell in enumerate(state.prey):
        if alive[j]:
            destinations, m, bits = grid.uniform_moves[cell]
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            current.append(cell)
            dest.append(destinations[r])

    n = len(current)
    order = list(range(n))
    for m, bits in _PRIORITY_DRAWS[n]:  # Random.shuffle's Fisher-Yates walk
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        order[m - 1], order[j] = order[j], order[m - 1]

    if len(set(dest)) == n:
        # Distinct destinations: a stayer's destination is its own cell, so
        # no move can be blocked.
        final = dest
        blocked_moves = []
    else:
        # Same destination: the best-ranked claimant moves, the rest stay.
        heading: dict[int, int] = {}    # destination -> the mover that claimed it
        blocked = [False] * n
        stay_cells = []
        for k in order:
            target, cell = dest[k], current[k]
            if target != cell and target not in heading:
                heading[target] = k
            else:                       # a stayer, or a claim-blocked mover
                blocked[k] = target != cell
                stay_cells.append(cell)
        # A move onto a cell whose occupant ends up staying is blocked, and
        # makes the blocked mover's own cell a stayer's cell in turn. A cell
        # enters the list once, so the order it is worked in changes nothing.
        while stay_cells:
            k = heading.pop(stay_cells.pop(), None)
            if k is not None:
                blocked[k] = True
                stay_cells.append(current[k])
        final = current
        for target, k in heading.items():
            final[k] = target
        blocked_moves = [k for k in order if blocked[k]]

    hunters = final[:N_HUNTERS]
    hunter_cells = set(hunters)
    neighbors = grid.neighbors
    prey = state.prey[:]
    alive = state.alive[:]
    captures = []
    k = N_HUNTERS
    for j in range(N_PREY):
        if alive[j]:
            prey[j] = cell = final[k]
            k += 1
            if hunter_cells.issuperset(neighbors[cell]):
                alive[j] = False
                captures.append(j)
    return StepOutcome(WorldState(grid, hunters, prey, alive, state.step_count + 1),
                       captures, blocked_moves)


def trajectory_rows(state: WorldState,
                    hunter_actions: Sequence[int]) -> list[tuple[int, str, int, int, str]]:
    """The trajectory rows of all live agents at one step: a hunter's with
    the label of its action, a prey's with an empty action."""
    cells = state.grid.cells
    rows = [(state.step_count, HUNTER_IDS[i], *cells[cell], ACTION_LABELS[action])
            for i, (cell, action) in enumerate(zip(state.hunters, hunter_actions))]
    rows.extend((state.step_count, PREY_IDS[j], *cells[cell], "")
                for j, cell in enumerate(state.prey) if state.alive[j])
    return rows


def load_trajectory(path) -> list[tuple[int, str, int, int, str]]:
    """The rows of a trajectory file; a negative step, an agent id not in
    :data:`HUNTER_IDS` or :data:`PREY_IDS`, or an action neither empty nor a
    label, is malformed."""
    def row(step: str, agent: str, x: str, y: str, action: str):
        if int(step) < 0:
            raise ValueError(f"negative step {step}")
        if agent not in HUNTER_IDS + PREY_IDS:
            raise ValueError(f"unknown agent {agent!r}")
        if action and action not in ACTION_LABELS:
            raise ValueError(f"unknown action {action!r}")
        return int(step), agent, int(x), int(y), action
    return load_csv(path, TRAJECTORY_HEADER, row)
