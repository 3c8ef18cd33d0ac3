from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitrl.env import (
    ACTIONS,
    N_HUNTERS,
    TRAJECTORY_HEADER,
    WorldState,
    below,
    grid_for,
    load_trajectory,
    new_world,
    step,
    trajectory_rows,
)
from pursuitrl.experiment import ExperimentConfig
from pursuitrl.tableio import save_csv
from reference import DOWN, LEFT, RIGHT, STAY, make_world, neighbor_cells, position, positions


def hunter_positions(out):
    return positions(out.next_state)[0]


CONFIG = ExperimentConfig()


def test_new_world_deterministic():
    assert new_world(42, CONFIG) == new_world(42, CONFIG)


def test_new_world_positions_distinct():
    for seed in range(50):
        world = new_world(seed, CONFIG)
        cells = [*world.hunters, *world.prey]
        assert len(set(cells)) == 6
        assert all(0 <= c < 49 for c in cells)


def test_new_world_grid_too_small():
    # The world takes its side only from a config, which refuses a side below 3.
    with pytest.raises(ValueError, match="grid_side"):
        new_world(0, replace(CONFIG, grid_side=2))


def legal_at(x, y, side=7):
    return set(grid_for(side).legal[x * side + y])


def test_legal_moves_corner():
    assert legal_at(0, 0) == {STAY, DOWN, RIGHT}


def test_legal_moves_interior_and_wall():
    assert legal_at(3, 3) == set(ACTIONS)
    assert legal_at(6, 3) == set(ACTIONS) - {RIGHT}


def test_step_unobstructed_move():
    world = make_world([(0, 0), (5, 5), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [RIGHT, STAY, STAY, STAY], Random(0))
    assert hunter_positions(out)[0] == (1, 0)
    assert out.blocked_moves == []
    assert out.next_state.step_count == 1


def test_step_illegal_action_rejected():
    world = make_world([(0, 0), (5, 5), (5, 6), (6, 5)], [(3, 3), (4, 4)])
    with pytest.raises(ValueError):
        step(world, [LEFT, STAY, STAY, STAY], Random(0))
    # The move and the cell are spelled as the files spell them.
    with pytest.raises(ValueError, match=r"^illegal action left for hunter 0 at \(0, 0\)$"):
        step(world, [4, 0, 0, 0], Random(0))


@pytest.mark.parametrize("index", [-1, -5, 5, 99])
def test_step_rejects_an_action_index_out_of_range(index):
    # An interior hunter: -1 would read the left destination from the row's
    # end, and -5 the stay one.
    world = make_world([(5, 5), (3, 3), (5, 6), (6, 5)], [(0, 0), (1, 1)])
    with pytest.raises(ValueError,
                       match=rf"^hunter 1: action index {index} is out of range 0\.\.4$"):
        step(world, [0, index, 0, 0], Random(0))


def test_step_same_destination_priority_draw():
    # h0 and h1 both claim (1, 0); the winner is whichever comes first in
    # the step's shuffled priority order, so the outcome must be
    # reproducible from the seed alone. Prey are dead so the shuffle is
    # the only rng consumption.
    winners = set()
    for seed in range(30):
        world = make_world([(0, 0), (2, 0), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                           alive=(False, False))
        actions = [RIGHT, LEFT, STAY, STAY]
        out = step(world, actions, Random(seed))
        h0, h1 = hunter_positions(out)[:2]
        assert {h0, h1} in ({(1, 0), (2, 0)}, {(0, 0), (1, 0)})

        expected_order = [0, 1, 2, 3]
        Random(seed).shuffle(expected_order)
        expected_winner = min((0, 1), key=expected_order.index)
        winner = 0 if h0 == (1, 0) else 1
        assert winner == expected_winner
        assert out.blocked_moves == [1 - winner]
        winners.add(winner)
    assert winners == {0, 1}


def test_step_move_onto_stayer_blocked():
    world = make_world([(0, 0), (1, 0), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [RIGHT, STAY, STAY, STAY], Random(0))
    assert hunter_positions(out)[0] == (0, 0)
    assert out.blocked_moves == [0]


def test_step_chain_behind_stayer_blocked():
    # h0 -> h1's cell while h1 -> h2's cell and h2 stays: both movers lose.
    world = make_world([(0, 0), (1, 0), (2, 0), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [RIGHT, RIGHT, STAY, STAY], Random(0))
    assert hunter_positions(out)[:3] == [(0, 0), (1, 0), (2, 0)]
    assert set(out.blocked_moves) == {0, 1}


def test_step_numbers_a_lone_live_prey_right_after_the_hunters():
    # Prey 0 is dead, so prey 1 is the step's only live prey and its agent
    # 4; it draws right onto h0, who stays, and must be reported as 4, its
    # place among the step's agents, not 5.
    world = make_world([(1, 0), (3, 3), (5, 6), (6, 5)], [(4, 4), (0, 0)],
                       alive=(False, True))
    assert Random(5).choice(grid_for(7).legal[0]) == RIGHT
    out = step(world, [STAY] * 4, Random(5))
    assert out.blocked_moves == [N_HUNTERS]
    assert positions(out.next_state)[1][1] == (0, 0)


def test_step_train_of_movers_advances():
    world = make_world([(0, 0), (1, 0), (2, 0), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [RIGHT, RIGHT, RIGHT, STAY], Random(0))
    assert hunter_positions(out)[:3] == [(1, 0), (2, 0), (3, 0)]
    assert out.blocked_moves == []


def test_step_capture_marks_prey_dead():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)],
                       alive=(True, False))
    out = step(world, [STAY] * 4, Random(2))
    assert out.captures == [0]
    assert out.next_state.alive == [False, False]
    assert out.next_state.prey == world.prey


def test_captures_only_previously_alive_prey():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)],
                       alive=(False, False))
    out = step(world, [STAY] * 4, Random(2))
    assert out.captures == []


def still_step(world):
    """Captures of a step in which every hunter stays put. Each prey of these
    worlds is walled in, so every move it draws is blocked, or cannot be
    captured from where it can move."""
    return step(world, [STAY] * 4, Random(0)).captures


def test_is_captured_interior():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)])
    assert still_step(world) == [0]


def test_is_captured_corner_walls_block():
    world = make_world([(1, 0), (0, 1), (5, 5), (6, 6)], [(0, 0), (3, 3)])
    assert still_step(world) == [0]


def test_is_captured_missing_hunter():
    world = make_world([(2, 3), (4, 3), (3, 2), (0, 0)], [(3, 3), (6, 6)])
    assert still_step(world) == []


def test_manhattan_distance_values():
    distance = grid_for(7).distance
    assert distance[0 * 7 + 0][3 * 7 + 4] == 7
    assert distance[2 * 7 + 2][2 * 7 + 2] == 0


def test_manhattan_distance_symmetric():
    rng = Random(7)
    distance = grid_for(7).distance
    for _ in range(200):
        a, b = rng.randrange(49), rng.randrange(49)
        assert distance[a][b] == distance[b][a]


def random_hunter_actions(world, rng):
    legal = world.grid.legal
    return [rng.choice(legal[cell]) for cell in world.hunters]


def test_fuzz_occupancy_and_bounds():
    rng = Random(123)
    world = new_world(9, CONFIG)
    for _ in range(10_000):
        if not any(world.alive):
            world = new_world(rng.getrandbits(32), CONFIG)
        out = step(world, random_hunter_actions(world, rng), rng)
        world = out.next_state
        occupied = [*world.hunters,
                    *(cell for cell, alive in zip(world.prey, world.alive) if alive)]
        assert len(set(occupied)) == len(occupied)
        assert all(0 <= c < 49 for c in occupied)


def test_trajectory_determinism():
    def run(seed):
        rng = Random(seed)
        world = new_world(77, CONFIG)
        states = []
        for _ in range(200):
            world = step(world, random_hunter_actions(world, rng), rng).next_state
            states.append((tuple(world.hunters), tuple(world.prey), tuple(world.alive)))
        return states

    assert run(5) == run(5)


def test_dead_prey_never_moves_or_returns():
    rng = Random(31)
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)])
    out = step(world, [STAY] * 4, rng)
    assert out.captures
    world = out.next_state
    resting = world.prey[0]
    for _ in range(100):
        world = step(world, random_hunter_actions(world, rng), rng).next_state
        assert not world.alive[0]
        assert world.prey[0] == resting


def test_trajectory_csv_round_trip(tmp_path):
    world = new_world(4, CONFIG)
    rows = trajectory_rows(world, [STAY] * 4)
    path = tmp_path / "trajectory.csv"
    save_csv(path, TRAJECTORY_HEADER, rows)
    assert load_trajectory(path) == rows


def test_load_trajectory_names_malformed_row(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text("step,agent,x,y,action\n0,h0,1,2,stay\n1,h0,one,2,stay\n")
    with pytest.raises(ValueError, match=r"trajectory\.csv:3: .*'1,h0,one,2,stay'"):
        load_trajectory(path)


@st.composite
def stepped_worlds(draw):
    """A cell-id world on a side 3-9 grid (dead prey anywhere, even on an
    occupied cell), legal hunter action indices and an rng seed."""
    side = draw(st.integers(3, 9))
    grid = grid_for(side)
    cells = draw(st.lists(st.integers(0, grid.size - 1), min_size=6, max_size=6, unique=True))
    alive = draw(st.lists(st.booleans(), min_size=2, max_size=2))
    prey = [cells[4 + j] if alive[j] else draw(st.integers(0, grid.size - 1)) for j in range(2)]
    world = WorldState(grid, cells[:4], prey, alive)
    actions = [draw(st.sampled_from(grid.legal[cell])) for cell in world.hunters]
    return world, actions, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=stepped_worlds(), dead_cells=st.tuples(st.integers(0, 80), st.integers(0, 80)))
def test_step_invariants(case, dead_cells):
    world, actions, seed = case
    grid = world.grid
    side = grid.side
    rng = Random(seed)
    out = step(world, actions, rng)
    after = out.next_state
    live = [j for j in range(2) if world.alive[j]]
    before_cells = world.hunters + [world.prey[j] for j in live]
    after_cells = after.hunters + [after.prey[j] for j in live]

    # Agents stay on distinct cells and move at most one cell.
    assert len(set(after_cells)) == len(after_cells)
    assert all(grid.distance[a][b] <= 1 for a, b in zip(before_cells, after_cells))
    # Blocked agents are indices into the step's agents (hunters, then the
    # live prey). A blocked agent stays put; an unblocked hunter reaches
    # its destination.
    assert len(set(out.blocked_moves)) == len(out.blocked_moves)
    assert all(0 <= k < len(before_cells) for k in out.blocked_moves)
    for k, (before, now) in enumerate(zip(before_cells, after_cells)):
        if k in out.blocked_moves:
            assert now == before
    for i, (cell, action) in enumerate(zip(world.hunters, actions)):
        if i not in out.blocked_moves:
            assert after.hunters[i] == grid.moves[cell][action]
    # A live prey is captured exactly when every in-bounds neighbour holds a hunter.
    hunters = {position(cell, side) for cell in after.hunters}
    for j in live:
        surrounded = all(n in hunters
                         for n in neighbor_cells(position(after.prey[j], side), side))
        assert (j in out.captures) == surrounded
        assert after.alive[j] is not surrounded

    # Dead prey never move, are never captured and block no one: the step
    # is the same wherever they lie.
    dead = [j for j in range(2) if j not in live]
    for j in dead:
        assert (after.prey[j], after.alive[j]) == (world.prey[j], False)
        assert j not in out.captures
    moved = WorldState(grid, list(world.hunters),
                       [dead_cells[j] % grid.size if j in dead else cell
                        for j, cell in enumerate(world.prey)], list(world.alive))
    moved_rng = Random(seed)
    again = step(moved, actions, moved_rng)
    assert again.next_state.hunters == after.hunters
    assert [again.next_state.prey[j] for j in live] == [after.prey[j] for j in live]
    assert again.blocked_moves == out.blocked_moves
    assert again.captures == out.captures
    assert moved_rng.getstate() == rng.getstate()


def manhattan(a: int, b: int, side: int) -> int:
    (x, y), (u, v) = position(a, side), position(b, side)
    return abs(x - u) + abs(y - v)


@settings(max_examples=300, deadline=None)
@given(case=stepped_worlds())
def test_world_state_carries_its_grid_and_prey_gap(case):
    world, actions, seed = case
    after = step(world, actions, Random(seed)).next_state
    assert after.grid is world.grid
    for state in (world, after):
        first, second = state.prey
        assert state.gap == (manhattan(first, second, state.grid.side)
                             if all(state.alive) else None)


@settings(max_examples=100, deadline=None)
@given(case=stepped_worlds())
def test_derived_world_fields_take_no_part_in_eq_or_repr(case):
    world = case[0]
    twin = WorldState(world.grid, list(world.hunters), list(world.prey), list(world.alive),
                      world.step_count)
    twin.gap = -1
    assert twin == world
    assert repr(twin) == repr(world) == (
        f"WorldState(grid=grid_for({world.grid.side}), hunters={world.hunters!r}, "
        f"prey={world.prey!r}, alive={world.alive!r}, step_count={world.step_count!r})")
    # Slotted: no state object carries a per-instance dict.
    for state in (world, step(world, case[1], Random(case[2]))):
        assert not hasattr(state, "__dict__")


def rng_states():
    """A seeded Random moved on by 0-700 32-bit words of its stream."""
    def advanced(seed, words):
        rng = Random(seed)
        rng.getrandbits(32 * words)
        return rng
    return st.builds(advanced, st.integers(0, 2**64), st.integers(0, 700))


def copy_of(rng):
    copy = Random()
    copy.setstate(rng.getstate())
    return copy


@settings(max_examples=100, deadline=None)
@given(rng=rng_states(), ns=st.lists(st.integers(1, 300), min_size=1, max_size=30))
def test_below_matches_choice(rng, ns):
    stdlib = copy_of(rng)
    for n in ns:
        assert below(rng, n) == stdlib.choice(range(n))
        assert rng.getstate() == stdlib.getstate()


@settings(max_examples=100, deadline=None)
@given(rng=rng_states(), items=st.lists(st.integers(), max_size=8))
def test_fisher_yates_over_below_matches_shuffle(rng, items):
    stdlib = copy_of(rng)
    order, expected = list(items), list(items)
    for i in range(len(order) - 1, 0, -1):
        j = below(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    stdlib.shuffle(expected)
    assert order == expected
    assert rng.getstate() == stdlib.getstate()


@settings(max_examples=300, deadline=None)
@given(case=stepped_worlds())
def test_step_draws_one_prey_move_per_live_prey_then_one_shuffle(case):
    world, actions, seed = case
    live = [j for j in range(2) if world.alive[j]]
    grid = world.grid
    rng = Random(seed)
    replay = copy_of(rng)
    step(world, actions, rng)
    for j in live:
        replay.choice(grid.legal[world.prey[j]])
    replay.shuffle(list(range(len(world.hunters) + len(live))))
    assert rng.getstate() == replay.getstate()
