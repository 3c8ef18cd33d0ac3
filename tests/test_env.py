from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitrl.env import (
    HUNTER_IDS,
    PREY_IDS,
    Action,
    GridConfig,
    PreyKind,
    PreyState,
    WorldState,
    below,
    grid_for,
    load_trajectory,
    new_world,
    save_trajectory,
    step,
    trajectory_rows,
)
from reference import make_world, neighbor_cells, position, positions


def hunter_positions(out):
    return positions(out.next_state)[0]


def test_new_world_deterministic():
    assert new_world(42) == new_world(42)


def test_new_world_positions_distinct():
    for seed in range(50):
        world = new_world(seed)
        cells = [*world.hunters, *(p.cell for p in world.prey)]
        assert len(set(cells)) == 6
        assert all(0 <= c < 49 for c in cells)


def test_new_world_prey_kinds_follow_config():
    config = GridConfig(prey_kinds=(PreyKind.DANGEROUS, PreyKind.POSITIVE))
    world = new_world(3, config)
    assert world.prey[0].kind is PreyKind.DANGEROUS
    assert world.prey[1].kind is PreyKind.POSITIVE


def test_new_world_grid_too_small():
    with pytest.raises(ValueError):
        new_world(0, GridConfig(side=2))


def legal_at(x, y, side=7):
    return set(grid_for(side).legal_actions[x * side + y])


def test_legal_moves_corner():
    assert legal_at(0, 0) == {Action.STAY, Action.SOUTH, Action.EAST}


def test_legal_moves_interior_and_wall():
    assert legal_at(3, 3) == set(Action)
    assert legal_at(6, 3) == set(Action) - {Action.EAST}


def test_step_unobstructed_move():
    world = make_world([(0, 0), (5, 5), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [Action.EAST, Action.STAY, Action.STAY, Action.STAY], Random(0))
    assert hunter_positions(out)[0] == (1, 0)
    assert out.blocked_moves == []
    assert out.next_state.step_count == 1


def test_step_illegal_action_rejected():
    world = make_world([(0, 0), (5, 5), (5, 6), (6, 5)], [(3, 3), (4, 4)])
    with pytest.raises(ValueError):
        step(world, [Action.WEST, Action.STAY, Action.STAY, Action.STAY], Random(0))


def test_step_same_destination_priority_draw():
    # h0 and h1 both claim (1, 0); the winner is whichever comes first in
    # the step's shuffled priority order, so the outcome must be
    # reproducible from the seed alone. Prey are dead so the shuffle is
    # the only rng consumption.
    winners = set()
    for seed in range(30):
        world = make_world([(0, 0), (2, 0), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                           alive=(False, False))
        actions = [Action.EAST, Action.WEST, Action.STAY, Action.STAY]
        out = step(world, actions, Random(seed))
        h0, h1 = hunter_positions(out)[:2]
        assert {h0, h1} in ({(1, 0), (2, 0)}, {(0, 0), (1, 0)})

        expected_order = ["h0", "h1", "h2", "h3"]
        Random(seed).shuffle(expected_order)
        expected_winner = min(("h0", "h1"), key=expected_order.index)
        winner = "h0" if h0 == (1, 0) else "h1"
        assert winner == expected_winner
        assert out.blocked_moves == [("h1" if winner == "h0" else "h0")]
        winners.add(winner)
    assert winners == {"h0", "h1"}


def test_step_move_onto_stayer_blocked():
    world = make_world([(0, 0), (1, 0), (5, 6), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [Action.EAST, Action.STAY, Action.STAY, Action.STAY], Random(0))
    assert hunter_positions(out)[0] == (0, 0)
    assert out.blocked_moves == ["h0"]


def test_step_chain_behind_stayer_blocked():
    # h0 -> h1's cell while h1 -> h2's cell and h2 stays: both movers lose.
    world = make_world([(0, 0), (1, 0), (2, 0), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [Action.EAST, Action.EAST, Action.STAY, Action.STAY], Random(0))
    assert hunter_positions(out)[:3] == [(0, 0), (1, 0), (2, 0)]
    assert set(out.blocked_moves) == {"h0", "h1"}


def test_step_train_of_movers_advances():
    world = make_world([(0, 0), (1, 0), (2, 0), (6, 5)], [(3, 3), (4, 4)],
                       alive=(False, False))
    out = step(world, [Action.EAST, Action.EAST, Action.EAST, Action.STAY], Random(0))
    assert hunter_positions(out)[:3] == [(1, 0), (2, 0), (3, 0)]
    assert out.blocked_moves == []


def test_step_capture_marks_prey_dead():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)],
                       alive=(True, False))
    out = step(world, [Action.STAY] * 4, Random(2),
               prey_policy=lambda state, j, legal, rng: Action.STAY)
    assert out.captures == [(0, PreyKind.POSITIVE)]
    assert not out.next_state.prey[0].alive


def test_captures_only_previously_alive_prey():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)],
                       alive=(False, False))
    out = step(world, [Action.STAY] * 4, Random(2))
    assert out.captures == []


def still_step(world):
    """Captures of a step in which every hunter and prey stays put."""
    return step(world, [Action.STAY] * 4, Random(0),
                prey_policy=lambda state, j, legal, rng: Action.STAY).captures


def test_is_captured_interior():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)])
    assert still_step(world) == [(0, PreyKind.POSITIVE)]


def test_is_captured_corner_walls_block():
    world = make_world([(1, 0), (0, 1), (5, 5), (6, 6)], [(0, 0), (3, 3)])
    assert still_step(world) == [(0, PreyKind.POSITIVE)]


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
    legal = grid_for(world.side).legal_actions
    return [rng.choice(legal[cell]) for cell in world.hunters]


def test_fuzz_occupancy_and_bounds():
    rng = Random(123)
    world = new_world(9)
    for _ in range(10_000):
        if not any(prey.alive for prey in world.prey):
            world = new_world(rng.getrandbits(32))
        out = step(world, random_hunter_actions(world, rng), rng)
        world = out.next_state
        occupied = [*world.hunters,
                    *(p.cell for p in world.prey if p.alive)]
        assert len(set(occupied)) == len(occupied)
        assert all(0 <= c < 49 for c in occupied)


def test_trajectory_determinism():
    def run(seed):
        rng = Random(seed)
        world = new_world(77)
        states = []
        for _ in range(200):
            world = step(world, random_hunter_actions(world, rng), rng).next_state
            states.append((tuple(world.hunters),
                           tuple((p.cell, p.alive) for p in world.prey)))
        return states

    assert run(5) == run(5)


def test_dead_prey_never_moves_or_returns():
    rng = Random(31)
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (6, 6)])
    out = step(world, [Action.STAY] * 4, rng,
               prey_policy=lambda state, j, legal, r: Action.STAY)
    assert out.captures
    world = out.next_state
    resting = world.prey[0].cell
    for _ in range(100):
        world = step(world, random_hunter_actions(world, rng), rng).next_state
        assert not world.prey[0].alive
        assert world.prey[0].cell == resting


def test_trajectory_csv_round_trip(tmp_path):
    world = new_world(4)
    rows = [(*row, "stay") for row in trajectory_rows(world)]
    path = tmp_path / "trajectory.csv"
    save_trajectory(path, rows)
    assert load_trajectory(path) == rows


def test_load_trajectory_names_malformed_row(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text("step,agent,x,y,action\n0,h0,1,2,stay\n1,h0,one,2,stay\n")
    with pytest.raises(ValueError, match=r"trajectory\.csv:3: .*'1,h0,one,2,stay'"):
        load_trajectory(path)


@st.composite
def stepped_worlds(draw):
    """A cell-id world on a side 3-9 grid (dead prey anywhere, even on an
    occupied cell), legal hunter actions and an rng seed."""
    side = draw(st.integers(3, 9))
    grid = grid_for(side)
    cells = draw(st.lists(st.integers(0, grid.size - 1), min_size=6, max_size=6, unique=True))
    alive = draw(st.tuples(st.booleans(), st.booleans()))
    kinds = draw(st.permutations((PreyKind.POSITIVE, PreyKind.DANGEROUS)))
    prey = [PreyState(cells[4 + j] if alive[j] else draw(st.integers(0, grid.size - 1)),
                      alive[j], kinds[j]) for j in range(2)]
    world = WorldState(side, cells[:4], prey)
    actions = [draw(st.sampled_from(grid.legal_actions[cell])) for cell in world.hunters]
    return world, actions, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=stepped_worlds(), dead_cells=st.tuples(st.integers(0, 80), st.integers(0, 80)))
def test_step_invariants(case, dead_cells):
    world, actions, seed = case
    grid = grid_for(world.side)
    rng = Random(seed)
    out = step(world, actions, rng)
    after = out.next_state
    live = [j for j, p in enumerate(world.prey) if p.alive]
    before_cells = world.hunters + [world.prey[j].cell for j in live]
    after_cells = after.hunters + [after.prey[j].cell for j in live]
    ids = [*HUNTER_IDS, *(PREY_IDS[j] for j in live)]

    # Agents stay on distinct cells and move at most one cell.
    assert len(set(after_cells)) == len(after_cells)
    assert all(grid.distance[a][b] <= 1 for a, b in zip(before_cells, after_cells))
    # A blocked agent stays put; an unblocked hunter reaches its destination.
    assert len(set(out.blocked_moves)) == len(out.blocked_moves)
    for agent, before, now in zip(ids, before_cells, after_cells):
        if agent in out.blocked_moves:
            assert now == before
    for i, (cell, action) in enumerate(zip(world.hunters, actions)):
        if HUNTER_IDS[i] not in out.blocked_moves:
            assert after.hunters[i] == grid.moves[cell][action.index]
    # A live prey is captured exactly when every in-bounds neighbour holds a hunter.
    hunters = {position(cell, world.side) for cell in after.hunters}
    for j in live:
        surrounded = all(n in hunters
                         for n in neighbor_cells(position(after.prey[j].cell, world.side),
                                                 world.side))
        assert ((j, world.prey[j].kind) in out.captures) == surrounded
        assert after.prey[j].alive is not surrounded

    # Dead prey never move, are never captured and block no one: the step
    # is the same wherever they lie.
    dead = [j for j in range(2) if j not in live]
    for j in dead:
        assert after.prey[j] == world.prey[j]
        assert PREY_IDS[j] not in out.blocked_moves
        assert all(captured != j for captured, _ in out.captures)
    moved = WorldState(world.side, list(world.hunters),
                       [PreyState(dead_cells[j] % grid.size if j in dead else p.cell,
                                  p.alive, p.kind)
                        for j, p in enumerate(world.prey)])
    moved_rng = Random(seed)
    again = step(moved, actions, moved_rng)
    assert again.next_state.hunters == after.hunters
    assert [p.cell for j, p in enumerate(again.next_state.prey) if j in live] == \
        [after.prey[j].cell for j in live]
    assert again.blocked_moves == out.blocked_moves
    assert again.captures == out.captures
    assert moved_rng.getstate() == rng.getstate()


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
    live = [j for j, p in enumerate(world.prey) if p.alive]
    grid = grid_for(world.side)
    rng = Random(seed)
    replay = copy_of(rng)
    step(world, actions, rng)
    for j in live:
        replay.choice(grid.legal_actions[world.prey[j].cell])
    replay.shuffle(list(range(len(world.hunters) + len(live))))
    assert rng.getstate() == replay.getstate()
