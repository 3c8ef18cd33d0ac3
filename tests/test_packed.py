"""The integer-coded grid, upper table and world step against direct geometry.

The references in ``reference.py`` work on positions, named module keys
and agent-id dicts; each property checks that the program's packed form
gives the same result and leaves the rng in the same state.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import (
    ACTIONS,
    CANDIDATE_MODES,
    Action,
    Position,
    PreyKind,
    PreyState,
    WorldState,
    grid_for,
    step,
)
from pursuitrl.experiment import ExperimentConfig, TrainingResult, build_agents, save_learned_tables
from pursuitrl.hmrl import select_target
from pursuitrl.profit_sharing import load_weights
from reference import ModuleKey, cell_id, lower_state, pack, positions, upper_table


def test_action_index_is_position_in_actions():
    assert [action.index for action in ACTIONS] == list(range(len(ACTIONS)))
    assert all((action.dx, action.dy) == action.value for action in Action)


@pytest.mark.parametrize("side", range(3, 10))
def test_grid_tables_match_geometry(side):
    grid = grid_for(side)
    assert grid_for(side) is grid
    assert grid.size == side * side
    for x in range(side):
        for y in range(side):
            pos = Position(x, y)
            cell = cell_id(pos, side)
            assert grid.cells[cell] == pos
            assert grid.cell_text[cell] == repr((x, y))
            assert grid.legal_actions[cell] == reference.legal_actions(pos, side)
            assert tuple(ACTIONS[a] for a in grid.legal[cell]) == grid.legal_actions[cell]
            for action in ACTIONS:
                dest = (x + action.value[0], y + action.value[1])
                on_grid = 0 <= dest[0] < side and 0 <= dest[1] < side
                assert grid.moves[cell][action.index] == (cell_id(dest, side) if on_grid
                                                          else -1)
            assert ([grid.cells[n] for n in grid.neighbors[cell]]
                    == reference.neighbor_cells(pos, side))
            for mode in CANDIDATE_MODES:
                assert (tuple(grid.cells[c] for c in grid.candidates[mode][cell])
                        == reference.candidate_cells(pos, side, mode))
            for other in grid.cells:
                other_cell = cell_id(other, side)
                assert grid.distance[cell][other_cell] == abs(x - other.x) + abs(y - other.y)
                offset = grid.offset[cell][other_cell]
                assert grid.offsets[offset] == (other.x - x, other.y - y)
                assert grid.offset_text[offset] == repr((other.x - x, other.y - y))
                assert lower_state(grid.offsets[offset], 1, side) == offset * 2 + 1
    assert len(grid.offsets) == (2 * side - 1) ** 2
    assert grid.offsets == tuple((dx, dy) for dx in range(1 - side, side)
                                 for dy in range(1 - side, side))


@st.composite
def worlds(draw, sides=st.integers(3, 9)):
    side = draw(sides)
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    cells = draw(st.lists(coords, min_size=6, max_size=6, unique=True))
    alive = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    kinds = draw(st.sampled_from([(PreyKind.POSITIVE, PreyKind.DANGEROUS),
                                  (PreyKind.DANGEROUS, PreyKind.POSITIVE)]))
    return WorldState(side=side, hunters=[cell_id(c, side) for c in cells[:4]],
                      prey=[PreyState(cell_id(cells[4 + j], side), alive[j], kinds[j])
                            for j in range(2)])


def random_rules(world: WorldState, hunter: int, mode: str, seed: int) -> dict:
    """Weights on part of the rules ``hunter`` reads in ``world``, from a
    small value set so that ties occur, plus rules the choice must not
    read: on the prey's cell, and of other modules."""
    rng = Random(seed)
    side = world.side
    rules = {}
    hunters, prey_positions = positions(world)
    own = hunters[hunter]
    for j, goal in enumerate(prey_positions):
        for k, peer in enumerate(hunters):
            if k == hunter:
                continue
            key = ModuleKey(hunter, j, own, peer, goal)
            for cell in reference.candidate_cells(goal, side, mode):
                if rng.random() < 0.5:
                    rules[key, cell] = rng.choice((0.25, 1.0, 2.0, 3.5, 7.0))
            if rng.random() < 0.3:
                rules[key, goal] = 9.0      # the prey's own cell is never a candidate
    for _ in range(5):
        cells = [Position(rng.randrange(side), rng.randrange(side)) for _ in range(4)]
        rules[ModuleKey(rng.randrange(4), rng.randrange(2), *cells[:3]), cells[3]] = 9.0
    return rules


@settings(max_examples=200, deadline=None)
@given(world=worlds(), hunter=st.integers(0, 3), mode=st.sampled_from(CANDIDATE_MODES),
       reach=st.sampled_from((1.0, 1.5, 2.0)), exploration=st.sampled_from((0.0, 0.3, 1.0)),
       weight_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_select_target_matches_brute_force(world, hunter, mode, reach, exploration,
                                           weight_seed, seed):
    rules = random_rules(world, hunter, mode, weight_seed)
    rng, reference_rng = Random(seed), Random(seed)
    choice = select_target(upper_table(rules, world.side), hunter, world, rng,
                           reach_discount=reach, exploration=exploration, candidates=mode)
    target, prey = reference.select_target(rules, hunter, world, reference_rng,
                                           reach, exploration, mode)
    assert (choice.cell, choice.prey) == (cell_id(target, world.side), prey)
    assert rng.getstate() == reference_rng.getstate()
    hunters, prey_positions = positions(world)
    own, goal = hunters[hunter], prey_positions[prey]
    assert choice.modules == tuple(pack(ModuleKey(hunter, prey, own, peer, goal), world.side)
                                   for k, peer in enumerate(hunters) if k != hunter)


@settings(max_examples=300, deadline=None)
@given(world=worlds(sides=st.integers(3, 6)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_step_matches_agent_dict_reference(world, data, seed):
    actions = [data.draw(st.sampled_from(reference.legal_actions(pos, world.side)))
               for pos in positions(world)[0]]
    rng, reference_rng = Random(seed), Random(seed)
    outcome = step(world, actions, rng)
    next_state, captures, blocked = reference.step(world, actions, reference_rng)
    assert outcome.next_state == next_state
    assert outcome.captures == captures
    assert outcome.blocked_moves == blocked
    assert rng.getstate() == reference_rng.getstate()


weights = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(side=st.integers(3, 9), data=st.data())
def test_packed_tables_survive_save_load(side, data):
    coords = st.builds(Position, st.integers(0, side - 1), st.integers(0, side - 1))
    keys = st.builds(ModuleKey, st.integers(0, 3), st.integers(0, 1), coords, coords, coords)
    rules = data.draw(st.dictionaries(st.tuples(keys, coords), weights, max_size=40))
    config = ExperimentConfig(grid_side=side)
    agents = build_agents(config)
    for agent in agents:
        agent.upper = upper_table({(key, cell): w for (key, cell), w in rules.items()
                                   if key.hunter == agent.index}, side)
    result = TrainingResult(config=config, seed=0, records=[], agents=agents,
                            instances=[], trajectory=[])
    with tempfile.TemporaryDirectory() as out:
        save_learned_tables(out, result)
        for agent in agents:
            loaded = {}
            for prey in (0, 1):
                bank, _ = load_weights(Path(out) / f"upper_h{agent.index}_p{prey}.tsv")
                for (state, target), weight in bank.weights.items():
                    key = ModuleKey(*state)
                    assert key.prey == prey and key.hunter == agent.index
                    loaded[pack(key, side), cell_id(target, side)] = weight
            assert loaded == agent.upper.weights
