"""The integer-coded grid, upper table and world step against direct geometry.

The references in ``reference.py`` work on positions, named module keys
and agent-id dicts; each property checks that the program's packed form
gives the same result and leaves the rng in the same state.
"""

from __future__ import annotations

import ast
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import (
    ACTION_BY_LABEL,
    ACTION_LABELS,
    ACTIONS,
    CANDIDATE_MODES,
    WorldState,
    grid_for,
    step,
)
from pursuitrl.experiment import ExperimentConfig, TrainingResult, save_learned_tables
from pursuitrl.hmrl import HunterAgent, lower_state_texts, save_upper_banks, select_target
from pursuitrl.knowledge import (Leaf, extract_rules, format_rules, induce_tree, load_instances,
                                 parse_rules)
from pursuitrl.profit_sharing import WeightTable
from reference import (DOWN, LEFT, STAY, UP, ModuleKey, cell_id, cell_ids, load_weights,
                       lower_state, lower_state_ids, module_key, pack, positions, rule_weights,
                       set_q_value, table_rules, upper_table)


def test_actions_and_cells_are_plain_on_every_entry_path(tmp_path):
    # An action is its index as an exact int, and a cell an exact (x, y)
    # tuple, however the program comes by it.
    assert ACTIONS == tuple(range(len(ACTION_LABELS)))
    assert all(type(action) is int for action in ACTIONS)
    assert [ACTION_BY_LABEL[label] for label in ACTION_LABELS] == list(ACTIONS)
    assert all(type(action) is int for action in ACTION_BY_LABEL.values())
    path = tmp_path / "instances.csv"
    path.write_text("theta_x,theta_y,action\n" + "".join(
        f"{x},{y},{ACTION_LABELS[(x * 3 + y) % len(ACTIONS)]}\n"
        for x in range(-3, 4) for y in range(-2, 3)))
    instances = load_instances(path)
    assert {instance.label for instance in instances} == set(ACTIONS)
    assert all(type(instance.label) is int for instance in instances)
    tree = induce_tree(instances, min_leaf=1)
    nodes, leaves = [tree], []
    while nodes:
        node = nodes.pop()
        if isinstance(node, Leaf):
            leaves.append(node)
        else:
            nodes += [node.le_child, node.gt_child]
    assert {leaf.label for leaf in leaves} == set(ACTIONS)
    assert all(type(leaf.label) is int for leaf in leaves)
    rules = parse_rules(format_rules(extract_rules(tree)))
    assert {rule.action for rule in rules} == set(ACTIONS)
    assert all(type(rule.action) is int for rule in rules)
    for side in (3, 7, 12):
        grid = grid_for(side)
        assert all(type(cell) is tuple for cell in grid.cells)
        # every move legal: the row is the ACTIONS object itself
        assert all(legal is ACTIONS for legal in grid.legal if len(legal) == len(ACTIONS))


@pytest.mark.parametrize("side", range(3, 10))
def test_grid_tables_match_geometry(side):
    grid = grid_for(side)
    state_texts = lower_state_texts(grid)
    assert grid_for(side) is grid
    assert grid.size == side * side
    for x in range(side):
        for y in range(side):
            pos = (x, y)
            cell = cell_id(pos, side)
            assert grid.cells[cell] == pos
            assert cell_ids(grid)[repr((x, y))] == cell
            legal = reference.legal_actions(pos, side)
            assert grid.legal[cell] == legal
            assert all(type(a) is int for a in grid.legal[cell])
            assert grid.uniform_moves[cell] == (
                tuple(cell_id(reference.moved(pos, a), side) for a in legal),
                len(legal), len(legal).bit_length())
            for action in ACTIONS:
                dest = reference.moved(pos, action)
                on_grid = 0 <= dest[0] < side and 0 <= dest[1] < side
                assert grid.moves[cell][action] == (cell_id(dest, side) if on_grid else -1)
            assert ([grid.cells[n] for n in grid.neighbors[cell]]
                    == reference.neighbor_cells(pos, side))
            for mode in CANDIDATE_MODES:
                candidates = grid.candidates[mode][cell]
                assert (tuple(grid.cells[c] for c in candidates)
                        == reference.candidate_cells(pos, side, mode))
                assert grid.slots[mode][cell] == tuple(
                    candidates.index(c) if c in candidates else len(candidates)
                    for c in range(grid.size))
            for other in grid.cells:
                other_cell = cell_id(other, side)
                u, v = other
                assert grid.distance[cell][other_cell] == abs(x - u) + abs(y - v)
                offset = grid.offset[cell][other_cell]
                assert grid.offsets[offset] == (u - x, v - y)
                for prey in (0, 1):
                    assert state_texts[offset * 2 + prey] == repr(((u - x, v - y), prey))
                assert lower_state(grid.offsets[offset], 1, side) == offset * 2 + 1
    assert len(grid.offsets) == (2 * side - 1) ** 2
    assert grid.offsets == tuple((dx, dy) for dx in range(1 - side, side)
                                 for dy in range(1 - side, side))


@st.composite
def worlds(draw, sides=st.integers(3, 9)):
    side = draw(sides)
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    cells = draw(st.lists(coords, min_size=6, max_size=6, unique=True))
    alive = draw(st.sampled_from([[True, True], [True, False], [False, True]]))
    return WorldState(grid_for(side), [cell_id(c, side) for c in cells[:4]],
                      [cell_id(c, side) for c in cells[4:]], alive)


def random_rules(world: WorldState, hunter: int, mode: str, seed: int) -> dict:
    """Weights on part of the rules ``hunter`` reads in ``world``, from a
    small value set so that ties occur, plus rules the choice must not
    read: on the prey's cell, and of other modules."""
    rng = Random(seed)
    side = world.grid.side
    rules = {}
    hunters, prey_positions = positions(world)
    own = hunters[hunter]
    # Sparse tables often reach one candidate slot; zero and negative
    # weights let that slot score no better than the slots no rule reaches.
    density = rng.choice((0.03, 0.5))
    for j, goal in enumerate(prey_positions):
        for k, peer in enumerate(hunters):
            if k == hunter:
                continue
            key = ModuleKey(hunter, j, own, peer, goal)
            for cell in reference.candidate_cells(goal, side, mode):
                if rng.random() < density:
                    rules[key, cell] = rng.choice((-1.0, 0.0, 0.25, 1.0, 2.0, 3.5, 7.0))
            if rng.random() < 0.3:
                rules[key, goal] = 9.0      # the prey's own cell is never a candidate
    for _ in range(5):
        cells = [(rng.randrange(side), rng.randrange(side)) for _ in range(4)]
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
    config = ExperimentConfig(reach_discount=reach, candidate_mode=mode)
    side = world.grid.side
    chosen_prey, modules, cell = select_target(upper_table(rules, side), hunter, world,
                                               rng, exploration, config)
    target, prey = reference.select_target(rules, hunter, world, reference_rng,
                                           reach, exploration, mode)
    assert (cell, chosen_prey) == (cell_id(target, side), prey)
    assert rng.getstate() == reference_rng.getstate()
    hunters, prey_positions = positions(world)
    own, goal = hunters[hunter], prey_positions[prey]
    assert modules == tuple(pack(ModuleKey(hunter, prey, own, peer, goal), side)
                            for k, peer in enumerate(hunters) if k != hunter)


@settings(max_examples=300, deadline=None)
@given(world=worlds(sides=st.integers(3, 6)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_step_matches_agent_dict_reference(world, data, seed):
    actions = [data.draw(st.sampled_from(reference.legal_actions(pos, world.grid.side)))
               for pos in positions(world)[0]]
    rng, reference_rng = Random(seed), Random(seed)
    outcome = step(world, actions, rng)
    next_state, captures, blocked = reference.step(world, actions, reference_rng)
    assert outcome.next_state == next_state
    assert outcome.captures == captures
    assert outcome.blocked_moves == blocked
    assert rng.getstate() == reference_rng.getstate()


@st.composite
def worlds_and_hunter_actions(draw):
    """A world and a legal action for each hunter."""
    world = draw(worlds())
    side = world.grid.side
    actions = [draw(st.sampled_from(reference.legal_actions(pos, side)))
               for pos in positions(world)[0]]
    return world, actions


def corner_world(hunters, prey):
    """Side-5 world with hunters and both prey alive at ``(x, y)`` cells."""
    return WorldState(grid_for(5), [cell_id(c, 5) for c in hunters],
                      [cell_id(c, 5) for c in prey], [True, True])


@settings(max_examples=300, deadline=None)
@given(case=worlds_and_hunter_actions(), seed=st.integers(0, 2**32 - 1), drawn=st.none())
# Seed 14 draws STAY for prey 0 at (2, 2) and LEFT for prey 1 at (1, 2).
# Every destination distinct, prey moves included.
@example(case=(corner_world([(0, 0), (0, 4), (4, 0), (4, 4)], [(2, 2), (1, 2)]),
               [DOWN, UP, DOWN, UP]), seed=14, drawn=[STAY, LEFT])
# Hunter destinations distinct, but prey 1 claims hunter 0's destination.
@example(case=(corner_world([(0, 1), (0, 4), (4, 0), (4, 4)], [(2, 2), (1, 2)]),
               [DOWN, UP, DOWN, UP]), seed=14, drawn=[STAY, LEFT])
def test_step_blocks_no_one_when_destinations_are_distinct(case, seed, drawn):
    world, actions = case
    grid = world.grid
    # the prey moves the seed draws; an example names them
    prey_moves = reference.drawn_prey_moves(world, Random(seed))
    assert drawn in (None, prey_moves)
    live = [j for j in range(2) if world.alive[j]]
    cells = [*world.hunters, *(world.prey[j] for j in live)]
    dest = [grid.moves[cell][action]
            for cell, action in zip(cells, [*actions, *(prey_moves[j] for j in live)])]
    rng, reference_rng = Random(seed), Random(seed)
    outcome = step(world, actions, rng)
    if len(set(dest)) == len(dest):
        event("distinct destinations")
        assert outcome.blocked_moves == []
        assert outcome.next_state.hunters == dest[:len(world.hunters)]
        assert ([outcome.next_state.prey[j] for j in live]
                == dest[len(world.hunters):])
    else:
        event("a shared destination")
    assert (outcome.next_state, outcome.captures, outcome.blocked_moves) == \
        reference.step(world, actions, reference_rng)
    assert rng.getstate() == reference_rng.getstate()


weights = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(side=st.integers(3, 9), data=st.data())
def test_packed_tables_survive_save_load(side, data):
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    keys = st.builds(ModuleKey, st.integers(0, 3), st.integers(0, 1), coords, coords, coords)
    rules = data.draw(st.dictionaries(st.tuples(keys, coords), weights, max_size=40))
    config = ExperimentConfig(grid_side=side)
    agents = [HunterAgent(index, config) for index in range(4)]
    for agent in agents:
        agent.upper = upper_table({(key, cell): w for (key, cell), w in rules.items()
                                   if key.hunter == agent.index}, side)
    result = TrainingResult(config=config, records=[], agents=agents,
                            instances=[], trajectory=[])
    with tempfile.TemporaryDirectory() as out:
        save_learned_tables(out, result)
        for agent in agents:
            loaded = {}
            for prey in (0, 1):
                def decode_module(text, prey=prey):
                    key = ModuleKey(*ast.literal_eval(text))
                    assert key.prey == prey and key.hunter == agent.index
                    return pack(key, side)

                bank, _ = load_weights(Path(out) / f"upper_h{agent.index}_p{prey}.tsv",
                                       decode_module,
                                       lambda text: cell_id(ast.literal_eval(text), side))
                loaded.update({(state, target): weight.hex()
                               for state, target, weight in table_rules(bank)})
            assert loaded == {key: weight.hex()
                              for key, weight in rule_weights(agent.upper).items()}


@st.composite
def learned_tables(draw):
    """A grid side, upper rules ``{(ModuleKey, target): weight}`` and Q entries
    ``{((dx, dy), prey, action index): value}`` on it. Half the sides are 11
    or 12, with two-digit coordinates, where the order of the row texts
    differs from the order of the cell ids."""
    side = draw(st.one_of(st.integers(3, 10), st.integers(11, 12)))
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    keys = st.builds(ModuleKey, st.integers(0, 3), st.integers(0, 1), coords, coords, coords)
    signed = st.one_of(st.just(-0.0), weights)
    modules = draw(st.dictionaries(
        keys, st.dictionaries(coords, signed, min_size=1, max_size=3), max_size=30))
    offsets = st.tuples(st.integers(1 - side, side - 1), st.integers(1 - side, side - 1))
    q_entries = draw(st.dictionaries(
        st.tuples(offsets, st.integers(0, 1), st.integers(0, len(ACTIONS) - 1)), signed,
        max_size=12))
    return side, {(key, cell): weight for key, targets in modules.items()
                  for cell, weight in targets.items()}, q_entries


@settings(max_examples=100, deadline=None)
@given(tables=learned_tables())
@example(tables=(11, {(ModuleKey(0, 1, (10, 3), (2, 0), (0, 9)),
                       (9, 9)): -2.5,
                      (ModuleKey(0, 1, (2, 3), (2, 0), (0, 9)),
                       (10, 9)): 1.0,
                      (ModuleKey(0, 1, (2, 3), (2, 0), (0, 9)),
                       (3, 9)): 0.25},
                 {((-10, 2), 0, 1): -0.0, ((-2, 2), 0, 1): 3.0}))
# Side 11, hunters 0 and 1 in both prey banks, their later bank's rules added
# first: own cell (10, 0) is id 110 and (2, 3) is 25, so hunter 0's first bank
# sorts by text against key order; one module holds two rules, of equal weight.
@example(tables=(11, {(ModuleKey(0, 1, (0, 0), (10, 0), (0, 10)),
                       (0, 9)): 2.0,
                      (ModuleKey(0, 1, (0, 0), (10, 0), (0, 10)),
                       (1, 10)): 2.0,
                      (ModuleKey(0, 0, (10, 0), (1, 1), (2, 2)),
                       (10, 10)): 1.5,
                      (ModuleKey(0, 0, (2, 3), (1, 1), (2, 2)),
                       (3, 3)): -0.5,
                      (ModuleKey(1, 1, (9, 10), (10, 9), (5, 5)),
                       (5, 4)): -0.0,
                      (ModuleKey(1, 0, (9, 10), (10, 9), (5, 5)),
                       (4, 5)): 0.25,
                      (ModuleKey(2, 1, (10, 10), (0, 0), (3, 10)),
                       (2, 10)): 1e-300,
                      (ModuleKey(3, 0, (1, 0), (0, 1), (10, 1)),
                       (10, 2)): 7.0},
                 {((-10, 2), 1, 4): 1.0}))
# Side 7, the default grid: hunters 1 and 3 in both prey banks.
@example(tables=(7, {(ModuleKey(1, 0, (6, 6), (0, 0), (3, 3)),
                      (3, 2)): 0.1,
                     (ModuleKey(1, 1, (0, 1), (6, 6), (3, 3)),
                      (2, 3)): 0.1,
                     (ModuleKey(1, 1, (0, 0), (6, 6), (3, 3)),
                      (4, 3)): -3.0,
                     (ModuleKey(3, 0, (5, 5), (1, 2), (0, 0)),
                      (1, 0)): 100.0,
                     (ModuleKey(3, 1, (5, 5), (1, 2), (0, 6)),
                      (0, 5)): 12.5},
                 {((0, 1), 0, 2): 0.5}))
def test_learned_tables_match_reference_writer(tables):
    side, rules, q_entries = tables
    event(f"side {'11-12' if side > 10 else '3-10'}")
    event(f"a module with two or more rules: "
          f"{len(rules) > len({key for key, _ in rules})}")
    event(f"a negative weight: {any(str(w).startswith('-') for w in rules.values())}")
    config = ExperimentConfig(grid_side=side)
    agents = [HunterAgent(index, config) for index in range(4)]
    for agent in agents:
        agent.upper = upper_table({(key, cell): w for (key, cell), w in rules.items()
                                   if key.hunter == agent.index}, side)
        for (offset, prey, action), value in q_entries.items():
            set_q_value(agent.q, lower_state(offset, prey, side), action, value)
    result = TrainingResult(config=config, records=[], agents=agents,
                            instances=[], trajectory=[])
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as expected:
        save_learned_tables(out, result)
        reference.save_learned_tables(expected, result)
        names = sorted(path.name for path in Path(expected).iterdir())
        assert sorted(path.name for path in Path(out).iterdir()) == names
        for name in names:
            assert (Path(out) / name).read_bytes() == (Path(expected) / name).read_bytes(), name


@settings(max_examples=200, deadline=None)
@given(side=st.integers(3, 12), data=st.data())
def test_module_key_reads_module_text(side, data):
    event(f"side {'11-12' if side > 10 else '3-10'}")
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    key = data.draw(st.builds(ModuleKey, st.integers(0, 3), st.integers(0, 1),
                              coords, coords, coords))
    grid = grid_for(side)
    packed = pack(key, side)
    uppers = [WeightTable() for _ in range(4)]
    uppers[key.hunter].add(packed, 0, 1.0)
    with tempfile.TemporaryDirectory() as out:
        save_upper_banks(Path(out), uppers, grid, {})
        header, row = (Path(out) / f"upper_h{key.hunter}_p{key.prey}.tsv").read_text().splitlines()
    assert header == "# default_weight = 0.0"
    text, _, _ = row.split("\t")
    assert text == repr(tuple(tuple(part) if isinstance(part, tuple) else part for part in key))
    assert module_key(grid, text) == packed


@settings(max_examples=200, deadline=None)
@given(side=st.integers(3, 12), data=st.data())
def test_lower_state_text_spells_the_offset_and_prey(side, data):
    offset = data.draw(st.tuples(st.integers(1 - side, side - 1),
                                 st.integers(1 - side, side - 1)))
    prey = data.draw(st.integers(0, 1))
    grid = grid_for(side)
    state = lower_state(offset, prey, side)
    text = lower_state_texts(grid)[state]
    assert text == repr((offset, prey))
    assert lower_state_ids(grid)[text] == state


@pytest.mark.parametrize("text", ["(4, 0, (0, 0), (0, 0), (0, 0))",
                                  "(0, 2, (0, 0), (0, 0), (0, 0))",
                                  "(0, 0, (0, 0), (0, 0))",
                                  "(0, 0, (0, 0), (0, 0), (7, 0))"])
def test_module_key_rejects_a_module_off_the_grid(text):
    with pytest.raises((ValueError, KeyError)):
        module_key(grid_for(7), text)
