from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import ACTIONS, Action, Position, PreyKind, grid_for, step
from pursuitrl.hmrl import (
    CREDIT_FLOOR,
    ATFieldParams,
    HunterAgent,
    atf,
    deliver_rewards,
    reinforce_upper,
    select_target,
)
from pursuitrl.profit_sharing import WeightTable
from reference import (
    ModuleKey,
    candidate_cells,
    cell_id,
    lower_state,
    make_world,
    pack,
    position,
    upper_table,
)


def grid_candidates(goal, side, mode):
    grid = grid_for(side)
    return tuple(grid.cells[c] for c in grid.candidates[mode][cell_id(goal, side)])


def test_atf_bands():
    params = ATFieldParams(near_distance=2, far_distance=5)
    assert atf(1, params) == 0.0
    assert atf(2, params) == 0.0            # close boundary inclusive
    assert atf(3, params) == 1.0
    assert atf(5, params) == 1.0
    assert atf(7, params) == 0.9


def test_atf_validates():
    with pytest.raises(ValueError):
        ATFieldParams(near_distance=5, far_distance=2)
    with pytest.raises(ValueError):
        atf(-1, ATFieldParams())


@pytest.mark.parametrize("decay", [0.0, -0.5, 1.5, float("nan")])
def test_atf_params_reject_decay_outside_unit_interval(decay):
    with pytest.raises(ValueError, match="decay"):
        ATFieldParams(decay=decay)
    assert ATFieldParams(decay=1.0).decay == 1.0


def test_candidate_cells_ring():
    cells = grid_candidates(Position(3, 3), 7, "ring2")
    assert len(cells) == 12
    assert all(1 <= abs(c.x - 3) + abs(c.y - 3) <= 2 for c in cells)
    corner = grid_candidates(Position(0, 0), 7, "ring2")
    assert set(corner) == {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_candidate_cells_all_excludes_goal():
    cells = grid_candidates(Position(2, 2), 3, "all")
    assert len(cells) == 8
    assert (2, 2) not in cells


def test_select_target_equal_weights_prefers_nearest():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(True, False))
    weights = WeightTable()
    for cell in candidate_cells(Position(3, 3), 7, "ring2"):
        for peer in (Position(6, 6), Position(6, 0), Position(0, 6)):
            weights.add(pack(ModuleKey(0, 0, Position(0, 0), peer, Position(3, 3)), 7),
                        cell_id(cell, 7), 1.0)
    choice = select_target(weights, 0, world, Random(0), reach_discount=2.0)
    # Nearest candidates to (0,0) around prey (3,3) sit at distance 4.
    target = position(choice.cell, 7)
    assert abs(target.x) + abs(target.y) == 4


def test_select_target_uses_nearer_prey_bank():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (0, 6)])
    choice = select_target(WeightTable(), 0, world, Random(1))
    assert choice.prey == 0

    far_world = make_world([(1, 6), (6, 6), (6, 0), (3, 0)], [(3, 3), (0, 6)])
    choice = select_target(WeightTable(), 0, far_world, Random(1))
    assert choice.prey == 1


def test_select_target_equidistant_prey_random():
    world = make_world([(3, 0), (6, 6), (6, 0), (0, 6)], [(1, 0), (5, 0)])
    picks = {select_target(WeightTable(), 0, world, Random(seed)).prey
             for seed in range(40)}
    assert picks == {0, 1}


def test_select_target_matches_exhaustive_argmax():
    # Hand-set weights on a 3x3 world, unit reach discount: the choice
    # must match a brute-force scan of the scoring rule.
    world = make_world([(0, 0), (2, 2), (2, 0), (0, 2)], [(1, 1), (0, 1)],
                       alive=(True, False), side=3)
    rng = Random(7)
    rules = {}
    goal = Position(1, 1)
    peers = [Position(2, 2), Position(2, 0), Position(0, 2)]
    cells = candidate_cells(goal, 3, "all")
    for cell in cells:
        for peer in peers:
            rules[ModuleKey(0, 0, Position(0, 0), peer, goal), cell] = rng.uniform(0, 5)
    weights = upper_table(rules, 3)

    def brute_force_best():
        scored = {
            cell: sum(
                rules[ModuleKey(0, 0, Position(0, 0), peer, goal), cell]
                for peer in peers)
            for cell in cells
        }
        top = max(scored.values())
        return {cell for cell, s in scored.items() if s == top}

    choice = select_target(weights, 0, world, Random(0), reach_discount=1.0,
                           candidates="all")
    assert position(choice.cell, 3) in brute_force_best()


def test_select_target_scale_invariant_argmax():
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(True, False))
    rng = Random(21)
    rules = {}
    goal = Position(3, 3)
    peers = [Position(6, 6), Position(6, 0), Position(0, 6)]
    cells = candidate_cells(goal, 7, "ring2")
    for cell in cells:
        for peer in peers:
            rules[ModuleKey(0, 0, Position(2, 2), peer, goal), cell] = rng.uniform(0, 3)
    weights = upper_table(rules, 7)
    scaled = upper_table({key: 4.0 * w for key, w in rules.items()}, 7)

    def argmax_set(table):
        def score(cell):
            total = sum(table.get(pack(ModuleKey(0, 0, Position(2, 2), peer, goal), 7),
                                  cell_id(cell, 7))
                        for peer in peers)
            return total / 2.0 ** (abs(2 - cell.x) + abs(2 - cell.y))
        scores = {cell: score(cell) for cell in cells}
        top = max(scores.values())
        return {cell for cell, s in scores.items() if s >= top * (1 - 1e-12)}

    assert argmax_set(weights) == argmax_set(scaled)
    pick = select_target(weights, 0, world, Random(3))
    assert position(pick.cell, 7) in argmax_set(weights)


def test_select_target_requires_alive_prey():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(False, False))
    with pytest.raises(ValueError):
        select_target(WeightTable(), 0, world, Random(0))


def test_select_target_stays_in_candidate_set():
    rng = Random(5)
    for seed in range(30):
        world = make_world([(rng.randrange(7), rng.randrange(7)),
                            (6, 6), (6, 0), (0, 6)], [(3, 4), (1, 1)])
        choice = select_target(WeightTable(), 0, world, Random(seed),
                               exploration=0.5)
        goal = position(world.prey[choice.prey].cell, 7)
        assert position(choice.cell, 7) in candidate_cells(goal, 7, "ring2")


def fired_rule(tag):
    key = ModuleKey(0, 0, Position(tag, 0), Position(6, 6), Position(3, 3))
    return pack(key, 7), cell_id(Position(2, 3), 7)


def upper_trace(distances):
    """One fired rule per step, step ``tag`` at prey distance ``distances[tag]``."""
    trace = []
    for tag, distance in enumerate(distances):
        module, cell = fired_rule(tag)
        trace.append(((module,), cell, distance))
    return trace


def test_reinforce_upper_geometric_recursion():
    weights = WeightTable()
    trace = upper_trace([3, 3, 3])
    reinforce_upper(weights, trace, 100.0, ATFieldParams(decay=0.8))
    assert weights.get(*fired_rule(2)) == 100.0
    assert weights.get(*fired_rule(1)) == pytest.approx(80.0)
    assert weights.get(*fired_rule(0)) == pytest.approx(64.0)
    assert len(trace) == 0


def test_reinforce_upper_gate_zeroes_upstream():
    weights = WeightTable()
    reinforce_upper(weights, upper_trace([3, 3, 1]), 100.0, ATFieldParams())
    assert weights.get(*fired_rule(2)) == 100.0
    assert weights.get(*fired_rule(1)) == 0.0
    assert weights.get(*fired_rule(0)) == 0.0


def test_reinforce_upper_identity_chain():
    weights = WeightTable()
    reinforce_upper(weights, upper_trace([4, 4, 4, 4]), 100.0, ATFieldParams(decay=1.0))
    for tag in range(4):
        assert weights.get(*fired_rule(tag)) == 100.0


def test_reinforce_upper_zero_reward_only_clears():
    weights = WeightTable()
    trace = upper_trace([2])
    reinforce_upper(weights, trace, 0.0, ATFieldParams())
    assert len(weights) == 0
    assert len(trace) == 0


def test_single_prey_reduction_matches_plain_profit_sharing():
    # With the gate forced open the upper update is a pure geometric
    # chain: plain Profit Sharing with the discount 1/decay.
    decay = 0.8
    depth = 6
    upper = WeightTable()
    reinforce_upper(upper, upper_trace([None] * depth), 100.0,
                    ATFieldParams(decay=decay), gated=True)

    plain = reference.profit_sharing([fired_rule(tag) for tag in range(depth)],
                                     100.0, 1 / decay)
    for tag in range(depth):
        rule = fired_rule(tag)
        assert upper.get(*rule) == pytest.approx(plain[rule], rel=1e-12)


class CountingTable(WeightTable):
    """A weight table that records every ``add`` call."""

    def __init__(self):
        super().__init__()
        self.adds = []

    def add(self, state, action, amount):
        self.adds.append((state, action, amount))
        super().add(state, action, amount)


trace_steps = st.tuples(
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple),   # fired modules
    st.integers(0, 3),                                                # commanded cell
    st.none() | st.integers(0, 12),                                   # prey distance
)


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(trace_steps, min_size=1, max_size=60), gated=st.booleans(),
       decay=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       reward=st.floats(min_value=1e-3, max_value=1e3))
@example(trace=[((0,), 0, None)] * 40, gated=False, decay=0.5, reward=1e-3)  # share 20 < floor
@example(trace=[((0, 1), 2, 4)] * 30 + [((3,), 1, 7)], gated=True, decay=0.5, reward=1e-3)
def test_reinforce_upper_closed_form(trace, gated, decay, reward):
    # Step i is credited reward * prod_{j > i} (decay * gate_j), multiplied
    # newest first, until a share falls below the floor.
    params = ATFieldParams(decay=decay)
    expected_adds = []
    share = reward
    for i in range(len(trace) - 1, -1, -1):
        if i < len(trace) - 1:
            later = trace[i + 1][2]
            share *= decay * (atf(later, params) if gated and later is not None else 1.0)
            if abs(share) < CREDIT_FLOOR:
                break
        modules, cell, _ = trace[i]
        expected_adds.extend((module, cell, share) for module in modules)
    expected = {}
    for module, cell, amount in expected_adds:
        expected[module, cell] = expected.get((module, cell), 0.0) + amount

    table = CountingTable()
    steps = list(trace)
    reinforce_upper(table, steps, reward, params, gated=gated)
    assert table.adds == expected_adds
    assert table.weights == expected
    assert steps == []


def trained_agent_world():
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0)
    return agent, world


def test_agent_policy_step_records_and_acts():
    agent, world = trained_agent_world()
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert action in Action
    assert len(agent.trace) == 1
    modules, cell, prey_distance = agent.trace[0]
    assert len(modules) == 3                        # one rule per peer
    assert prey_distance == 4                       # prey at (3,3) and (6,4)
    lower, chosen, target = agent.pending
    assert ACTIONS[chosen] is action
    target = position(target, 7)
    assert lower == lower_state((target.x - 2, target.y - 2), lower % 2, 7)


def test_agent_greedy_walks_trained_corridor():
    agent, world = trained_agent_world()
    # Teach the lower layer that one step east is best from offset (1, 0).
    agent.q.set(lower_state((1, 0), 0, 7), Action.EAST.index, 10.0)
    # Pin the upper layer to command the cell one east of the hunter.
    goal = Position(3, 3)
    target = Position(3, 2)
    for peer in (Position(6, 6), Position(6, 0), Position(0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, Position(2, 2), peer, goal), 7),
                        cell_id(target, 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert position(agent.pending[2], 7) == target
    assert action is Action.EAST


def test_agent_zero_offset_prefers_stay_once_trained():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0)
    agent.q.set(lower_state((0, 0), 0, 7), Action.STAY.index, 10.0)
    goal = Position(3, 3)
    for peer in (Position(6, 6), Position(6, 0), Position(0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, Position(2, 3), peer, goal), 7),
                        cell_id(Position(2, 3), 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert agent.pending[0] == lower_state((0, 0), 0, 7)
    assert action is Action.STAY


def stay_put(agent):
    """Replace the agent's pending move by staying."""
    lower, _, target = agent.pending
    agent.pending = (lower, Action.STAY.index, target)


def test_deliver_rewards_terminal_reach_and_capture():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (0, 0)],
                       alive=(True, True))
    agents = [HunterAgent(i) for i in range(4)]
    rng = Random(0)
    actions = [a.policy_step(world, rng, 0.0) for a in agents]
    # Freeze everyone in place so the capture happens now.
    for agent in agents:
        stay_put(agent)
    outcome = step(world, [Action.STAY] * 4, rng,
                   prey_policy=lambda s, j, legal, r: Action.STAY)
    assert (0, PreyKind.POSITIVE) in outcome.captures
    deliver_rewards(agents, outcome)
    for agent in agents:
        assert len(agent.trace) == 0            # settled and cleared
        assert len(agent.upper) > 0             # positive capture reinforced
        assert len(agent.q.values) == 1         # one lower-layer backup


def test_deliver_rewards_dangerous_capture_no_upper_change():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (0, 0)],
                       kinds=(PreyKind.DANGEROUS, PreyKind.POSITIVE))
    agents = [HunterAgent(i) for i in range(4)]
    rng = Random(0)
    for a in agents:
        a.policy_step(world, rng, 0.0)
        stay_put(a)
    outcome = step(world, [Action.STAY] * 4, rng,
                   prey_policy=lambda s, j, legal, r: Action.STAY)
    assert (0, PreyKind.DANGEROUS) in outcome.captures
    deliver_rewards(agents, outcome)
    for agent in agents:
        assert len(agent.upper) == 0
        assert len(agent.trace) == 0


def test_dead_prey_never_targeted():
    world = make_world([(5, 5), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)],
                       alive=(False, True))
    for seed in range(20):
        choice = select_target(WeightTable(), 0, world, Random(seed),
                               exploration=0.3)
        assert choice.prey == 1
