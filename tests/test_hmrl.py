from collections import Counter
from random import Random

import pytest

from pursuitrl.env import Action, Position, PreyKind, PreyState, WorldState, grid_for, step
from pursuitrl.hmrl import (
    ATFieldParams,
    HunterAgent,
    UpperTrace,
    atf,
    deliver_rewards,
    reinforce_upper,
    select_target,
)
from pursuitrl.profit_sharing import EpisodeTrace, PSParams, WeightTable, reinforce_episode
from reference import ModuleKey, candidate_cells, cell_id, pack, upper_table


def grid_candidates(goal, side, mode):
    grid = grid_for(side)
    return tuple(grid.cells[c] for c in grid.candidates[mode][grid.cell(goal)])


def make_world(hunters, prey_positions, alive=(True, True),
               kinds=(PreyKind.POSITIVE, PreyKind.DANGEROUS), side=7):
    return WorldState(
        side=side,
        hunters=[Position(*h) for h in hunters],
        prey=[PreyState(Position(*p), a, k)
              for p, a, k in zip(prey_positions, alive, kinds)],
    )


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
    assert abs(choice.target.x) + abs(choice.target.y) == 4


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
    assert choice.target in brute_force_best()


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
    assert pick.target in argmax_set(weights)


def test_select_target_requires_alive_prey():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(False, False))
    with pytest.raises(ValueError):
        select_target(WeightTable(), 0, world, Random(0))


def test_select_target_single_mode_guard():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)])
    with pytest.raises(ValueError):
        select_target(WeightTable(), 0, world, Random(0), mode="single")


def test_select_target_stays_in_candidate_set():
    rng = Random(5)
    for seed in range(30):
        world = make_world([(rng.randrange(7), rng.randrange(7)),
                            (6, 6), (6, 0), (0, 6)], [(3, 4), (1, 1)])
        choice = select_target(WeightTable(), 0, world, Random(seed),
                               exploration=0.5)
        goal = world.prey[choice.prey].position
        assert choice.target in candidate_cells(goal, 7, "ring2")


def fired_step(tag):
    key = ModuleKey(0, 0, Position(tag, 0), Position(6, 6), Position(3, 3))
    return (pack(key, 7),), cell_id(Position(2, 3), 7)


def fired_rule(tag):
    (module,), cell = fired_step(tag)
    return module, cell


def test_reinforce_upper_geometric_recursion():
    weights = WeightTable()
    trace = UpperTrace()
    for tag in range(3):
        trace.record(*fired_step(tag))
    reinforce_upper(weights, trace, 100.0, [3, 3, 3], ATFieldParams(decay=0.8))
    assert weights.get(*fired_rule(2)) == 100.0
    assert weights.get(*fired_rule(1)) == pytest.approx(80.0)
    assert weights.get(*fired_rule(0)) == pytest.approx(64.0)
    assert len(trace) == 0


def test_reinforce_upper_gate_zeroes_upstream():
    weights = WeightTable()
    trace = UpperTrace()
    for tag in range(3):
        trace.record(*fired_step(tag))
    reinforce_upper(weights, trace, 100.0, [3, 3, 1], ATFieldParams())
    assert weights.get(*fired_rule(2)) == 100.0
    assert weights.get(*fired_rule(1)) == 0.0
    assert weights.get(*fired_rule(0)) == 0.0


def test_reinforce_upper_identity_chain():
    weights = WeightTable()
    trace = UpperTrace()
    for tag in range(4):
        trace.record(*fired_step(tag))
    reinforce_upper(weights, trace, 100.0, [4, 4, 4, 4],
                    ATFieldParams(decay=1.0))
    for tag in range(4):
        assert weights.get(*fired_rule(tag)) == 100.0


def test_reinforce_upper_misaligned_lengths():
    trace = UpperTrace()
    trace.record(*fired_step(0))
    with pytest.raises(ValueError):
        reinforce_upper(WeightTable(), trace, 100.0, [3, 3], ATFieldParams())


def test_reinforce_upper_zero_reward_only_clears():
    weights = WeightTable()
    trace = UpperTrace()
    trace.record(*fired_step(0))
    reinforce_upper(weights, trace, 0.0, [2], ATFieldParams())
    assert len(weights) == 0
    assert len(trace) == 0


def test_single_prey_reduction_matches_plain_profit_sharing():
    # With the gate forced open the upper update is a pure geometric
    # chain; dividing by 1/decay reproduces it through the generic
    # profit-sharing learner.
    decay = 0.8
    depth = 6
    upper = WeightTable()
    trace = UpperTrace()
    for tag in range(depth):
        trace.record(*fired_step(tag))
    reinforce_upper(upper, trace, 100.0, [None] * depth,
                    ATFieldParams(decay=decay), gated=True)

    plain = WeightTable()
    episode = EpisodeTrace()
    for tag in range(depth):
        episode.record(*fired_rule(tag))
    reinforce_episode(plain, episode, 100.0,
                      PSParams(discount=1 / decay, rule_bound=0))
    for tag in range(depth):
        rule = fired_rule(tag)
        assert upper.get(*rule) == pytest.approx(plain.get(*rule), rel=1e-12)


def trained_agent_world():
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0)
    return agent, world


def test_agent_policy_step_records_and_acts():
    agent, world = trained_agent_world()
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert action in Action
    assert len(agent.trace) == 1
    modules, cell = agent.trace.entries()[0]
    assert len(modules) == 3                        # one rule per peer
    assert agent.prey_distances[0] == 4             # prey at (3,3) and (6,4)
    rel, chosen, target, prey = agent.pending
    assert rel == (target.x - 2, target.y - 2)


def test_agent_greedy_walks_trained_corridor():
    agent, world = trained_agent_world()
    # Teach the lower layer that one step east is best from offset (1, 0).
    agent.q.values[((1, 0), Action.EAST.index, 0)] = 10.0
    # Pin the upper layer to command the cell one east of the hunter.
    goal = Position(3, 3)
    target = Position(3, 2)
    for peer in (Position(6, 6), Position(6, 0), Position(0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, Position(2, 2), peer, goal), 7),
                        cell_id(target, 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert agent.pending[2] == target
    assert action is Action.EAST


def test_agent_zero_offset_prefers_stay_once_trained():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0)
    agent.q.values[((0, 0), Action.STAY.index, 0)] = 10.0
    goal = Position(3, 3)
    for peer in (Position(6, 6), Position(6, 0), Position(0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, Position(2, 3), peer, goal), 7),
                        cell_id(Position(2, 3), 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert agent.pending[0] == (0, 0)
    assert action is Action.STAY


def test_deliver_rewards_terminal_reach_and_capture():
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (0, 0)],
                       alive=(True, True))
    agents = [HunterAgent(i) for i in range(4)]
    rng = Random(0)
    actions = [a.policy_step(world, rng, 0.0) for a in agents]
    # Freeze everyone in place so the capture happens now.
    for agent in agents:
        rel, _, target, prey = agent.pending
        agent.pending = (rel, Action.STAY, target, prey)
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
        rel, _, target, prey = a.pending
        a.pending = (rel, Action.STAY, target, prey)
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


def test_trace_cap_keeps_distances_aligned():
    agent = HunterAgent(0, trace_cap=3)
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    rng = Random(0)
    for _ in range(10):
        agent.policy_step(world, rng, 0.0)
        agent.pending = None
    assert len(agent.trace) == 3
    assert len(agent.prey_distances) == 3
    agent.finish_trial(100.0, gated=True)       # alignment check must pass
    assert len(agent.trace) == 0
