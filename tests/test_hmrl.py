from dataclasses import replace
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from pursuitrl.env import grid_for, step
from pursuitrl.experiment import ExperimentConfig
from pursuitrl.hmrl import (
    CREDIT_FLOOR,
    HunterAgent,
    atf,
    deliver_rewards,
    reinforce_upper,
    select_target,
)
from pursuitrl.profit_sharing import WeightTable
from reference import (
    RIGHT,
    STAY,
    ModuleKey,
    candidate_cells,
    cell_id,
    lower_state,
    make_world,
    pack,
    position,
    set_q_value,
    upper_table,
)


CONFIG = ExperimentConfig()


def grid_candidates(goal, side, mode):
    grid = grid_for(side)
    return tuple(grid.cells[c] for c in grid.candidates[mode][cell_id(goal, side)])


def test_atf_bands():
    config = ExperimentConfig(atf_near=2, atf_far=5)
    assert atf(1, config) == 0.0
    assert atf(2, config) == 0.0            # close boundary inclusive
    assert atf(3, config) == 1.0
    assert atf(5, config) == 1.0
    assert atf(7, config) == 0.9


def test_atf_validates():
    with pytest.raises(ValueError):
        ExperimentConfig(atf_near=5, atf_far=2)
    with pytest.raises(ValueError):
        atf(-1, CONFIG)


@pytest.mark.parametrize("decay", [0.0, -0.5, 1.5, float("nan")])
def test_atf_params_reject_decay_outside_unit_interval(decay):
    with pytest.raises(ValueError, match="decay"):
        ExperimentConfig(upper_decay=decay)
    assert ExperimentConfig(upper_decay=1.0).upper_decay == 1.0


def test_candidate_cells_ring():
    cells = grid_candidates((3, 3), 7, "ring2")
    assert len(cells) == 12
    assert all(1 <= abs(x - 3) + abs(y - 3) <= 2 for x, y in cells)
    corner = grid_candidates((0, 0), 7, "ring2")
    assert set(corner) == {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_candidate_cells_all_excludes_goal():
    cells = grid_candidates((2, 2), 3, "all")
    assert len(cells) == 8
    assert (2, 2) not in cells


def test_select_target_equal_weights_prefers_nearest():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(True, False))
    weights = WeightTable()
    for cell in candidate_cells((3, 3), 7, "ring2"):
        for peer in ((6, 6), (6, 0), (0, 6)):
            weights.add(pack(ModuleKey(0, 0, (0, 0), peer, (3, 3)), 7),
                        cell_id(cell, 7), 1.0)
    _, _, cell = select_target(weights, 0, world, Random(0), 0.0,
                               replace(CONFIG, reach_discount=2.0))
    # Nearest candidates to (0,0) around prey (3,3) sit at distance 4.
    x, y = position(cell, 7)
    assert abs(x) + abs(y) == 4


def test_select_target_uses_nearer_prey_bank():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (0, 6)])
    prey, _, _ = select_target(WeightTable(), 0, world, Random(1), 0.0, CONFIG)
    assert prey == 0

    far_world = make_world([(1, 6), (6, 6), (6, 0), (3, 0)], [(3, 3), (0, 6)])
    prey, _, _ = select_target(WeightTable(), 0, far_world, Random(1), 0.0, CONFIG)
    assert prey == 1


def test_select_target_equidistant_prey_random():
    world = make_world([(3, 0), (6, 6), (6, 0), (0, 6)], [(1, 0), (5, 0)])
    picks = {select_target(WeightTable(), 0, world, Random(seed), 0.0, CONFIG)[0]
             for seed in range(40)}
    assert picks == {0, 1}


def test_select_target_matches_exhaustive_argmax():
    # Hand-set weights on a 3x3 world, unit reach discount: the choice
    # must match a brute-force scan of the scoring rule.
    world = make_world([(0, 0), (2, 2), (2, 0), (0, 2)], [(1, 1), (0, 1)],
                       alive=(True, False), side=3)
    rng = Random(7)
    rules = {}
    goal = (1, 1)
    peers = [(2, 2), (2, 0), (0, 2)]
    cells = candidate_cells(goal, 3, "all")
    for cell in cells:
        for peer in peers:
            rules[ModuleKey(0, 0, (0, 0), peer, goal), cell] = rng.uniform(0, 5)
    weights = upper_table(rules, 3)

    def brute_force_best():
        scored = {
            cell: sum(
                rules[ModuleKey(0, 0, (0, 0), peer, goal), cell]
                for peer in peers)
            for cell in cells
        }
        top = max(scored.values())
        return {cell for cell, s in scored.items() if s == top}

    _, _, cell = select_target(weights, 0, world, Random(0), 0.0,
                               replace(CONFIG, reach_discount=1.0, candidate_mode="all"))
    assert position(cell, 3) in brute_force_best()


def test_select_target_scale_invariant_argmax():
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(True, False))
    rng = Random(21)
    rules = {}
    goal = (3, 3)
    peers = [(6, 6), (6, 0), (0, 6)]
    cells = candidate_cells(goal, 7, "ring2")
    for cell in cells:
        for peer in peers:
            rules[ModuleKey(0, 0, (2, 2), peer, goal), cell] = rng.uniform(0, 3)
    weights = upper_table(rules, 7)
    scaled = upper_table({key: 4.0 * w for key, w in rules.items()}, 7)

    def argmax_set(table):
        def score(cell):
            total = sum(reference.rule_weight(
                table, pack(ModuleKey(0, 0, (2, 2), peer, goal), 7), cell_id(cell, 7))
                        for peer in peers)
            x, y = cell
            return total / 2.0 ** (abs(2 - x) + abs(2 - y))
        scores = {cell: score(cell) for cell in cells}
        top = max(scores.values())
        return {cell for cell, s in scores.items() if s >= top * (1 - 1e-12)}

    assert argmax_set(weights) == argmax_set(scaled)
    _, _, pick = select_target(weights, 0, world, Random(3), 0.0, CONFIG)
    assert position(pick, 7) in argmax_set(weights)


def test_select_target_sums_a_cells_peer_weights_in_peer_order():
    # Hunter 0 at (0,3) chases prey (3,3) with no draw. Ring2 cells A and B
    # both lie 3 steps away, so their sums decide: in peer order A sums
    # (0.1 + 0.2) + 0.3 == 0.6000000000000001 > 0.6, B's one weight; summed
    # in any other peer order A would tie B at 0.6 and draw.
    world = make_world([(0, 3), (6, 0), (6, 1), (5, 0)], [(3, 3), (6, 6)])
    a, b = cell_id((2, 2), 7), cell_id((2, 4), 7)
    assert {a, b} <= set(world.grid.candidates["ring2"][cell_id((3, 3), 7)])
    _, modules, _ = select_target(WeightTable(), 0, world, Random(0), 0.0, CONFIG)
    weights = WeightTable()
    for module, weight in zip(modules, (0.1, 0.2, 0.3)):
        weights.add(module, a, weight)
    weights.add(modules[0], b, 0.6)
    rng = Random(0)
    state = rng.getstate()
    assert select_target(weights, 0, world, rng, 0.0, CONFIG) == (0, modules, a)
    assert rng.getstate() == state


def test_select_target_requires_alive_prey():
    world = make_world([(0, 0), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 3)],
                       alive=(False, False))
    with pytest.raises(ValueError):
        select_target(WeightTable(), 0, world, Random(0), 0.0, CONFIG)


def test_select_target_stays_in_candidate_set():
    rng = Random(5)
    for seed in range(30):
        world = make_world([(rng.randrange(7), rng.randrange(7)),
                            (6, 6), (6, 0), (0, 6)], [(3, 4), (1, 1)])
        prey, _, cell = select_target(WeightTable(), 0, world, Random(seed), 0.5, CONFIG)
        goal = position(world.prey[prey], 7)
        assert position(cell, 7) in candidate_cells(goal, 7, "ring2")


def fired_rule(tag):
    key = ModuleKey(0, 0, (tag, 0), (6, 6), (3, 3))
    return pack(key, 7), cell_id((2, 3), 7)


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
    reinforce_upper(weights, trace, 100.0, replace(CONFIG, upper_decay=0.8))
    assert reference.rule_weight(weights, *fired_rule(2)) == 100.0
    assert reference.rule_weight(weights, *fired_rule(1)) == pytest.approx(80.0)
    assert reference.rule_weight(weights, *fired_rule(0)) == pytest.approx(64.0)
    assert len(trace) == 0


def test_reinforce_upper_gate_zeroes_upstream():
    weights = WeightTable()
    reinforce_upper(weights, upper_trace([3, 3, 1]), 100.0, CONFIG)
    assert reference.rule_weight(weights, *fired_rule(2)) == 100.0
    assert reference.rule_weight(weights, *fired_rule(1)) == 0.0
    assert reference.rule_weight(weights, *fired_rule(0)) == 0.0


def test_reinforce_upper_identity_chain():
    weights = WeightTable()
    reinforce_upper(weights, upper_trace([4, 4, 4, 4]), 100.0,
                    replace(CONFIG, upper_decay=1.0))
    for tag in range(4):
        assert reference.rule_weight(weights, *fired_rule(tag)) == 100.0


def test_reinforce_upper_zero_reward_only_clears():
    weights = WeightTable()
    trace = upper_trace([2])
    reinforce_upper(weights, trace, 0.0, CONFIG)
    assert len(weights) == 0
    assert len(trace) == 0


def test_single_prey_reduction_matches_plain_profit_sharing():
    # With the gate forced open the upper update is a pure geometric
    # chain: plain Profit Sharing with the discount 1/decay.
    decay = 0.8
    depth = 6
    upper = WeightTable()
    reinforce_upper(upper, upper_trace([None] * depth), 100.0,
                    replace(CONFIG, upper_decay=decay, atf_enabled=True))

    plain = reference.profit_sharing([fired_rule(tag) for tag in range(depth)],
                                     100.0, 1 / decay)
    for tag in range(depth):
        rule = fired_rule(tag)
        assert reference.rule_weight(upper, *rule) == pytest.approx(plain[rule], rel=1e-12)


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
    config = replace(CONFIG, upper_decay=decay, atf_enabled=gated)
    expected_adds = []
    share = reward
    for i in range(len(trace) - 1, -1, -1):
        if i < len(trace) - 1:
            later = trace[i + 1][2]
            share *= decay * (atf(later, config) if gated and later is not None else 1.0)
            if abs(share) < CREDIT_FLOOR:
                break
        modules, cell, _ = trace[i]
        expected_adds.extend((module, cell, share) for module in modules)
    expected = {}
    for module, cell, amount in expected_adds:
        expected[module, cell] = expected.get((module, cell), 0.0) + amount

    table = CountingTable()
    steps = list(trace)
    reinforce_upper(table, steps, reward, config)
    assert table.adds == expected_adds
    assert reference.rule_weights(table) == expected
    assert steps == []


def trained_agent_world():
    world = make_world([(2, 2), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0, CONFIG)
    return agent, world


# An agent takes its values only from a config, so a bad value is refused on
# the way to the agent, before `HunterAgent` runs.
@pytest.mark.parametrize("reach_discount", [0.5, float("nan")])
def test_agent_rejects_reach_discount_below_one(reach_discount):
    with pytest.raises(ValueError, match="reach_discount"):
        HunterAgent(0, replace(CONFIG, reach_discount=reach_discount))


def test_agent_rejects_unknown_candidate_mode():
    with pytest.raises(ValueError, match="ring3"):
        HunterAgent(0, replace(CONFIG, candidate_mode="ring3"))


@pytest.mark.parametrize("goal_reward", [float("nan"), float("inf"), float("-inf")])
def test_agent_rejects_non_finite_goal_reward(goal_reward):
    with pytest.raises(ValueError, match="reward must be finite"):
        HunterAgent(0, replace(CONFIG, reward=goal_reward))


def test_select_target_rejects_unknown_candidate_mode():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    with pytest.raises(ValueError, match=r"^candidate_mode must be one of \('ring2', 'all'\), "
                                         r"got 'ring3'$"):
        select_target(WeightTable(), 0, world, Random(0), 0.0,
                      replace(CONFIG, candidate_mode="ring3"))


def test_agent_policy_step_records_and_acts():
    agent, world = trained_agent_world()
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert type(action) is int
    assert action in world.grid.legal[world.hunters[0]]
    assert len(agent.trace) == 1
    modules, cell, prey_distance = agent.trace[0]
    assert len(modules) == 3                        # one rule per peer
    assert prey_distance == 4                       # prey at (3,3) and (6,4)
    lower, chosen, target = agent.pending
    assert chosen == action
    x, y = position(target, 7)
    assert lower == lower_state((x - 2, y - 2), lower % 2, 7)


def test_agent_greedy_walks_trained_corridor():
    agent, world = trained_agent_world()
    # Teach the lower layer that one step east is best from offset (1, 0).
    set_q_value(agent.q, lower_state((1, 0), 0, 7), RIGHT, 10.0)
    # Pin the upper layer to command the cell one east of the hunter.
    goal = (3, 3)
    target = (3, 2)
    for peer in ((6, 6), (6, 0), (0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, (2, 2), peer, goal), 7),
                        cell_id(target, 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert position(agent.pending[2], 7) == target
    assert type(action) is int and action == RIGHT


def test_agent_zero_offset_prefers_stay_once_trained():
    world = make_world([(2, 3), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)])
    agent = HunterAgent(0, CONFIG)
    set_q_value(agent.q, lower_state((0, 0), 0, 7), STAY, 10.0)
    goal = (3, 3)
    for peer in ((6, 6), (6, 0), (0, 6)):
        agent.upper.add(pack(ModuleKey(0, 0, (2, 3), peer, goal), 7),
                        cell_id((2, 3), 7), 50.0)
    action = agent.policy_step(world, Random(0), exploration=0.0)
    assert agent.pending[0] == lower_state((0, 0), 0, 7)
    assert type(action) is int and action == STAY


def stay_put(agent):
    """Replace the agent's pending move by staying."""
    lower, _, target = agent.pending
    agent.pending = (lower, STAY, target)


def captured_step(config):
    """Hunters around prey 0 decide a move, then stay put: prey 0 is
    captured on this first step. Returns the agents, each one's trace
    after deciding, and the step's outcome."""
    world = make_world([(2, 3), (4, 3), (3, 2), (3, 4)], [(3, 3), (0, 0)])
    agents = [HunterAgent(i, config) for i in range(4)]
    rng = Random(0)
    for agent in agents:
        agent.policy_step(world, rng, 0.0)
        stay_put(agent)
    traces = [list(agent.trace) for agent in agents]
    outcome = step(world, [STAY] * 4, rng)
    assert 0 in outcome.captures
    return agents, traces, outcome


def assert_lower_layer_only(agents, traces):
    for agent, trace in zip(agents, traces):
        assert len(agent.q.values) == 1         # one lower-layer backup
        assert len(agent.upper) == 0            # the upper layer waits for the trial's end
        assert len(trace) == 1 and agent.trace == trace
        assert agent.pending is None


def test_deliver_rewards_terminal_reach_and_capture():
    agents, traces, outcome = captured_step(CONFIG)
    assert len(deliver_rewards(agents, outcome)) == 4
    assert_lower_layer_only(agents, traces)


def test_deliver_rewards_dangerous_capture_no_upper_change():
    agents, traces, outcome = captured_step(
        replace(CONFIG, dangerous_reward=-1.0, prey_kinds=("dangerous", "positive")))
    deliver_rewards(agents, outcome)
    assert_lower_layer_only(agents, traces)


@pytest.mark.parametrize("reward", [100.0, 5.0])
def test_deliver_rewards_leaves_the_agents_reward_to_the_trial_end(reward):
    agents, traces, outcome = captured_step(replace(CONFIG, reward=reward))
    deliver_rewards(agents, outcome)
    assert_lower_layer_only(agents, traces)
    for agent in agents:
        reinforce_upper(agent.upper, agent.trace, agent.config.reward, agent.config)
        # one traced step: the newest step takes the whole reward
        weights = reference.rule_weights(agent.upper)
        assert weights and set(weights.values()) == {reward}
        assert agent.trace == []


def test_dead_prey_never_targeted():
    world = make_world([(5, 5), (6, 6), (6, 0), (0, 6)], [(3, 3), (6, 4)],
                       alive=(False, True))
    for seed in range(20):
        prey, _, _ = select_target(WeightTable(), 0, world, Random(seed), 0.3, CONFIG)
        assert prey == 1
