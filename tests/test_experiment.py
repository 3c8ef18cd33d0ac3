import re
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitrl.experiment import (
    MAX_GRID_SIDE,
    PREY_KINDS,
    RULE_FALLBACKS,
    ExperimentConfig,
    TrialRecord,
    blocks_for,
    compute_metrics,
    config_to_lines,
    export_report,
    log_instances,
    parse_config,
    read_blocks_csv,
    run_training,
    save_learned_tables,
)
from pursuitrl import env
from pursuitrl.env import ACTIONS, CANDIDATE_MODES, N_HUNTERS, N_PREY, grid_for, new_world
from pursuitrl.hmrl import HunterAgent
from pursuitrl.knowledge import compile_rules, extract_rules, induce_tree, parse_rules
from reference import (cell_ids, load_q_table, load_weights, lower_state_ids, module_key,
                       rule_conditions, rule_matches, rule_weights)

QUICK = ExperimentConfig(trials=5, step_cap=60, block_ends=(3, 5))


def record(trial, outcome, gd=None, steps=10, actions=42):
    return TrialRecord(trial=trial, steps=steps, actions=actions,
                       outcome=outcome, gd_at_capture=gd)


def test_epsilon_schedule_endpoints():
    config = ExperimentConfig(trials=1000, epsilon_start=0.1, epsilon_final=0.01,
                              epsilon_anneal_fraction=0.5)
    assert config.epsilon_at(1) == pytest.approx(0.1, abs=1e-3)
    assert config.epsilon_at(500) == pytest.approx(0.01)
    assert config.epsilon_at(1000) == pytest.approx(0.01)
    assert config.epsilon_at(250) == pytest.approx(0.055)


def test_run_training_respects_step_cap():
    result = run_training(replace(QUICK, trials=1, step_cap=10, seeds=5))
    assert len(result.records) == 1
    assert result.records[0].steps <= 10


def test_run_training_deterministic():
    a = run_training(replace(QUICK, seeds=3))
    b = run_training(replace(QUICK, seeds=3))
    assert a.records == b.records
    assert a.instances == b.instances


def test_instance_window_counts():
    config = replace(QUICK, trials=1, step_cap=10, instance_window=(1, 1))
    result = run_training(replace(config, seeds=5))
    assert len(result.instances) == result.records[0].steps * 4

    empty = run_training(replace(config, instance_window=(2, 1), seeds=5))
    assert empty.instances == []


@pytest.mark.parametrize("window, text", [((), ""), ((5,), "5"), ((1, 2, 3), "1,2,3")])
def test_config_rejects_an_instance_window_that_is_not_two_trials(window, text):
    message = r"^instance_window must be two trial numbers or none, got "
    with pytest.raises(ValueError, match=message + re.escape(repr(window)) + "$"):
        ExperimentConfig(instance_window=window)
    with pytest.raises(ValueError, match=message):
        parse_config(f"instance_window = {text}")
    for bad in ([1, 2], (1.0, 2), (True, 2), 5):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(instance_window=bad)
    # An inverted window stays legal: it logs nothing on purpose.
    assert parse_config("instance_window = 4,2").instance_window == (4, 2)
    assert parse_config("instance_window = none").instance_window is None


def test_run_logs_one_object_per_offset_and_action():
    config = replace(QUICK, trials=20, instance_window=(1, 20))
    n_offsets = len(grid_for(config.grid_side).offsets)
    for rules in (None, parse_rules("No.1\nIf theta_X <= 0 Then left with CF=1.0\n")):
        result = run_training(replace(config, seeds=7), rules=rules)
        distinct = {id(item) for item in result.instances}
        assert len(distinct) <= n_offsets * len(ACTIONS)
        assert len(distinct) < len(result.instances)


def test_step_capped_outcome():
    config = replace(QUICK, trials=3, step_cap=1)
    result = run_training(replace(config, seeds=0))
    assert all(r.outcome == "step_capped" or r.steps <= 1
               for r in result.records)
    assert all(r.steps <= 1 for r in result.records)


@pytest.mark.parametrize("dangerous_reward", [0.0, -1.0])
def test_a_dangerous_capture_settles_the_dangerous_reward(dangerous_reward):
    config = replace(QUICK, trials=3, step_cap=3000, prey_alive=(False, True),
                     dangerous_reward=dangerous_reward)
    result = run_training(replace(config, seeds=1))
    assert all(r.outcome == "dangerous_captured" for r in result.records)
    for agent in result.agents:
        weights = rule_weights(agent.upper).values()
        if dangerous_reward == 0.0:
            assert not weights
        else:
            assert weights and all(weight < 0.0 for weight in weights)


@pytest.mark.parametrize("reward", [5.0, 100.0])
def test_a_positive_capture_settles_the_reward_once(reward):
    config = replace(QUICK, trials=1, step_cap=3000, prey_alive=(True, False), reward=reward)
    result = run_training(replace(config, seeds=1))
    assert [r.outcome for r in result.records] == ["positive_captured"]
    for agent in result.agents:
        weights = rule_weights(agent.upper).values()
        # The newest step's three modules take the whole reward each; with a
        # lone prey the gate stays open, so the shares form a geometric series.
        assert max(weights) >= reward
        assert sum(weights) <= 3 * reward / (1 - config.upper_decay)


@pytest.mark.parametrize("prey_kinds", [("positive", "dangerous"), ("dangerous", "positive"),
                                        ("positive", "positive")], ids="-".join)
def test_a_run_maps_captured_prey_to_outcomes_through_prey_kinds(monkeypatch, prey_kinds):
    """The world reports captured prey by index; a trial's outcome is the
    kind that ``prey_kinds`` gives them, positive if any is positive."""
    last_captures = []
    step = env.step

    def recorded(*args, **kwargs):
        outcome = step(*args, **kwargs)
        last_captures.append(outcome.captures)
        return outcome

    monkeypatch.setattr(env, "step", recorded)
    config = replace(QUICK, trials=12, step_cap=3000, prey_kinds=prey_kinds)
    result = run_training(replace(config, seeds=3))
    ends = [captures for captures in last_captures if captures]
    assert len(ends) == len(result.records)
    for record, captures in zip(result.records, ends):
        kinds = {prey_kinds[j] for j in captures}
        assert record.outcome == ("positive_captured" if "positive" in kinds
                                  else "dangerous_captured")
    assert {j for captures in ends for j in captures} == {0, 1}


def test_a_step_capped_trial_settles_no_reward():
    config = replace(QUICK, step_cap=5, dangerous_reward=-1.0)
    result = run_training(replace(config, seeds=1))
    assert all(r.outcome == "step_capped" for r in result.records)
    assert all(len(agent.upper) == 0 for agent in result.agents)


def test_every_decision_starts_from_the_trials_trace_and_no_pending_move(monkeypatch):
    """A trial starts with empty traces and no move in flight, with no
    per-trial reset: each trial end clears the trace, each step the move."""
    calls = []
    policy_step = HunterAgent.policy_step

    def checked(self, state, rng, exploration):
        assert len(self.trace) == state.step_count
        assert self.pending is None
        calls.append(state.step_count)
        return policy_step(self, state, rng, exploration)

    monkeypatch.setattr(HunterAgent, "policy_step", checked)
    partial_rules = parse_rules("No.1\nIf theta_X <= 0 Then left with CF=1.0\n")
    for config, rules in ((replace(QUICK, step_cap=5), None), (QUICK, None),
                          (replace(QUICK, strict_reset=True), None),
                          (replace(QUICK, rule_fallback="stay"), partial_rules)):
        calls.clear()
        result = run_training(replace(config, seeds=2), rules=rules)
        assert len(calls) == N_HUNTERS * sum(r.steps for r in result.records)


def test_tables_persist_across_trials():
    result = run_training(replace(QUICK, trials=4, seeds=2))
    assert any(len(agent.q.values) > 0 for agent in result.agents)
    strict = run_training(replace(QUICK, trials=4, strict_reset=True, seeds=2))
    # With per-trial resets, only the last trial's lower-layer updates
    # survive, so the tables stay comparatively tiny.
    assert (sum(len(a.q.values) for a in strict.agents)
            <= sum(len(a.q.values) for a in result.agents))


def test_compute_metrics_arithmetic():
    records = (
        [record(t, "positive_captured", gd=5) for t in range(1, 7)]
        + [record(t, "positive_captured", gd=1) for t in range(7, 9)]
        + [record(t, "dangerous_captured", gd=2) for t in range(9, 11)]
    )
    (metrics,) = compute_metrics(records, ExperimentConfig(atf_near=2, block_ends=(10,)))
    assert metrics.safety_target == 0.8
    assert metrics.within_safety == 0.75
    assert metrics.within_dangerous == 0.25
    # positive_ratio is defined as the product, so the three-way identity
    # is exact; 0.6 holds up to float representation of 0.8 * 0.75.
    assert metrics.positive_ratio == metrics.safety_target * metrics.within_safety
    assert metrics.positive_ratio == pytest.approx(0.6, rel=1e-12)
    assert metrics.mean_distance == pytest.approx((5 * 6 + 1 * 2 + 2 * 2) / 10)


def test_compute_metrics_no_positive_captures():
    records = [record(t, "dangerous_captured", gd=3) for t in range(1, 5)]
    (metrics,) = compute_metrics(records, ExperimentConfig(block_ends=(4,)))
    assert metrics.safety_target == 0.0
    assert metrics.within_safety is None
    assert metrics.within_dangerous is None
    assert metrics.positive_ratio == 0.0


def test_compute_metrics_complement_identity():
    records = (
        [record(t, "positive_captured", gd=7) for t in range(1, 4)]
        + [record(t, "positive_captured", gd=0) for t in range(4, 8)]
    )
    (metrics,) = compute_metrics(records, ExperimentConfig(block_ends=(7,)))
    assert metrics.within_safety + metrics.within_dangerous == 1.0


def test_compute_metrics_reads_the_near_band_from_the_config():
    # A positive capture at gap 3 is within safety under the default band
    # (atf_near 2) and within dangerous once atf_near is 3.
    records = [record(1, "positive_captured", gd=3),
               record(2, "positive_captured", gd=4)]
    (default,) = compute_metrics(records, ExperimentConfig(block_ends=(2,)))
    assert (default.within_safety, default.within_dangerous) == (1.0, 0.0)
    (wider,) = compute_metrics(records, ExperimentConfig(atf_near=3, block_ends=(2,)))
    assert (wider.within_safety, wider.within_dangerous) == (0.5, 0.5)
    assert wider.positive_ratio == 0.5


def test_blocks_clip_to_trial_count():
    assert blocks_for(2000, (200, 2000, 17000, 20000)) == [(1, 200), (201, 2000)]
    assert blocks_for(50, (200,)) == [(1, 50)]
    assert blocks_for(250, (200,)) == [(1, 200), (201, 250)]


def test_config_round_trip_and_schema():
    config = ExperimentConfig(trials=123, seeds=4, atf_enabled=False,
                              instance_window=(100, 123), prey_alive=(True, False))
    lines = config_to_lines(config)
    parsed = parse_config("\n".join(lines))
    assert parsed == config
    keys = {line.split(" = ")[0] for line in lines}
    assert keys == {f.name for f in fields(ExperimentConfig)} | {"run_seed"}
    # A value of another type that reads back equal is kept.
    lenient = ExperimentConfig(reward=100, prey_alive=(1, 0))
    assert parse_config("\n".join(config_to_lines(lenient))) == lenient


@pytest.mark.parametrize("name, value", [
    ("grid_side", 7.0), ("trials", True), ("atf_near", 2.5), ("seeds", (1.5,)),
    ("block_ends", [200, 2000]), ("ps_discount", float("nan")),
])
def test_config_rejects_a_value_its_metadata_cannot_read_back(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .* read back as itself, got "):
        ExperimentConfig(**{name: value})


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("not_a_knob = 3")
    with pytest.raises(ValueError):
        parse_config("trials 3")


def test_config_rejects_unknown_rule_fallback():
    with pytest.raises(ValueError, match="rule_fallback"):
        ExperimentConfig(rule_fallback="stey")
    with pytest.raises(ValueError, match="rule_fallback"):
        parse_config("rule_fallback = learnr")
    assert ExperimentConfig(rule_fallback="stay").rule_fallback == "stay"


def test_config_rejects_unknown_candidate_mode():
    with pytest.raises(ValueError, match="candidate_mode"):
        ExperimentConfig(candidate_mode="ring3")
    with pytest.raises(ValueError, match="candidate_mode"):
        parse_config("candidate_mode = everywhere")
    assert ExperimentConfig(candidate_mode="all").candidate_mode == "all"


def test_config_rejects_block_ends_that_do_not_rise():
    with pytest.raises(ValueError, match="block_ends"):
        ExperimentConfig(trials=300, block_ends=(200, 100))
    with pytest.raises(ValueError, match="block_ends"):
        ExperimentConfig(block_ends=(200, 200))
    with pytest.raises(ValueError, match="block_ends"):
        ExperimentConfig(block_ends=(0, 5))
    assert ExperimentConfig(block_ends=(8,)).block_ends == (8,)


@pytest.mark.parametrize("name", ["epsilon_start", "epsilon_final",
                                  "epsilon_anneal_fraction"])
def test_config_rejects_epsilon_outside_unit_interval(name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**{name: 3.0})
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**{name: -0.1})
    assert getattr(ExperimentConfig(**{name: 1.0}), name) == 1.0
    assert getattr(ExperimentConfig(**{name: 0.0}), name) == 0.0


def test_config_rejects_grid_side_below_three():
    with pytest.raises(ValueError, match="grid_side"):
        ExperimentConfig(grid_side=2)
    with pytest.raises(ValueError, match="grid_side"):
        parse_config("grid_side = 2")
    assert ExperimentConfig(grid_side=3).grid_side == 3


def test_config_rejects_grid_side_above_thirty_without_building_a_grid():
    built = grid_for.cache_info()
    assert MAX_GRID_SIDE == 30
    with pytest.raises(ValueError, match=r"grid_side must be <= 30, got 31: .*side\*\*4"):
        ExperimentConfig(grid_side=31)
    with pytest.raises(ValueError, match="grid_side"):
        parse_config("grid_side = 31")
    assert ExperimentConfig(grid_side=30).grid_side == 30
    assert grid_for.cache_info() == built


def test_config_rejects_empty_runs():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="step_cap"):
        ExperimentConfig(step_cap=0)
    assert ExperimentConfig(trials=1, step_cap=1, block_ends=(1,)).trials == 1


@pytest.mark.parametrize("name", ["reward", "dangerous_reward"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_config_rejects_non_finite_reward(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        ExperimentConfig(**{name: float(value)})
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        parse_config(f"{name} = {value}")


@pytest.mark.parametrize("trial", [0, -1, 21])
def test_config_rejects_trajectory_trial_outside_the_run(trial):
    with pytest.raises(ValueError, match=rf"^trajectory_trial must be in 1\.\.20, got {trial}$"):
        ExperimentConfig(trials=20, block_ends=(20,), trajectory_trial=trial)
    with pytest.raises(ValueError, match="trajectory_trial"):
        parse_config(f"trials = 20\ntrajectory_trial = {trial}")
    assert ExperimentConfig(trials=20, trajectory_trial=20).trajectory_trial == 20
    assert ExperimentConfig(trials=20, trajectory_trial=1).trajectory_trial == 1


def test_config_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="seeds"):
        parse_config("seeds = ")


def test_config_rejects_several_seeds_at_build():
    # A run has one seed: a tuple of seeds fails when the config is built,
    # not when the run starts.
    with pytest.raises(ValueError, match=r"^seeds must be .* got \(1, 2\)$"):
        ExperimentConfig(seeds=(1, 2))
    with pytest.raises(ValueError, match="^line 1: seeds: "):
        parse_config("seeds = 1,2")


def test_config_rejects_unknown_prey_kind():
    with pytest.raises(ValueError, match="postive"):
        ExperimentConfig(prey_kinds=("positive", "postive"))
    with pytest.raises(ValueError, match="prey_kinds"):
        parse_config("prey_kinds = positive, dangerous, positive")
    assert ExperimentConfig(prey_kinds=("dangerous", "dangerous")).prey_kinds[1] == "dangerous"


def test_config_rejects_no_live_prey():
    with pytest.raises(ValueError, match="prey_alive"):
        ExperimentConfig(prey_alive=(False, False))
    with pytest.raises(ValueError, match="prey_alive"):
        parse_config("prey_alive = off, off")
    assert ExperimentConfig(prey_alive=(False, True)).prey_alive == (False, True)


@pytest.mark.parametrize("name, message, bad, good", [
    ("alpha", "alpha", (0.0, 1.5, float("nan")), 1.0),
    ("gamma", "gamma", (-0.1, 1.0), 0.0),
    ("upper_decay", "decay", (0.0, -0.5, 1.5, float("nan")), 1.0),
    ("reach_discount", "reach_discount", (0.5, float("nan")), 1.0),
])
def test_config_rejects_learning_parameter_out_of_range(name, message, bad, good):
    for value in bad:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{name: value})
    assert getattr(ExperimentConfig(**{name: good}), name) == good


def test_config_rejects_atf_bands_out_of_order():
    for near, far in ((5, 5), (6, 5), (0, 5), (float("nan"), 5), (2, float("nan"))):
        with pytest.raises(ValueError, match="near < far"):
            ExperimentConfig(atf_near=near, atf_far=far)
    with pytest.raises(ValueError, match="near < far"):
        parse_config("atf_near = 5\natf_far = 2")
    assert ExperimentConfig(atf_near=1, atf_far=2).atf_far == 2


def test_config_rejects_a_reach_discount_whose_powers_overflow():
    # Grid.reach_divisors raises reach_discount to every grid distance, up
    # to 2 * grid_side - 2; past a float, training would crash mid-run.
    for side, good, bad in ((7, 1e25, 1e26), (30, 2e5, 1e6)):
        assert ExperimentConfig(grid_side=side, reach_discount=good).reach_discount == good
        with pytest.raises(ValueError, match=rf"^reach_discount \*\* {2 * side - 2} must fit "):
            ExperimentConfig(grid_side=side, reach_discount=bad)
    with pytest.raises(ValueError, match="reach_discount"):
        parse_config("reach_discount = 1e200")
    assert max(map(max, grid_for(7).reach_divisors(1e25))) == 1e25 ** 12


def test_config_rejects_a_negative_seed():
    # Random seeds from the seed's absolute value: -5 would rerun seed 5.
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -5$"):
        ExperimentConfig(seeds=-5)
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -1$"):
        parse_config("seeds = -1")
    assert ExperimentConfig(seeds=0).seeds == 0


prey_kind_names = st.sampled_from(PREY_KINDS)
unit_floats = st.floats(0.0, 1.0)


@st.composite
def valid_configs(draw):
    """Any config that passes its checks, every field drawn."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    trials = draw(st.integers(1, 10**6))
    near = draw(st.integers(1, 50))
    side = draw(st.integers(3, MAX_GRID_SIDE))
    values = dict(
        trials=trials, step_cap=draw(st.integers(1, 10**6)),
        seeds=draw(st.integers(0, 2**64)),
        atf_enabled=draw(st.booleans()),
        reward=draw(finite), dangerous_reward=draw(finite),
        ps_discount=draw(finite), ps_rule_bound=draw(st.integers(-10, 10)),
        alpha=draw(unit_floats.filter(lambda value: value > 0.0)),
        gamma=draw(unit_floats.filter(lambda value: value < 1.0)),
        epsilon_start=draw(unit_floats), epsilon_final=draw(unit_floats),
        epsilon_anneal_fraction=draw(unit_floats),
        atf_near=near, atf_far=near + draw(st.integers(1, 50)),
        upper_decay=draw(unit_floats.filter(lambda value: value > 0.0)),
        # up to 1e6, held where reach_discount ** (2 * side - 2) stays below 1e300
        reach_discount=draw(st.floats(1.0, min(1e6, 10 ** (300 / (2 * side - 2))))),
        candidate_mode=draw(st.sampled_from(CANDIDATE_MODES)),
        block_ends=tuple(sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=5)))),
        instance_window=draw(st.none() | st.tuples(st.integers(-10**6, 10**6),
                                                   st.integers(-10**6, 10**6))),
        grid_side=side,
        prey_kinds=draw(st.tuples(prey_kind_names, prey_kind_names)),
        prey_alive=draw(st.tuples(st.booleans(), st.booleans()).filter(any)),
        rule_fallback=draw(st.sampled_from(RULE_FALLBACKS)),
        strict_reset=draw(st.booleans()),
        trajectory_trial=draw(st.none() | st.integers(1, trials)),
    )
    assert set(values) == {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**values)


@settings(max_examples=300, deadline=None)
@given(config=valid_configs())
def test_config_lines_parse_back_to_the_config(config):
    assert parse_config("\n".join(config_to_lines(config))) == config


@settings(max_examples=100, deadline=None)
@given(side=st.integers(3, 12),
       prey_kinds=st.tuples(prey_kind_names, prey_kind_names),
       prey_alive=st.tuples(st.booleans(), st.booleans()).filter(any),
       reach_discount=st.floats(1.0, 1e3),
       candidate_mode=st.sampled_from(CANDIDATE_MODES),
       reward=st.floats(-1e6, 1e6),
       alpha=unit_floats.filter(lambda value: value > 0.0),
       gamma=unit_floats.filter(lambda value: value < 1.0),
       near=st.integers(1, 12), spread=st.integers(1, 12),
       decay=unit_floats.filter(lambda value: value > 0.0),
       index=st.integers(0, N_HUNTERS - 1), seed=st.integers(0, 2**64 - 1))
def test_agents_and_worlds_take_the_config_values(side, prey_kinds, prey_alive,
                                                  reach_discount, candidate_mode, reward,
                                                  alpha, gamma, near, spread, decay,
                                                  index, seed):
    config = ExperimentConfig(grid_side=side, prey_kinds=prey_kinds, prey_alive=prey_alive,
                              reach_discount=reach_discount, candidate_mode=candidate_mode,
                              reward=reward, alpha=alpha, gamma=gamma, atf_near=near,
                              atf_far=near + spread, upper_decay=decay)
    agent = HunterAgent(index, config)
    assert agent.index == index
    assert agent.config is config
    assert (agent.q.alpha, agent.q.gamma) == (alpha, gamma)
    assert (config.atf_near, config.atf_far, config.upper_decay) == (near, near + spread, decay)
    assert (config.reach_discount, config.candidate_mode, config.reward) == \
        (reach_discount, candidate_mode, reward)

    world = new_world(seed, config)
    assert world.grid is grid_for(side)
    cells = [*world.hunters, *world.prey]
    assert len(set(cells)) == len(cells) == N_HUNTERS + N_PREY
    assert all(0 <= cell < side * side for cell in cells)
    assert tuple(world.alive) == prey_alive


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ValueError, match=r"line 3: duplicate config key 'trials'.*line 1"):
        parse_config("trials = 7\natf_enabled = off\ntrials = 9\n")


def test_parse_config_ignores_comments_and_blanks():
    parsed = parse_config("# a comment\n\ntrials = 7\natf_enabled = off\n")
    assert parsed.trials == 7
    assert parsed.atf_enabled is False


def test_export_report_round_trip(tmp_path):
    config = replace(QUICK, seeds=1)
    result = run_training(config)
    metrics = compute_metrics(result.records, config)
    export_report(metrics, result.records, tmp_path, config)

    # every float reads back by repr, and an empty cell as None
    assert read_blocks_csv(tmp_path / "blocks.csv") == metrics
    # every trial is step-capped, so the step variance is whole: still a float
    assert all(type(block.steps_var) is float for block in metrics)
    block_lines = (tmp_path / "blocks.csv").read_text().splitlines()
    steps_var = block_lines[0].split(",").index("steps_var")
    assert [line.split(",")[steps_var] for line in block_lines[1:]] == ["0.0", "0.0"]

    meta_text = (tmp_path / "metadata.txt").read_text()
    assert parse_config(meta_text) == config
    assert "run_seed = 1" in meta_text

    trial_lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert trial_lines[0] == "trial,steps,actions,outcome,gd_at_capture"
    # each row is its record's fields as they are, None as an empty cell
    assert trial_lines[1:] == [
        f"{r.trial},{r.steps},{r.actions},{r.outcome},"
        f"{'' if r.gd_at_capture is None else r.gd_at_capture}" for r in result.records]


def test_saved_tables_reload(tmp_path):
    result = run_training(replace(QUICK, trials=6, seeds=9))
    save_learned_tables(tmp_path, result)
    agent = result.agents[0]
    q_loaded, meta = load_q_table(tmp_path / "q_h0.tsv",
                                  lower_state_ids(grid_for(QUICK.grid_side)).__getitem__)
    assert q_loaded.values == agent.q.values
    assert meta["upper_decay"] == QUICK.upper_decay

    grid = grid_for(QUICK.grid_side)
    merged = {}
    for prey in (0, 1):
        bank, _ = load_weights(tmp_path / f"upper_h0_p{prey}.tsv",
                               partial(module_key, grid), cell_ids(grid).__getitem__)
        merged.update(rule_weights(bank))
    assert merged == rule_weights(agent.upper)


def test_rule_eval_stay_fallback_times_out():
    config = replace(QUICK, trials=3, step_cap=30, rule_fallback="stay")
    result = run_training(replace(config, seeds=4), rules=[])
    assert all(r.outcome == "step_capped" for r in result.records)
    assert all(r.steps == 30 for r in result.records)


def test_rule_eval_with_distilled_rules_runs():
    training = run_training(replace(QUICK, trials=10, instance_window=(1, 10), seeds=11))
    tree = induce_tree(training.instances)
    rules = extract_rules(tree)
    assert rules
    evaluation = run_training(replace(QUICK, trials=5, seeds=11), rules=rules)
    assert len(evaluation.records) == 5


def test_rule_eval_single_prey_world_captures():
    rules = parse_rules(
        "No.1\nIf theta_X <= 0 theta_X > -1 theta_Y <= 0 theta_Y > -1 "
        "Then stay with CF=1.0\n"
        "No.2\nIf theta_X <= -1 Then left with CF=0.85\n"
        "No.3\nIf theta_X > 0 Then right with CF=0.85\n"
        "No.4\nIf theta_Y <= -1 Then up with CF=0.84\n"
        "No.5\nIf theta_Y > 0 Then down with CF=0.84\n"
    )
    config = ExperimentConfig(trials=8, step_cap=400, block_ends=(8,),
                              prey_alive=(True, False))
    result = run_training(replace(config, seeds=2), rules=rules)
    captured = [r for r in result.records
                if r.outcome == "positive_captured"]
    assert captured
    assert all(r.gd_at_capture is None for r in result.records)


def test_reports_diffable_across_atf_settings(tmp_path):
    for name, gated in (("on", True), ("off", False)):
        config = replace(QUICK, atf_enabled=gated, seeds=7)
        result = run_training(config)
        metrics = compute_metrics(result.records, config)
        export_report(metrics, result.records, tmp_path / name, config)
    header = lambda p: p.read_text().splitlines()[0]
    assert header(tmp_path / "on" / "blocks.csv") == header(tmp_path / "off" / "blocks.csv")
    assert header(tmp_path / "on" / "trials.csv") == header(tmp_path / "off" / "trials.csv")


def test_trial_records_never_exceed_cap():
    result = run_training(replace(QUICK, trials=8, step_cap=25, seeds=6))
    assert all(r.steps <= 25 for r in result.records)
    assert all(r.actions >= r.steps * 4 for r in result.records)


# Non-default scenarios: other grid sides, one live prey, capped trials.
SCENARIOS = {
    "side5": replace(QUICK, grid_side=5),
    "side9": replace(QUICK, grid_side=9),
    "one_live_prey": replace(QUICK, prey_alive=(False, True)),
    "step_capped": replace(QUICK, step_cap=4),
    "two_positive": replace(QUICK, prey_kinds=("positive", "positive")),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_tables_instances_and_rules(name, tmp_path):
    config = SCENARIOS[name]
    side = config.grid_side
    grid = grid_for(side)
    result = run_training(replace(config, seeds=13))
    if name == "step_capped":
        assert any(r.outcome == "step_capped" for r in result.records)
    if name == "one_live_prey":
        assert all(r.gd_at_capture is None for r in result.records)
    if name == "two_positive":
        outcomes = {r.outcome for r in result.records}
        assert "positive_captured" in outcomes
        assert "dangerous_captured" not in outcomes

    # Q and upper tables survive save/load bit-exactly.
    save_learned_tables(tmp_path, result)
    for agent in result.agents:
        q_loaded, _ = load_q_table(tmp_path / f"q_h{agent.index}.tsv",
                                   lower_state_ids(grid).__getitem__)
        assert agent.q.values
        assert ({key: value.hex() for key, value in q_loaded.values.items()}
                == {key: value.hex() for key, value in agent.q.values.items()})
        upper = {}
        for prey in (0, 1):
            bank, _ = load_weights(tmp_path / f"upper_h{agent.index}_p{prey}.tsv",
                                   partial(module_key, grid), cell_ids(grid).__getitem__)
            upper.update({key: weight.hex() for key, weight in rule_weights(bank).items()})
        assert upper == {key: weight.hex() for key, weight in rule_weights(agent.upper).items()}

    # Every logged offset is one a hunter can have on this grid.
    assert result.instances
    assert all(abs(i.theta_x) <= side - 1 and abs(i.theta_y) <= side - 1
               for i in result.instances)

    # The compiled rules are the first-match scan on every offset of the grid,
    # and drive a rule evaluation on the same scenario.
    rules = extract_rules(induce_tree(result.instances))
    conditions = [rule_conditions(rule) for rule in rules]
    assert compile_rules(rules, grid) == tuple(
        next((rule.action for rule, conds in zip(rules, conditions)
              if rule_matches(conds, x, y)), -1)
        for x, y in grid.offsets)
    evaluation = run_training(replace(config, seeds=13), rules=rules)
    assert len(evaluation.records) == config.trials


def test_inverted_instance_window_logs_nothing(tmp_path):
    result = run_training(replace(QUICK, instance_window=(4, 2), seeds=3))
    assert result.instances == []
    assert log_instances(result, tmp_path / "instances.csv") == 0
    assert (tmp_path / "instances.csv").read_text() == "theta_x,theta_y,action\n"
