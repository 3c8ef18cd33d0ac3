from dataclasses import fields, replace

import pytest

from pursuitrl.experiment import (
    BLOCK_COLUMNS,
    ExperimentConfig,
    TrialOutcome,
    TrialRecord,
    blocks_for,
    compute_metrics,
    config_to_lines,
    export_report,
    parse_config,
    read_blocks_csv,
    run_training,
    save_learned_tables,
)
from pursuitrl.env import grid_for
from pursuitrl.hmrl import lower_state_ids
from pursuitrl.knowledge import compile_rules, extract_rules, induce_tree, parse_rules
from pursuitrl.profit_sharing import load_weights
from pursuitrl.q_learning import load_q_table
from reference import ModuleKey, cell_id, pack, rule_matches

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
    result = run_training(replace(QUICK, trials=1, step_cap=10), seed=5)
    assert len(result.records) == 1
    assert result.records[0].steps <= 10


def test_run_training_deterministic():
    a = run_training(QUICK, seed=3)
    b = run_training(QUICK, seed=3)
    assert a.records == b.records
    assert a.instances == b.instances


def test_instance_window_counts():
    config = replace(QUICK, trials=1, step_cap=10, instance_window=(1, 1))
    result = run_training(config, seed=5)
    assert len(result.instances) == result.records[0].steps * 4

    empty = run_training(replace(config, instance_window=(2, 1)), seed=5)
    assert empty.instances == []


def test_step_capped_outcome():
    config = replace(QUICK, trials=3, step_cap=1)
    result = run_training(config, seed=0)
    assert all(r.outcome is TrialOutcome.STEP_CAPPED or r.steps <= 1
               for r in result.records)
    assert all(r.steps <= 1 for r in result.records)


def test_tables_persist_across_trials():
    result = run_training(replace(QUICK, trials=4), seed=2)
    assert any(len(agent.q.values) > 0 for agent in result.agents)
    strict = run_training(replace(QUICK, trials=4, strict_reset=True), seed=2)
    # With per-trial resets, only the last trial's lower-layer updates
    # survive, so the tables stay comparatively tiny.
    assert (sum(len(a.q.values) for a in strict.agents)
            <= sum(len(a.q.values) for a in result.agents))


def test_compute_metrics_arithmetic():
    records = (
        [record(t, TrialOutcome.POSITIVE_CAPTURED, gd=5) for t in range(1, 7)]
        + [record(t, TrialOutcome.POSITIVE_CAPTURED, gd=1) for t in range(7, 9)]
        + [record(t, TrialOutcome.DANGEROUS_CAPTURED, gd=2) for t in range(9, 11)]
    )
    (metrics,) = compute_metrics(records, near_distance=2, block_ends=(10,))
    assert metrics.safety_target == 0.8
    assert metrics.within_safety == 0.75
    assert metrics.within_dangerous == 0.25
    # positive_ratio is defined as the product, so the three-way identity
    # is exact; 0.6 holds up to float representation of 0.8 * 0.75.
    assert metrics.positive_ratio == metrics.safety_target * metrics.within_safety
    assert metrics.positive_ratio == pytest.approx(0.6, rel=1e-12)
    assert metrics.mean_distance == pytest.approx((5 * 6 + 1 * 2 + 2 * 2) / 10)


def test_compute_metrics_no_positive_captures():
    records = [record(t, TrialOutcome.DANGEROUS_CAPTURED, gd=3) for t in range(1, 5)]
    (metrics,) = compute_metrics(records, block_ends=(4,))
    assert metrics.safety_target == 0.0
    assert metrics.within_safety is None
    assert metrics.within_dangerous is None
    assert metrics.positive_ratio == 0.0


def test_compute_metrics_complement_identity():
    records = (
        [record(t, TrialOutcome.POSITIVE_CAPTURED, gd=7) for t in range(1, 4)]
        + [record(t, TrialOutcome.POSITIVE_CAPTURED, gd=0) for t in range(4, 8)]
    )
    (metrics,) = compute_metrics(records, block_ends=(7,))
    assert metrics.within_safety + metrics.within_dangerous == 1.0


def test_blocks_clip_to_trial_count():
    assert blocks_for(2000, (200, 2000, 17000, 20000)) == [(1, 200), (201, 2000)]
    assert blocks_for(50, (200,)) == [(1, 50)]
    assert blocks_for(250, (200,)) == [(1, 200), (201, 250)]


def test_config_round_trip_and_schema():
    config = ExperimentConfig(trials=123, seeds=(4, 5), atf_enabled=False,
                              instance_window=(100, 123), prey_alive=(True, False))
    lines = config_to_lines(config, seed=4)
    parsed = parse_config("\n".join(lines))
    assert parsed == config
    keys = {line.split(" = ")[0] for line in lines}
    assert keys == {f.name for f in fields(ExperimentConfig)} | {"run_seed"}


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


def test_config_rejects_empty_runs():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="step_cap"):
        ExperimentConfig(step_cap=0)
    assert ExperimentConfig(trials=1, step_cap=1, block_ends=(1,)).trials == 1


def test_config_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="seeds"):
        parse_config("seeds = ")


def test_run_training_rejects_several_seeds_without_an_explicit_one():
    config = replace(QUICK, trials=1, step_cap=5, block_ends=(1,), seeds=(1, 2))
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        run_training(config)
    assert run_training(config, seed=2).seed == 2
    assert run_training(replace(config, seeds=(2,))).seed == 2


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
    ("upper_decay", "decay", (0.0, -0.5, 1.5), 1.0),
    ("reach_discount", "reach_discount", (0.5, float("nan")), 1.0),
])
def test_config_rejects_learning_parameter_out_of_range(name, message, bad, good):
    for value in bad:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{name: value})
    assert getattr(ExperimentConfig(**{name: good}), name) == good


def test_config_rejects_atf_bands_out_of_order():
    for near, far in ((5, 5), (6, 5), (0, 5)):
        with pytest.raises(ValueError, match="near < far"):
            ExperimentConfig(atf_near=near, atf_far=far)
    with pytest.raises(ValueError, match="near < far"):
        parse_config("atf_near = 5\natf_far = 2")
    assert ExperimentConfig(atf_near=1, atf_far=2).atf_params().far_distance == 2


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ValueError, match=r"line 3: duplicate config key 'trials'.*line 1"):
        parse_config("trials = 7\natf_enabled = off\ntrials = 9\n")


def test_parse_config_ignores_comments_and_blanks():
    parsed = parse_config("# a comment\n\ntrials = 7\natf_enabled = off\n")
    assert parsed.trials == 7
    assert parsed.atf_enabled is False


def test_export_report_round_trip(tmp_path):
    result = run_training(QUICK, seed=1)
    metrics = compute_metrics(result.records, block_ends=QUICK.block_ends)
    export_report(metrics, result.records, tmp_path, QUICK, seed=1)

    rows = read_blocks_csv(tmp_path / "blocks.csv")
    assert [tuple(r) for r in map(dict.keys, rows)][0] == BLOCK_COLUMNS
    assert len(rows) == len(metrics)
    for row, m in zip(rows, metrics):
        assert int(row["block_start"]) == m.start
        assert float(row["steps_mean"]) == m.steps_mean
        if m.within_safety is None:
            assert row["within_safety"] == ""
        else:
            assert float(row["within_safety"]) == m.within_safety

    meta_text = (tmp_path / "metadata.txt").read_text()
    assert parse_config(meta_text) == QUICK
    assert "run_seed = 1" in meta_text

    trial_lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert trial_lines[0] == "trial,steps,actions,outcome,gd_at_capture"
    assert len(trial_lines) == 1 + len(result.records)


def test_saved_tables_reload(tmp_path):
    result = run_training(replace(QUICK, trials=6), seed=9)
    save_learned_tables(tmp_path, result)
    agent = result.agents[0]
    q_loaded, meta = load_q_table(tmp_path / "q_h0.tsv",
                                  lower_state_ids(grid_for(QUICK.grid_side)).__getitem__)
    assert q_loaded.values == agent.q.values
    assert meta["upper_decay"] == QUICK.upper_decay

    merged = {}
    for prey in (0, 1):
        bank, _ = load_weights(tmp_path / f"upper_h0_p{prey}.tsv")
        merged.update({(pack(ModuleKey(*state), QUICK.grid_side),
                        cell_id(action, QUICK.grid_side)): weight
                       for (state, action), weight in bank.weights.items()})
    assert merged == agent.upper.weights


def test_rule_eval_stay_fallback_times_out():
    config = replace(QUICK, trials=3, step_cap=30, rule_fallback="stay")
    result = run_training(config, seed=4, rules=[])
    assert all(r.outcome is TrialOutcome.STEP_CAPPED for r in result.records)
    assert all(r.steps == 30 for r in result.records)


def test_rule_eval_with_distilled_rules_runs():
    training = run_training(replace(QUICK, trials=10, instance_window=(1, 10)),
                            seed=11)
    tree = induce_tree(training.instances)
    rules = extract_rules(tree)
    assert rules
    evaluation = run_training(replace(QUICK, trials=5), seed=11, rules=rules)
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
    result = run_training(config, seed=2, rules=rules)
    captured = [r for r in result.records
                if r.outcome is TrialOutcome.POSITIVE_CAPTURED]
    assert captured
    assert all(r.gd_at_capture is None for r in result.records)


def test_reports_diffable_across_atf_settings(tmp_path):
    for name, gated in (("on", True), ("off", False)):
        config = replace(QUICK, atf_enabled=gated)
        result = run_training(config, seed=7)
        metrics = compute_metrics(result.records, block_ends=config.block_ends)
        export_report(metrics, result.records, tmp_path / name, config, seed=7)
    header = lambda p: p.read_text().splitlines()[0]
    assert header(tmp_path / "on" / "blocks.csv") == header(tmp_path / "off" / "blocks.csv")
    assert header(tmp_path / "on" / "trials.csv") == header(tmp_path / "off" / "trials.csv")


def test_trial_records_never_exceed_cap():
    result = run_training(replace(QUICK, trials=8, step_cap=25), seed=6)
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
    result = run_training(config, seed=13)
    if name == "step_capped":
        assert any(r.outcome is TrialOutcome.STEP_CAPPED for r in result.records)
    if name == "one_live_prey":
        assert all(r.gd_at_capture is None for r in result.records)
    if name == "two_positive":
        outcomes = {r.outcome for r in result.records}
        assert TrialOutcome.POSITIVE_CAPTURED in outcomes
        assert TrialOutcome.DANGEROUS_CAPTURED not in outcomes

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
            bank, _ = load_weights(tmp_path / f"upper_h{agent.index}_p{prey}.tsv")
            upper.update({(pack(ModuleKey(*state), side), cell_id(target, side)): weight.hex()
                          for (state, target), weight in bank.weights.items()})
        assert upper == {key: weight.hex() for key, weight in agent.upper.weights.items()}

    # Every logged offset is one a hunter can have on this grid.
    assert result.instances
    assert all(abs(i.theta_x) <= side - 1 and abs(i.theta_y) <= side - 1
               for i in result.instances)

    # The compiled rules are the first-match scan on every offset of the grid,
    # and drive a rule evaluation on the same scenario.
    rules = extract_rules(induce_tree(result.instances))
    assert compile_rules(rules, grid) == tuple(
        next((rule.action.index for rule in rules if rule_matches(rule, x, y)), -1)
        for x, y in grid.offsets)
    evaluation = run_training(config, seed=13, rules=rules)
    assert len(evaluation.records) == config.trials
