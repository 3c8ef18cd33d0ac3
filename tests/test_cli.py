import argparse
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pursuitrl
from pursuitrl import cli
from pursuitrl.experiment import BLOCK_COLUMNS, read_blocks_csv
from pursuitrl.knowledge import load_rules


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def error_line(printed):
    """The one line a failed command printed on stderr, without its newline."""
    err = printed.err
    assert err.endswith("\n") and err.count("\n") == 1, err
    return err[:-1]


def test_train_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--trials", 5, "--seed", 3, "--atf", "on",
                   "--out", out, "--dump-trajectory", 1) == 0
    for name in ("blocks.csv", "trials.csv", "metadata.txt", "instances.csv",
                 "trajectory.csv", "q_h0.tsv", "upper_h3_p1.tsv"):
        assert (out / name).exists(), name
    assert "run complete" in capsys.readouterr().out


def test_train_applies_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("trials = 4\nstep_cap = 40\nblock_ends = 2,4\n")
    out = tmp_path / "run"
    run_cli("train", "--config", config, "--seed", 1, "--out", out)
    rows = read_blocks_csv(out / "blocks.csv")
    assert [(r.block_start, r.block_end) for r in rows] == [(1, 2), (3, 4)]
    assert "trials = 4" in (out / "metadata.txt").read_text()


@pytest.mark.parametrize("text, error", [
    ("step_cap = 40\ntrials = abc\n",
     "line 2: trials: invalid literal for int() with base 10: 'abc'"),
    ("trial = 4\n", "line 1: unknown config key 'trial'"),
    ("seeds = 1,2\n", "line 1: seeds: invalid literal for int() with base 10: '1,2'"),
    # 1e200 ** 12 overflows: the run would crash once the first upper rule exists
    ("reach_discount = 1e200\n", "reach_discount ** 12 must fit a float on grid_side 7, "
                                 "got 1e+200"),
])
def test_train_config_errors_name_file_and_line(tmp_path, capsys, text, error):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert run_cli("train", "--config", config, "--seed", 1, "--out", tmp_path / "run") == 2
    assert re.search(f"^pursuitrl: {re.escape(f'{config}: {error}')}$",
                     error_line(capsys.readouterr()))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("window", ["", "5", "1,2,3"])
def test_train_rejects_an_instance_window_that_is_not_two_trials(tmp_path, capsys, window):
    config = tmp_path / "run.cfg"
    config.write_text(f"instance_window = {window}\n")
    assert run_cli("train", "--config", config, "--seed", 1, "--out", tmp_path / "run") == 2
    assert re.search(f"^pursuitrl: {re.escape(str(config))}: instance_window must be two "
                     f"trial numbers or none, got ", error_line(capsys.readouterr()))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("trial", [0, 99])
def test_train_rejects_a_trajectory_trial_outside_the_run(tmp_path, capsys, trial):
    assert run_cli("train", "--trials", 20, "--seed", 1, "--dump-trajectory", trial,
                   "--out", tmp_path / "run") == 2
    assert re.search(rf"^pursuitrl: trajectory_trial must be in 1\.\.20, got {trial}$",
                     error_line(capsys.readouterr()))
    assert not (tmp_path / "run").exists()


def test_train_names_the_config_whose_value_a_run_option_rules_out(tmp_path, capsys):
    # A run's metadata.txt as the config of a shorter run: its trajectory
    # trial lies past the trials the option asks for.
    run_cli("train", "--trials", 3, "--seed", 1, "--dump-trajectory", 2, "--out", tmp_path / "run")
    metadata = tmp_path / "run" / "metadata.txt"
    capsys.readouterr()
    assert run_cli("train", "--config", metadata, "--trials", 1, "--out", tmp_path / "short") == 2
    assert error_line(capsys.readouterr()) == (f"pursuitrl: {metadata}: trajectory_trial must be "
                                               f"in 1..1, got 2")
    assert not (tmp_path / "short").exists()


RUN_OPTIONS = {"--trials", "--seed", "--atf", "--config", "--out"}


def test_each_command_keeps_its_option_set():
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {name: {option for action in parser._actions for option in action.option_strings}
            - {"-h", "--help"} for name, parser in commands.items()} == {
        "train": RUN_OPTIONS | {"--dump-trajectory"},
        "extract-rules": {"--instances", "--out", "--min-leaf", "--max-depth", "--tree-out"},
        "eval-rules": RUN_OPTIONS | {"--rules"},
        "replay": {"--trajectory", "--side"},
        "report": {"--runs"},
    }


def test_train_and_eval_rules_read_the_run_options_alike():
    parser = cli.build_parser()
    shared = ["--trials", "4", "--seed", "9", "--atf", "off", "--config", "c.cfg", "--out", "o"]
    train = parser.parse_args(["train", *shared, "--dump-trajectory", "3"])
    evaluate = parser.parse_args(["eval-rules", "--rules", "r.txt", *shared])
    for args in (train, evaluate):
        assert (args.trials, args.seed, args.atf, args.config, args.out) == (
            4, 9, "off", Path("c.cfg"), Path("o"))
        assert args.func is cli.cmd_run
    assert vars(train).keys() == vars(evaluate).keys()
    assert (train.rules, train.dump_trajectory) == (None, 3)
    assert (evaluate.rules, evaluate.dump_trajectory) == (Path("r.txt"), None)


@pytest.mark.parametrize("argv", [
    ["train", "--trials", "4"],                                            # no --out
    ["eval-rules", "--out", "o"],                                          # no --rules
    ["eval-rules", "--rules", "r.txt", "--out", "o", "--dump-trajectory", "3"],
    ["eval-rules", "--rules", "r.txt", "--out", "o", "--atf", "maybe"],
])
def test_a_run_command_rejects_an_option_it_does_not_take(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    assert exited.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "No.1\n\n"], ids=["empty", "numbers-only"])
def test_eval_rules_names_a_rule_file_of_no_rules(tmp_path, capsys, text):
    rules = tmp_path / "rules.txt"
    rules.write_text(text)
    assert run_cli("eval-rules", "--rules", rules, "--trials", 3, "--seed", 1,
                   "--out", tmp_path / "eval") == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert error_line(printed) == f"pursuitrl: {rules}: no rules"
    assert not (tmp_path / "eval").exists()


def test_extract_rules_names_an_empty_instance_file(tmp_path, capsys):
    # An inverted instance window logs no instances on purpose.
    config = tmp_path / "window.cfg"
    config.write_text("instance_window = 4,2\nstep_cap = 40\n")
    run_cli("train", "--config", config, "--trials", 4, "--seed", 1, "--out", tmp_path / "run")
    instances = tmp_path / "run" / "instances.csv"
    capsys.readouterr()
    assert run_cli("extract-rules", "--instances", instances, "--out", tmp_path / "rules.txt") == 2
    assert error_line(capsys.readouterr()) == f"pursuitrl: {instances}: no rows"
    assert not (tmp_path / "rules.txt").exists()


@pytest.mark.parametrize("flag, value, error", [("--min-leaf", 0, "min_leaf must be >= 1"),
                                                ("--max-depth", -1, "max_depth must be >= 0")])
def test_extract_rules_rejects_a_tree_bound_out_of_range(tmp_path, capsys, flag, value, error):
    run_cli("train", "--trials", 4, "--seed", 1, "--out", tmp_path / "run")
    capsys.readouterr()
    assert run_cli("extract-rules", "--instances", tmp_path / "run" / "instances.csv",
                   "--out", tmp_path / "rules.txt", flag, value) == 2
    assert re.search(f"^pursuitrl: {error}, got {value}$", error_line(capsys.readouterr()))
    assert not (tmp_path / "rules.txt").exists()


def test_extract_rules_creates_the_parents_of_both_outputs(tmp_path, capsys):
    run_cli("train", "--trials", 4, "--seed", 1, "--out", tmp_path / "run")
    rules_path = tmp_path / "out" / "rules" / "rules.txt"
    tree_path = tmp_path / "trees" / "t" / "tree.txt"
    assert run_cli("extract-rules", "--instances", tmp_path / "run" / "instances.csv",
                   "--out", rules_path, "--tree-out", tree_path) == 0
    assert load_rules(rules_path)
    assert tree_path.read_text().strip()


def test_full_pipeline_extract_then_eval(tmp_path, capsys):
    train_dir = tmp_path / "train"
    run_cli("train", "--trials", 30, "--seed", 8, "--out", train_dir)

    rules_path = tmp_path / "rules.txt"
    tree_path = tmp_path / "tree.txt"
    run_cli("extract-rules", "--instances", train_dir / "instances.csv",
            "--out", rules_path, "--min-leaf", 2, "--max-depth", 12,
            "--tree-out", tree_path)
    rules = load_rules(rules_path)
    assert rules
    assert tree_path.read_text().strip()

    eval_dir = tmp_path / "eval"
    run_cli("eval-rules", "--rules", rules_path, "--trials", 5, "--seed", 8,
            "--out", eval_dir)
    assert (eval_dir / "blocks.csv").exists()

    capsys.readouterr()
    run_cli("report", "--runs", train_dir, eval_dir)
    out = capsys.readouterr().out
    assert "train" in out and "eval" in out


def test_replay_prints_grid(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("train", "--trials", 2, "--seed", 5, "--out", out,
            "--dump-trajectory", 2)
    capsys.readouterr()
    run_cli("replay", "--trajectory", out / "trajectory.csv")
    printed = capsys.readouterr().out
    assert "step 0" in printed
    assert "H0" in printed


@pytest.mark.parametrize("command", ["train", "eval-rules"])
def test_a_rerun_that_records_no_trajectory_leaves_none_behind(tmp_path, command):
    # replay would draw the first run's trajectory beside the second run's metadata.
    out = tmp_path / "run"
    rules = tmp_path / "rules.txt"
    rules.write_text("No.1\nIf theta_X > 0 Then right with CF=1.0\n")
    assert run_cli("train", "--trials", 20, "--seed", 1, "--dump-trajectory", 3,
                   "--out", out) == 0
    assert (out / "trajectory.csv").exists()
    rule_options = ["--rules", rules] if command == "eval-rules" else []
    assert run_cli(command, *rule_options, "--trials", 10, "--seed", 2, "--out", out) == 0
    assert "trajectory_trial = none" in (out / "metadata.txt").read_text()
    assert not (out / "trajectory.csv").exists()


def printed_grid_widths(printed):
    return {len(line.split()) for line in printed.splitlines()
            if line and not line.startswith("step")}


def test_replay_takes_side_from_run_metadata(tmp_path, capsys):
    config = tmp_path / "side9.cfg"
    config.write_text("grid_side = 9\nstep_cap = 40\n")
    out = tmp_path / "run"
    run_cli("train", "--config", config, "--trials", 2, "--seed", 5, "--out", out,
            "--dump-trajectory", 1)
    capsys.readouterr()
    assert run_cli("replay", "--trajectory", out / "trajectory.csv") == 0
    assert printed_grid_widths(capsys.readouterr().out) == {9}

    # Without metadata.txt the side is the largest coordinate + 1.
    lone = tmp_path / "lone" / "trajectory.csv"
    lone.parent.mkdir()
    lone.write_text("step,agent,x,y,action\n0,h0,0,0,stay\n0,p0,8,2,\n")
    assert run_cli("replay", "--trajectory", lone) == 0
    assert printed_grid_widths(capsys.readouterr().out) == {9}
    assert run_cli("replay", "--trajectory", lone, "--side", 10) == 0
    assert printed_grid_widths(capsys.readouterr().out) == {10}


@pytest.mark.parametrize("cell", [(6, 2), (0, -1)])
def test_replay_names_a_row_outside_the_side(tmp_path, capsys, cell):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(f"step,agent,x,y,action\n0,h0,0,0,stay\n0,p1,{cell[0]},{cell[1]},\n")
    message = f"{trajectory}:3: p1 at {cell} is outside a grid of side 3"
    assert run_cli("replay", "--trajectory", trajectory, "--side", 3) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert re.search(f"^pursuitrl: {re.escape(message)}$", error_line(printed))


def test_replay_names_an_empty_trajectory(tmp_path, capsys):
    empty = tmp_path / "trajectory.csv"
    empty.write_text("step,agent,x,y,action\n")
    assert run_cli("replay", "--trajectory", empty) == 2
    assert error_line(capsys.readouterr()) == f"pursuitrl: {empty}: no rows"


@pytest.mark.parametrize("row, error", [("0,,2,3,up", "unknown agent ''"),
                                        ("0,q1,2,3,", "unknown agent 'q1'"),
                                        ("0,h1,2,3,north", "unknown action 'north'")],
                         ids=["no-agent", "unknown-agent", "unknown-action"])
def test_replay_names_a_row_of_no_agent_or_action(tmp_path, capsys, row, error):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(f"step,agent,x,y,action\n0,h0,0,0,stay\n{row}\n")
    assert run_cli("replay", "--trajectory", trajectory, "--side", 7) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert re.search(f"^pursuitrl: {re.escape(str(trajectory))}:3: malformed row "
                     f"{re.escape(repr(row))}: ValueError\\({re.escape(repr(error))}\\)$",
                     error_line(printed))


def test_replay_rejects_a_negative_step(tmp_path, capsys):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text("step,agent,x,y,action\n0,h0,0,0,stay\n-4,h0,1,0,up\n")
    assert run_cli("replay", "--trajectory", trajectory, "--side", 7) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert re.search(f"^pursuitrl: {re.escape(str(trajectory))}:3: malformed row "
                     f"'-4,h0,1,0,up': ValueError\\('negative step -4'\\)$",
                     error_line(printed))


def test_replay_rejects_a_second_row_for_one_agent_at_one_step(tmp_path, capsys):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text("step,agent,x,y,action\n0,h0,0,0,stay\n0,p0,3,3,\n"
                          "0,h0,1,0,up\n1,h0,0,0,stay\n")
    assert run_cli("replay", "--trajectory", trajectory, "--side", 7) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert error_line(printed) == f"pursuitrl: {trajectory}:4: h0 twice at step 0"


@pytest.mark.parametrize("row, side", [("0,h0,1,2,stay", ["--side", 31]), ("0,h0,30,2,stay", [])],
                         ids=["side-option", "bare-trajectory"])
def test_replay_refuses_a_grid_side_above_the_config_bound(tmp_path, capsys, row, side):
    # A drawn step is side * side cells: an unbounded side could ask for gigabytes.
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(f"step,agent,x,y,action\n{row}\n")
    assert run_cli("replay", "--trajectory", trajectory, *side) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert error_line(printed) == f"pursuitrl: {trajectory}: grid side 31 is above 30"


def test_replay_draws_a_grid_of_the_largest_side(tmp_path, capsys):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text("step,agent,x,y,action\n0,h0,29,29,stay\n")
    assert run_cli("replay", "--trajectory", trajectory, "--side", 30) == 0
    assert printed_grid_widths(capsys.readouterr().out) == {30}
    assert run_cli("replay", "--trajectory", trajectory) == 0
    assert printed_grid_widths(capsys.readouterr().out) == {30}


@pytest.mark.parametrize("name, text, command", [
    ("instances.csv", "theta_x,theta_y,action\n1,0,\xff\n",
     lambda path, out: ["extract-rules", "--instances", path, "--out", out / "rules.txt"]),
    ("trajectory.csv", "step,agent,x,y,action\n0,h0,1,\xff,stay\n",
     lambda path, out: ["replay", "--trajectory", path, "--side", 7]),
    ("blocks.csv", f"{','.join(BLOCK_COLUMNS)}\n1,5,5,0.0,,,0.0,,12.5,2.0,13.0,\xff\n",
     lambda path, out: ["report", "--runs", path.parent]),
    ("rules.txt", "No.1\nIf theta_X > 0 Then \xff with CF=1.0\n",
     lambda path, out: ["eval-rules", "--rules", path, "--trials", 2, "--out", out / "run"]),
], ids=["instances", "trajectory", "blocks", "rules"])
def test_an_input_that_is_not_utf8_is_named(tmp_path, capsys, name, text, command):
    path = tmp_path / "in" / name
    path.parent.mkdir()
    path.write_bytes(text.encode("latin-1"))      # "\xff" is the byte 0xff
    assert run_cli(*command(path, tmp_path)) == 2
    assert re.search(f"^pursuitrl: {re.escape(str(path))}: 'utf-8' codec can't decode "
                     r"byte 0xff in position \d+: invalid start byte$",
                     error_line(capsys.readouterr()))
    assert not (tmp_path / "run").exists()


def test_a_missing_input_file_is_a_one_line_error(tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    assert run_cli("extract-rules", "--instances", missing, "--out", tmp_path / "rules.txt") == 2
    assert re.search(f"^pursuitrl: .*No such file.*{re.escape(repr(str(missing)))}$",
                     error_line(capsys.readouterr()))


def test_report_fails_on_a_run_without_blocks(tmp_path, capsys):
    run_cli("train", "--trials", 3, "--seed", 2, "--out", tmp_path / "run")
    capsys.readouterr()
    (tmp_path / "missing").mkdir()
    assert run_cli("report", "--runs", tmp_path / "run", tmp_path / "missing") == 1
    printed = capsys.readouterr()
    assert any(line.startswith("run ") for line in printed.out.splitlines()[1:])
    assert "(no blocks.csv)" in printed.err
    assert run_cli("report", "--runs", tmp_path / "run") == 0


# A blocks.csv as export_report writes it: two blocks, the first with no positive capture.
BLOCKS = [list(BLOCK_COLUMNS), "1,5,5,0.0,,,0.0,,12.5,2.0,13.0,4.0".split(","),
          "6,10,5,0.4,0.5,0.5,0.2,3.5,10.0,1.0,11.0,2.0".split(",")]


def write_blocks(run, rows):
    run.mkdir()
    (run / "blocks.csv").write_text("".join(",".join(row) + "\r\n" for row in rows))
    return run / "blocks.csv"


@pytest.mark.parametrize("column, cell, line, error", [
    ("trials", None, 1, r"expected header \[.*'trials'.*\], got \[.*\]"),
    ("steps_mean", "abc", 3, r"malformed row '.*,abc,.*': ValueError\(\"could not convert "
                             r"string to float: 'abc'\"\)"),
    ("trials", "", 2, r"malformed row '.*': ValueError\(\"invalid literal for int\(\).*"),
    ("steps_var", "", 2, r"malformed row '.*': ValueError\(\"could not convert string to "
                         r"float: ''\"\)"),
])
def test_report_names_the_line_of_a_malformed_blocks_csv(tmp_path, capsys, column, cell, line,
                                                         error):
    rows = [list(row) for row in BLOCKS]
    at = BLOCK_COLUMNS.index(column)
    if cell is None:            # drop the column
        rows = [row[:at] + row[at + 1:] for row in rows]
    else:
        rows[line - 1][at] = cell
    blocks = write_blocks(tmp_path / "run", rows)
    assert run_cli("report", "--runs", blocks.parent) == 2
    assert re.search(f"^pursuitrl: {re.escape(str(blocks))}:{line}: {error}$",
                     error_line(capsys.readouterr()))


@pytest.mark.parametrize("column, cell", [("steps_mean", "nan"), ("positive_ratio", "inf"),
                                          ("mean_distance", "-inf"), ("within_safety", "NaN")])
def test_report_rejects_a_non_finite_cell(tmp_path, capsys, column, cell):
    rows = [list(row) for row in BLOCKS]
    rows[2][BLOCK_COLUMNS.index(column)] = cell
    blocks = write_blocks(tmp_path / "run", rows)
    assert run_cli("report", "--runs", blocks.parent) == 2
    printed = capsys.readouterr()
    assert "%" not in printed.out
    message = f"{blocks}:3: malformed row '{','.join(rows[2])}': ValueError"
    assert re.search(f"^pursuitrl: {re.escape(message)}.*{column} is not finite: '{cell}'",
                     error_line(printed))


def test_report_rejects_a_row_of_figures_no_run_writes(tmp_path, capsys):
    # trials=-5, safety_target=2.5, positive_ratio=1.25, steps_mean=-10.0
    row = "6,10,-5,2.5,0.5,0.5,1.25,3.5,-10.0,1.0,11.0,2.0".split(",")
    blocks = write_blocks(tmp_path / "run", [BLOCKS[0], BLOCKS[1], row])
    assert run_cli("report", "--runs", blocks.parent) == 2
    printed = capsys.readouterr()
    assert "%" not in printed.out and "-5" not in printed.out
    message = f"{blocks}:3: malformed row '{','.join(row)}': ValueError"
    assert re.search(f"^pursuitrl: {re.escape(message)}.*block 6-10 cannot hold -5 trials",
                     error_line(printed))


@pytest.mark.parametrize("column, cell, error", [
    ("block_start", "0", "block 0-10 cannot hold 5 trials"),
    ("block_end", "5", "block 6-5 cannot hold 5 trials"),
    ("trials", "0", "block 6-10 cannot hold 0 trials"),
    ("trials", "6", "block 6-10 cannot hold 6 trials"),
    ("trials", "4", "block 6-10 cannot hold 4 trials"),
    ("safety_target", "1.5", "safety_target must be in [0, 1], got '1.5'"),
    ("within_safety", "-0.5", "within_safety must be in [0, 1], got '-0.5'"),
    ("within_dangerous", "2", "within_dangerous must be in [0, 1], got '2'"),
    ("positive_ratio", "1.25", "positive_ratio must be in [0, 1], got '1.25'"),
    ("mean_distance", "-1", "mean_distance must be in [0, inf], got '-1'"),
    ("steps_mean", "-10.0", "steps_mean must be in [0, inf], got '-10.0'"),
    ("steps_var", "-0.1", "steps_var must be in [0, inf], got '-0.1'"),
    ("actions_mean", "-1e-9", "actions_mean must be in [0, inf], got '-1e-9'"),
    ("actions_var", "-3", "actions_var must be in [0, inf], got '-3'"),
])
def test_report_rejects_a_cell_out_of_range(tmp_path, capsys, column, cell, error):
    rows = [list(row) for row in BLOCKS]
    rows[2][BLOCK_COLUMNS.index(column)] = cell
    blocks = write_blocks(tmp_path / "run", rows)
    assert run_cli("report", "--runs", blocks.parent) == 2
    printed = capsys.readouterr()
    assert "%" not in printed.out
    message = f"{blocks}:3: malformed row '{','.join(rows[2])}': ValueError"
    assert re.search(f"^pursuitrl: {re.escape(message)}.*{re.escape(error)}",
                     error_line(printed))


@pytest.mark.parametrize("spans, line, error", [
    ([(1, 5), (3, 7)], 3, "block 3-7 does not start at trial 6"),
    ([(1, 5), (11, 15)], 3, "block 11-15 does not start at trial 6"),
    ([(1, 5), (1, 5)], 3, "block 1-5 does not start at trial 6"),
    ([(6, 10)], 2, "block 6-10 does not start at trial 1"),
], ids=["overlap", "gap", "repeat", "first-not-at-1"])
def test_report_rejects_blocks_no_run_writes_together(tmp_path, capsys, spans, line, error):
    # A run's blocks start at trial 1, each one past the previous end.
    rows = [BLOCKS[0], *([str(start), str(end), *BLOCKS[2][2:]] for start, end in spans)]
    blocks = write_blocks(tmp_path / "run", rows)
    assert run_cli("report", "--runs", blocks.parent) == 2
    printed = capsys.readouterr()
    assert "%" not in printed.out
    assert error_line(printed) == f"pursuitrl: {blocks}:{line}: {error}"


def test_report_names_a_blocks_csv_of_no_blocks(tmp_path, capsys):
    write_blocks(tmp_path / "run", BLOCKS)
    empty = write_blocks(tmp_path / "empty", BLOCKS[:1])
    assert run_cli("report", "--runs", tmp_path / "run", empty.parent) == 2
    printed = capsys.readouterr()
    assert [line.split()[0] for line in printed.out.splitlines()[1:]] == ["run", "run"]
    assert error_line(printed) == f"pursuitrl: {empty}: no rows"


def test_report_reads_empty_optional_cells(tmp_path, capsys):
    blocks = write_blocks(tmp_path / "run", BLOCKS)
    assert [block.within_safety for block in read_blocks_csv(blocks)] == [None, 0.5]
    assert run_cli("report", "--runs", blocks.parent) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()[1:]] == [
        ["run", "1-5", "5", "12.5", "0.0%", "-", "0.0%", "-"],
        ["run", "6-10", "5", "10.0", "40.0%", "50.0%", "20.0%", "3.50"]]


def test_reimporting_the_package_frees_the_old_copies():
    # A shell command imports the package afresh; an earlier copy must not
    # stay reachable (say, from typing's subscription cache) with its grids.
    # A subprocess keeps the re-imported classes out of the other tests.
    script = textwrap.dedent(f"""
        import gc, importlib, sys, weakref
        sys.path.insert(0, {str(Path(pursuitrl.__file__).parents[1])!r})
        copies = []
        for _ in range(5):
            for name in [n for n in sys.modules if n.split(".")[0] == "pursuitrl"]:
                del sys.modules[name]
            importlib.import_module("pursuitrl.cli")
            copies.append(weakref.ref(sys.modules["pursuitrl.env"].Grid))
        gc.collect()
        print(sum(copy() is not None for copy in copies))
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "1"
