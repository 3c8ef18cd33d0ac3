from pursuitrl import cli
from pursuitrl.experiment import read_blocks_csv
from pursuitrl.knowledge import load_rules


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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
    assert [(r["block_start"], r["block_end"]) for r in rows] == [("1", "2"), ("3", "4")]
    assert "trials = 4" in (out / "metadata.txt").read_text()


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
