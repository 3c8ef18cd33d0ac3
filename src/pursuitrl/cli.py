"""Command line front end: train, extract-rules, eval-rules, replay, report."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import env, experiment, knowledge


def _load_base_config(args) -> experiment.ExperimentConfig:
    config = experiment.ExperimentConfig()
    if getattr(args, "config", None):
        config = experiment.load_config(args.config, config)
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "atf", None) is not None:
        overrides["atf_enabled"] = args.atf == "on"
    if getattr(args, "dump_trajectory", None) is not None:
        overrides["trajectory_trial"] = args.dump_trajectory
    return replace(config, **overrides) if overrides else config


def _export_run(result: experiment.TrainingResult, out_dir: Path) -> None:
    metrics = experiment.compute_metrics(
        result.records, near_distance=result.config.atf_near,
        block_ends=result.config.block_ends)
    experiment.export_report(metrics, result.records, out_dir, result.config,
                             result.seed)
    experiment.save_learned_tables(out_dir, result)
    count = experiment.log_instances(result, out_dir / "instances.csv")
    if result.trajectory:
        env.save_trajectory(out_dir / "trajectory.csv", result.trajectory)
    final = metrics[-1]
    print(f"run complete: {result.config.trials} trials, seed {result.seed}")
    print(f"instances logged: {count}")
    print(f"final block {final.start}-{final.end}: "
          f"steps {final.steps_mean:.1f}, "
          f"safety target {final.safety_target:.1%}, "
          f"positive ratio {final.positive_ratio:.1%}")


def cmd_train(args) -> int:
    config = _load_base_config(args)
    result = experiment.run_training(config)
    _export_run(result, Path(args.out))
    return 0


def cmd_extract_rules(args) -> int:
    instances = knowledge.load_instances(args.instances)
    tree = knowledge.induce_tree(instances, min_leaf=args.min_leaf,
                                 max_depth=args.max_depth)
    rules = knowledge.extract_rules(tree)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    knowledge.save_rules(out, rules)
    if args.tree_out:
        Path(args.tree_out).write_text(knowledge.format_tree(tree))
    print(f"{len(instances)} instances -> {len(rules)} rules -> {out}")
    return 0


def cmd_eval_rules(args) -> int:
    rules = knowledge.load_rules(args.rules)
    config = _load_base_config(args)
    result = experiment.run_rule_eval(config, rules)
    _export_run(result, Path(args.out))
    return 0


def _trajectory_side(path: Path, rows) -> int:
    """Grid side of a recorded trajectory: ``grid_side`` from the run's
    metadata.txt beside it, else the largest coordinate + 1."""
    metadata = path.parent / "metadata.txt"
    if metadata.exists():
        return experiment.load_config(metadata).grid_side
    return max(max(x, y) for _, _, x, y, _ in rows) + 1


def cmd_replay(args) -> int:
    rows = env.load_trajectory(args.trajectory)
    side = args.side if args.side is not None else _trajectory_side(args.trajectory, rows)
    by_step: dict[int, list] = {}
    for step_index, agent, x, y, action in rows:
        by_step.setdefault(step_index, []).append((agent, x, y, action))
    for step_index in sorted(by_step):
        grid = [["." for _ in range(side)] for _ in range(side)]
        notes = []
        for agent, x, y, action in by_step[step_index]:
            glyph = agent[0].upper() + agent[1:]
            grid[y][x] = glyph[:2]
            if action:
                notes.append(f"{agent}:{action}")
        print(f"step {step_index}  {'  '.join(notes)}")
        for row in grid:
            print(" ".join(f"{cell:>2}" for cell in row))
        print()
    return 0


def cmd_report(args) -> int:
    columns = ("block", "trials", "steps_mean", "safety_target",
               "within_safety", "positive_ratio", "mean_distance")
    print(f"{'run':<24}" + "".join(f"{c:>16}" for c in columns))
    for run_dir in args.runs:
        path = Path(run_dir) / "blocks.csv"
        if not path.exists():
            print(f"{run_dir:<24}  (no blocks.csv)", file=sys.stderr)
            continue
        for row in experiment.read_blocks_csv(path):
            cells = [
                f"{row['block_start']}-{row['block_end']}",
                row["trials"],
                _fmt(row["steps_mean"], "{:.1f}"),
                _fmt(row["safety_target"], "{:.1%}"),
                _fmt(row["within_safety"], "{:.1%}"),
                _fmt(row["positive_ratio"], "{:.1%}"),
                _fmt(row["mean_distance"], "{:.2f}"),
            ]
            print(f"{Path(run_dir).name:<24}" + "".join(f"{c:>16}" for c in cells))
    return 0


def _fmt(cell: str, spec: str) -> str:
    return spec.format(float(cell)) if cell else "-"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuitrl",
        description="Hierarchical modular RL for the two-prey pursuit world",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training session")
    train.add_argument("--trials", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--atf", choices=("on", "off"))
    train.add_argument("--config", type=Path)
    train.add_argument("--out", type=Path, required=True)
    train.add_argument("--dump-trajectory", type=int, metavar="TRIAL",
                       help="record the trajectory of one trial")
    train.set_defaults(func=cmd_train)

    extract = sub.add_parser("extract-rules", help="induce If-Then rules from instances")
    extract.add_argument("--instances", type=Path, required=True)
    extract.add_argument("--out", type=Path, required=True)
    extract.add_argument("--min-leaf", type=int, default=2)
    extract.add_argument("--max-depth", type=int, default=12)
    extract.add_argument("--tree-out", type=Path)
    extract.set_defaults(func=cmd_extract_rules)

    evaluate = sub.add_parser("eval-rules", help="run trials with a rule policy")
    evaluate.add_argument("--rules", type=Path, required=True)
    evaluate.add_argument("--trials", type=int)
    evaluate.add_argument("--seed", type=int)
    evaluate.add_argument("--atf", choices=("on", "off"))
    evaluate.add_argument("--config", type=Path)
    evaluate.add_argument("--out", type=Path, required=True)
    evaluate.set_defaults(func=cmd_eval_rules)

    replay = sub.add_parser("replay", help="print a recorded trajectory")
    replay.add_argument("--trajectory", type=Path, required=True)
    replay.add_argument("--side", type=int,
                        help="grid side (default: from the run's metadata.txt)")
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="tabulate block metrics of runs")
    report.add_argument("--runs", nargs="+", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
