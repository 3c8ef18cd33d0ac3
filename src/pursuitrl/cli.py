"""Command line front end: train, extract-rules, eval-rules, replay, report."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import env, experiment, knowledge, tableio


def cmd_run(args) -> int:
    """``train``, or ``eval-rules`` when ``args.rules`` names a rule file (read first)."""
    rules = None if args.rules is None else knowledge.load_rules(args.rules)
    config = (experiment.load_config(args.config) if args.config
              else experiment.ExperimentConfig())
    overrides = {"trials": args.trials, "seeds": args.seed,
                 "atf_enabled": None if args.atf is None else args.atf == "on",
                 "trajectory_trial": args.dump_trajectory}
    try:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:       # an option that a value of the file rules out
        raise (ValueError(f"{args.config}: {exc}") if args.config else exc) from None
    result = experiment.run_training(config, rules=rules)
    metrics = experiment.compute_metrics(result.records, config)
    experiment.export_report(metrics, result.records, args.out, config)
    experiment.save_learned_tables(args.out, result)
    count = experiment.log_instances(result, args.out / "instances.csv")
    if result.trajectory:
        tableio.save_csv(args.out / "trajectory.csv", env.TRAJECTORY_HEADER, result.trajectory)
    else:               # an earlier run's trajectory in --out is not this run's
        (args.out / "trajectory.csv").unlink(missing_ok=True)
    final = metrics[-1]
    print(f"run complete: {config.trials} trials, seed {config.seeds}")
    print(f"instances logged: {count}")
    print(f"final block {final.block_start}-{final.block_end}: "
          f"steps {final.steps_mean:.1f}, "
          f"safety target {final.safety_target:.1%}, "
          f"positive ratio {final.positive_ratio:.1%}")
    return 0


def cmd_extract_rules(args) -> int:
    instances = knowledge.load_instances(args.instances)
    tree = knowledge.induce_tree(instances, min_leaf=args.min_leaf,
                                 max_depth=args.max_depth)
    rules = knowledge.extract_rules(tree)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(knowledge.format_rules(rules))
    if args.tree_out:
        args.tree_out.parent.mkdir(parents=True, exist_ok=True)
        args.tree_out.write_text(knowledge.format_tree(tree))
    print(f"{len(instances)} instances -> {len(rules)} rules -> {args.out}")
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
    if side > experiment.MAX_GRID_SIDE:     # no run writes a larger grid
        raise ValueError(f"{args.trajectory}: grid side {side} is above {experiment.MAX_GRID_SIDE}")
    by_step: dict[int, dict] = {}
    for lineno, (step_index, agent, x, y, action) in enumerate(rows, start=2):
        if not (0 <= x < side and 0 <= y < side):
            raise ValueError(f"{args.trajectory}:{lineno}: {agent} at ({x}, {y}) "
                             f"is outside a grid of side {side}")
        drawn = by_step.setdefault(step_index, {})
        if agent in drawn:
            raise ValueError(f"{args.trajectory}:{lineno}: {agent} twice at step {step_index}")
        drawn[agent] = x, y, action
    for step_index in sorted(by_step):
        grid = [["." for _ in range(side)] for _ in range(side)]
        notes = []
        for agent, (x, y, action) in by_step[step_index].items():
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
    status = 0
    for run_dir in args.runs:
        path = Path(run_dir) / "blocks.csv"
        if not path.exists():
            print(f"{run_dir:<24}  (no blocks.csv)", file=sys.stderr)
            status = 1
            continue
        for block in experiment.read_blocks_csv(path):
            cells = [
                f"{block.block_start}-{block.block_end}",
                block.trials,
                _fmt(block.steps_mean, "{:.1f}"),
                _fmt(block.safety_target, "{:.1%}"),
                _fmt(block.within_safety, "{:.1%}"),
                _fmt(block.positive_ratio, "{:.1%}"),
                _fmt(block.mean_distance, "{:.2f}"),
            ]
            print(f"{Path(run_dir).name:<24}" + "".join(f"{c:>16}" for c in cells))
    return status


def _fmt(value: float | None, spec: str) -> str:
    return "-" if value is None else spec.format(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuitrl",
        description="Hierarchical modular RL for the two-prey pursuit world",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("--trials", type=int)
    run_options.add_argument("--seed", type=int)
    run_options.add_argument("--atf", choices=("on", "off"))
    run_options.add_argument("--config", type=Path)
    run_options.add_argument("--out", type=Path, required=True)

    train = sub.add_parser("train", parents=[run_options], help="run a training session")
    train.add_argument("--dump-trajectory", type=int, metavar="TRIAL",
                       help="record the trajectory of one trial")
    train.set_defaults(func=cmd_run, rules=None)

    extract = sub.add_parser("extract-rules", help="induce If-Then rules from instances")
    extract.add_argument("--instances", type=Path, required=True)
    extract.add_argument("--out", type=Path, required=True)
    extract.add_argument("--min-leaf", type=int, default=2)
    extract.add_argument("--max-depth", type=int, default=12)
    extract.add_argument("--tree-out", type=Path)
    extract.set_defaults(func=cmd_extract_rules)

    evaluate = sub.add_parser("eval-rules", parents=[run_options],
                              help="run trials with a rule policy")
    evaluate.add_argument("--rules", type=Path, required=True)
    evaluate.set_defaults(func=cmd_run, dump_trajectory=None)

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
    """Run one command; a bad input or an unreadable file prints
    ``pursuitrl: <message>`` on stderr and returns 2, as argparse's own errors do."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"pursuitrl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
