"""Benchmark of the pursuitrl command line pipeline.

Runs one workload of ``pursuitrl`` commands through ``cli.main`` in this
process, the way a user runs them from a shell, and prints one JSON
result as the last line of standard output:

    python3 bench/run.py --workload train-gated --seed 1 --seconds 35 --trace 0

The workload seed only picks the program seeds the commands receive.
Every command is checked: it must exit 0, its run directory must hold
one ``trials.csv`` row per trial and the exact ``positive_ratio`` identity
in ``blocks.csv``, a repeat of the same input must write the same bytes,
and on the default seed every file must match ``golden.json``.

``--trace 0`` reports the end-to-end metrics with no tracing.
``--trace 1`` runs the first TRACED_INPUTS program seeds once untraced
and once traced, requires byte-identical outputs, and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead. See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 1
# Distinct program seeds per timed run: its figures are taken over all of
# them, so one lucky or unlucky seed does not move a run. A traced run
# uses the first few only, since it runs each twice.
INPUTS_PER_RUN = 4
TRACED_INPUTS = 2
# Other tenants of a shared host slow this process by up to a half, for
# minutes at a time. Untraced commands therefore time a fixed Python loop
# every SAMPLE_INTERVAL seconds, and each timed interval is scaled by
# REFERENCE_SECONDS (the loop's time on this host when quiet) over the
# mean loop time sampled within SAMPLE_WINDOW of the interval, less the
# top and bottom tenth of samples: figures as on a quiet host. Raw
# medians are printed beside the result.
SAMPLE_INTERVAL = 0.05
SAMPLE_WINDOW = 0.25
REFERENCE_LOOPS = 2000
REFERENCE_SECONDS = 0.00045
PACKAGE_MODULES = ("cli", "env", "experiment", "hmrl", "knowledge",
                   "profit_sharing", "q_learning", "tableio")


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int                         # trials of each timed train / eval-rules command
    atf: str = "on"
    fixture_trials: int | None = None   # set for the rule pipeline: untimed training
                                        # that writes the instance log

    @property
    def uses_rules(self) -> bool:
        return self.fixture_trials is not None


# Why each workload: see README.md.
WORKLOADS = {
    "train-gated": Workload("train-gated", trials=300, atf="on"),
    "train-ungated": Workload("train-ungated", trials=300, atf="off"),
    "distill-eval": Workload("distill-eval", trials=300, fixture_trials=200),
}


@dataclass
class Command:
    """One CLI command as run and checked."""

    label: str                  # input and command, e.g. "s123/train"
    argv: list[str]
    # perf_counter marks: start, first trial or tree induction, end of the
    # trial loop, end. Setup runs from the fresh import to work_start.
    start: float = 0.0
    work_start: float | None = None
    loop_end: float | None = None
    end: float = 0.0
    steps: int = 0
    final: tuple[float, float] | None = None   # last block: steps_mean, positive_ratio
    problems: list[str] = field(default_factory=list)
    speed_samples: list[tuple[float, float]] = field(default_factory=list)  # (when, seconds)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def quiet_seconds(self, begin: float, end: float) -> float:
        """Seconds from ``begin`` to ``end`` scaled to a quiet host."""
        near = sorted(seconds for when, seconds in self.speed_samples
                      if begin - SAMPLE_WINDOW <= when <= end + SAMPLE_WINDOW)
        cut = len(near) // 10
        return (end - begin) * REFERENCE_SECONDS / statistics.fmean(near[cut:len(near) - cut])


def _time_reference_loop(samples: list[tuple[float, float]]) -> None:
    table: dict[tuple[int, int], float] = {}
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        key = (i % 97, i * 7 % 13)
        table[key] = table.get(key, 0.0) + 1.5
    samples.append((start, time.perf_counter() - start))


@contextlib.contextmanager
def speed_sampling(samples: list[tuple[float, float]]):
    """Time the reference loop into ``samples`` on entry, every
    SAMPLE_INTERVAL seconds while the block runs, and on exit."""
    _time_reference_loop(samples)
    previous = signal.signal(signal.SIGALRM, lambda *_: _time_reference_loop(samples))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _time_reference_loop(samples)


class Marks:
    """Entry and exit stamps around the trial loop and the tree induction:
    the only instrumentation of an untraced command."""

    def __init__(self, modules: dict) -> None:
        self.work_start: float | None = None
        self.loop_end: float | None = None
        experiment, knowledge = modules["experiment"], modules["knowledge"]
        run_training, induce_tree = experiment.run_training, knowledge.induce_tree

        def stamped_training(*args, **kwargs):
            self.work_start = time.perf_counter()
            result = run_training(*args, **kwargs)
            self.loop_end = time.perf_counter()
            return result

        def stamped_tree(*args, **kwargs):
            self.work_start = time.perf_counter()
            return induce_tree(*args, **kwargs)

        experiment.run_training = stamped_training
        knowledge.induce_tree = stamped_tree


def fresh_package() -> dict:
    """Import the package anew, as each shell command would, and return
    its modules by short name."""
    for name in [name for name in sys.modules
                 if name == "pursuitrl" or name.startswith("pursuitrl.")]:
        del sys.modules[name]
    importlib.import_module("pursuitrl.cli")
    modules = {name: sys.modules[f"pursuitrl.{name}"] for name in PACKAGE_MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pursuitrl imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def program_seeds(seed: int, count: int) -> list[int]:
    rng = Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def digest_dir(path: Path) -> dict[str, str]:
    return {item.relative_to(path).as_posix(): hashlib.sha256(item.read_bytes()).hexdigest()
            for item in sorted(path.rglob("*")) if item.is_file()}


def read_run_dir(out: Path, trials: int, command: Command) -> None:
    """Check a run directory's invariants; record steps and the last block."""
    with open(out / "trials.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if [int(row["trial"]) for row in rows] != list(range(1, trials + 1)):
        command.problems.append(f"trials.csv has {len(rows)} rows, expected one per trial")
    command.steps = sum(int(row["steps"]) for row in rows)
    with open(out / "blocks.csv", newline="") as handle:
        blocks = list(csv.DictReader(handle))
    for block in blocks:
        within = block["within_safety"]
        expected = float(block["safety_target"]) * float(within) if within else 0.0
        if float(block["positive_ratio"]) != expected:
            command.problems.append(
                f"block {block['block_start']}-{block['block_end']}: positive_ratio "
                f"{block['positive_ratio']} != safety_target * within_safety")
    if sum(int(block["trials"]) for block in blocks) != trials:
        command.problems.append("blocks.csv does not cover every trial")
    last = blocks[-1]
    command.final = (float(last["steps_mean"]), float(last["positive_ratio"]))


class Bench:
    """Runs and checks the commands of one workload run."""

    def __init__(self, workload: Workload, work: Path, golden: dict | None) -> None:
        self.workload = workload
        self.work = work
        self.golden = golden            # this workload's golden entry, if checked
        self.tracer = spans.Tracer()
        self.digests: dict[str, dict[str, str]] = {}   # label -> first run's digests
        self.commands: list[Command] = []
        self._ops = 0

    def command(self, label: str, argv: list[str], out: Path, traced: bool) -> Command:
        """Run one CLI command in a fresh import of the package and check it."""
        command = Command(label, argv)
        sampling = (contextlib.nullcontext() if traced
                    else speed_sampling(command.speed_samples))
        with sampling, contextlib.redirect_stdout(io.StringIO()):
            command.start = time.perf_counter()
            modules = fresh_package()
            marks = None
            if traced:
                self.tracer.install(modules)
            else:
                marks = Marks(modules)
            try:
                code = modules["cli"].main(argv)
                if code != 0:
                    command.problems.append(f"exit code {code}")
            except SystemExit as exc:
                command.problems.append(f"exit code {exc.code}")
            except Exception:
                command.problems.append(traceback.format_exc())
            command.end = time.perf_counter()
        if marks is not None:
            command.work_start, command.loop_end = marks.work_start, marks.loop_end
        if not command.problems:
            try:
                self._check(command, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                command.problems.append(f"unreadable output: {exc!r}")
        for problem in command.problems:
            print(f"{label} ({'traced' if traced else 'untraced'}): {problem}",
                  file=sys.stderr)
        self.commands.append(command)
        return command

    def _check(self, command: Command, out: Path) -> None:
        argv = command.argv
        if argv[0] != "extract-rules":
            read_run_dir(out, int(argv[argv.index("--trials") + 1]), command)
        digests = digest_dir(out)
        if digests != self.digests.setdefault(command.label, digests):
            command.problems.append("outputs differ from an earlier run of the same input")
        if self.golden is not None and digests != self.golden["digests"].get(command.label):
            command.problems.append("outputs differ from golden.json")

    def fixture(self, seed: int) -> Path:
        """Untimed training run whose instance log feeds extract-rules."""
        out = self.work / "fixture" / "train"
        self.command("fixture/train", ["train", "--trials", str(self.workload.fixture_trials),
                                       "--seed", str(seed), "--out", str(out)],
                     out, traced=False)
        return out / "instances.csv"

    def op(self, seed: int, traced: bool, instances: Path | None) -> list[Command]:
        """The workload's timed commands for one program seed."""
        self._ops += 1
        op_dir = self.work / f"op{self._ops}"
        trials = str(self.workload.trials)
        try:
            if instances is None:
                out = op_dir / "train"
                return [self.command(f"s{seed}/train", [
                    "train", "--trials", trials, "--seed", str(seed),
                    "--atf", self.workload.atf, "--out", str(out)], out, traced)]
            rules_dir, eval_dir = op_dir / "extract-rules", op_dir / "eval-rules"
            return [
                self.command("fixture/extract-rules", [
                    "extract-rules", "--instances", str(instances),
                    "--out", str(rules_dir / "rules.txt")], rules_dir, traced),
                self.command(f"s{seed}/eval-rules", [
                    "eval-rules", "--rules", str(rules_dir / "rules.txt"), "--trials", trials,
                    "--seed", str(seed), "--out", str(eval_dir)], eval_dir, traced),
            ]
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("no successful command to measure")
    return statistics.median(values)


TIMED_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "export_s": "s"}


def op_figures(op: list[Command], quiet: bool) -> dict[str, float]:
    """One op's timings, scaled to a quiet host or raw."""
    def seconds(command: Command, begin: float, end: float) -> float:
        return command.quiet_seconds(begin, end) if quiet else end - begin

    main = op[-1]          # the train or eval-rules command
    return {
        "wall_s": sum(seconds(command, command.start, command.end) for command in op),
        "setup_s": sum(seconds(command, command.start, command.work_start) for command in op),
        "steps_per_s": main.steps / seconds(main, main.work_start, main.loop_end),
        "export_s": seconds(main, main.loop_end, main.end),
    }


def run_timed(bench: Bench, seeds: list[int], seconds: float,
              instances: Path | None) -> tuple[dict[str, tuple[float, str]], dict]:
    """Run the workload's commands once per program seed, then repeat them
    while another op fits in ``seconds``.

    Returns the end-to-end metrics as ``(value, unit)``, timings as medians
    over the ops each scaled to a quiet host, and notes with the raw
    medians and the median scale of an op's wall time.
    """
    ops: list[list[Command]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while (len(ops) < len(seeds)
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        ops.append(bench.op(seeds[len(ops) % len(seeds)], traced=False, instances=instances))
        walls.append(sum(command.wall for command in ops[-1]))
    ok = [op for op in ops if not any(command.problems for command in op)]
    scaled = [op_figures(op, quiet=True) for op in ok]
    raw = [op_figures(op, quiet=False) for op in ok]
    finals = [op[-1].final for op in ops[:len(seeds)] if op in ok]
    metrics = {name: (_median(figures[name] for figures in scaled), unit)
               for name, unit in TIMED_UNITS.items()}
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_steps_mean": (statistics.fmean(final[0] for final in finals), "steps"),
        "final_positive_ratio": (statistics.fmean(final[1] for final in finals), "ratio"),
    })
    notes = {
        "ops": len(ok),
        "raw_medians": {name: _median(figures[name] for figures in raw) for name in TIMED_UNITS},
        "wall_scale": _median(quiet["wall_s"] / measured["wall_s"]
                              for quiet, measured in zip(scaled, raw)),
    }
    return metrics, notes


def run_traced(bench: Bench, seeds: list[int],
               instances: Path | None) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Each program seed once untraced, then once traced; per-layer
    metrics as ``(value, unit)`` and the problems the trace shows."""
    untraced, traced = [], []
    for seed in seeds[:TRACED_INPUTS]:
        untraced.append(bench.op(seed, traced=False, instances=instances))
        traced.append(bench.op(seed, traced=True, instances=instances))
    tracer = bench.tracer
    untraced_wall = sum(command.wall for op in untraced for command in op)
    traced_wall = sum(command.wall for op in traced for command in op)
    metrics = tracer.layer_metrics()
    metrics["distill_s"] = (
        statistics.median([op[0].wall for op in untraced]) if bench.workload.uses_rules
        else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")

    problems = []
    for name, _, _ in spans.SPAN_SITES + spans.COUNT_SITES:
        used = bench.workload.uses_rules or name not in spans.KNOWLEDGE_SPANS
        if used != (tracer.calls(name) > 0):
            problems.append(f"span {name} recorded {tracer.calls(name)} calls")
    if tracer.total_self_time() > traced_wall:
        problems.append(f"span self times sum to {tracer.total_self_time():.3f} s, "
                        f"more than the {traced_wall:.3f} s of traced commands")
    return metrics, problems


def environment() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        record_golden: bool = False) -> tuple[dict, dict]:
    """One benchmark run: the result object that is printed last, and
    notes on the samples behind the timed figures."""
    golden_all = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    checked = seed == DEFAULT_SEED and not record_golden
    golden = golden_all.get(workload.name, {"digests": {}, "counts": {}}) if checked else None
    work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, work, golden)
    *seeds, fixture_seed = program_seeds(seed, INPUTS_PER_RUN + 1)
    try:
        instances = bench.fixture(fixture_seed) if workload.uses_rules else None
        notes: dict = {}
        if record_golden:   # one untraced pass over every input, so each gets digests
            run_timed(bench, seeds, 0.0, instances)
        if trace:
            metrics, problems = run_traced(bench, seeds, instances)
            counts = {name: value for name, (value, unit) in metrics.items()
                      if unit in ("count", "B")}
            if golden is not None and counts != golden["counts"]:
                problems.append(f"deterministic counts differ from golden.json: {counts}")
        else:
            (metrics, notes), problems = run_timed(bench, seeds, seconds, instances), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    failed = sum(1 for command in bench.commands if command.problems)
    if record_golden and failed == 0 and not problems:
        golden_all[workload.name] = {"digests": bench.digests, "counts": counts}
        GOLDEN_PATH.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(bench.commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"rewrite this workload's golden.json entry "
                             f"(requires --seed {DEFAULT_SEED} --trace 1)")
    args = parser.parse_args(argv)
    if args.record_golden and (args.seed != DEFAULT_SEED or not args.trace):
        parser.error(f"--record-golden requires --seed {DEFAULT_SEED} --trace 1")
    if not (SRC / "pursuitrl" / "cli.py").is_file():
        print(f"no pursuitrl sources at {SRC / 'pursuitrl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, notes = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                        args.record_golden)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
