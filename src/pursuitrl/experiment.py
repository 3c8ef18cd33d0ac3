"""Training/evaluation harness: trial loop, block metrics, reports.

A run is a sequence of trials. Each trial starts from a fresh random
world and ends at the first capture (either prey) or at the step cap;
the learned tables persist across trials. Metrics are aggregated over
configured trial blocks.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from pathlib import Path
from random import Random
from typing import Sequence

from . import env, hmrl, knowledge, profit_sharing, q_learning
from .env import ACTION_LABELS, ACTIONS, CANDIDATE_MODES, N_PREY, Action, PreyKind
from .hmrl import ATFieldParams, HunterAgent, deliver_rewards, module_prey, module_text
from .knowledge import IfThenRule, Instance, compile_rules, rule_policy_act


RULE_FALLBACKS = ("learner", "stay")


class TrialOutcome(Enum):
    POSITIVE_CAPTURED = "positive_captured"
    DANGEROUS_CAPTURED = "dangerous_captured"
    STEP_CAPPED = "step_capped"


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 2000
    step_cap: int = 3000
    seeds: tuple[int, ...] = (0,)
    atf_enabled: bool = True
    # rewards
    reward: float = 100.0
    dangerous_reward: float = 0.0
    # generic profit-sharing parameters, recorded with runs and used by
    # the suppression tooling
    ps_discount: float = 5.0
    ps_rule_bound: int = 4
    # lower layer
    alpha: float = 0.1
    gamma: float = 0.9
    # exploration: linear anneal from start to final over the first
    # anneal_fraction of the trials, shared by both layers
    epsilon_start: float = 0.1
    epsilon_final: float = 0.01
    epsilon_anneal_fraction: float = 0.5
    # upper layer
    atf_near: int = 2
    atf_far: int = 5
    upper_decay: float = 0.8
    reach_discount: float = 2.0
    candidate_mode: str = "ring2"
    # reporting
    block_ends: tuple[int, ...] = (200, 2000, 17000, 20000)
    instance_window: tuple[int, int] | None = None   # default: last 100 trials
    # world
    grid_side: int = 7
    prey_kinds: tuple[str, str] = ("positive", "dangerous")
    prey_alive: tuple[bool, bool] = (True, True)
    # rule-driven evaluation
    rule_fallback: str = "learner"   # one of RULE_FALLBACKS, for unmatched offsets
    # fidelity/debug knobs
    strict_reset: bool = False       # wipe learned tables after every trial
    trajectory_trial: int | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("seeds must hold at least one seed")
        if self.trials < 1 or self.step_cap < 1:
            raise ValueError(f"trials and step_cap must be >= 1, "
                             f"got {self.trials} and {self.step_cap}")
        if self.grid_side < 3:
            raise ValueError(f"grid_side must be >= 3, got {self.grid_side}")
        for name in ("epsilon_start", "epsilon_final", "epsilon_anneal_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        # A block runs from one end + 1 to the next: ends that do not rise
        # would count trials twice in blocks.csv.
        ends = (0, *self.block_ends)
        if any(a >= b for a, b in zip(ends, ends[1:])):
            raise ValueError(f"block_ends must be positive and strictly rising, "
                             f"got {self.block_ends}")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ValueError(f"candidate_mode must be one of {CANDIDATE_MODES}, "
                             f"got {self.candidate_mode!r}")
        if self.rule_fallback not in RULE_FALLBACKS:
            raise ValueError(f"rule_fallback must be one of {RULE_FALLBACKS}, "
                             f"got {self.rule_fallback!r}")
        kinds = tuple(kind.value for kind in PreyKind)
        if len(self.prey_kinds) != N_PREY or not set(self.prey_kinds) <= set(kinds):
            raise ValueError(f"prey_kinds must be {N_PREY} of {kinds}, got {self.prey_kinds}")
        if len(self.prey_alive) != N_PREY or not any(self.prey_alive):
            raise ValueError(f"prey_alive must be {N_PREY} flags with at least one on, "
                             f"got {self.prey_alive}")
        if not self.reach_discount >= 1.0:
            raise ValueError(f"reach_discount must be >= 1, got {self.reach_discount}")
        # Out of range, alpha and gamma fail once training starts and an
        # upper_decay above 1 diverges: run the learners' own checks now.
        q_learning.QTable(self.alpha, self.gamma)
        self.atf_params()

    def atf_params(self) -> ATFieldParams:
        return ATFieldParams(near_distance=self.atf_near, far_distance=self.atf_far,
                             decay=self.upper_decay)

    def grid_config(self) -> env.GridConfig:
        kinds = tuple(PreyKind(kind) for kind in self.prey_kinds)
        return env.GridConfig(side=self.grid_side, prey_kinds=kinds,
                              prey_alive=self.prey_alive)

    def epsilon_at(self, trial: int) -> float:
        anneal_trials = self.epsilon_anneal_fraction * self.trials
        if anneal_trials <= 0:
            return self.epsilon_final
        progress = min(1.0, trial / anneal_trials)
        return self.epsilon_start + (self.epsilon_final - self.epsilon_start) * progress


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    steps: int
    actions: int                 # raw hunter action count incl. target resets
    outcome: TrialOutcome
    gd_at_capture: int | None    # inter-prey distance when captured


@dataclass
class BlockMetrics:
    start: int
    end: int
    trials: int
    safety_target: float
    within_safety: float | None
    within_dangerous: float | None
    positive_ratio: float
    mean_distance: float | None
    steps_mean: float
    steps_var: float
    actions_mean: float
    actions_var: float


@dataclass
class TrainingResult:
    config: ExperimentConfig
    seed: int
    records: list[TrialRecord]
    agents: list[HunterAgent]
    instances: list[Instance]
    trajectory: list[tuple[int, str, int, int, str]]


def build_agents(config: ExperimentConfig) -> list[HunterAgent]:
    return [
        HunterAgent(
            index,
            alpha=config.alpha,
            gamma=config.gamma,
            atf_params=config.atf_params(),
            reach_discount=config.reach_discount,
            candidates=config.candidate_mode,
            goal_reward=config.reward,
        )
        for index in range(env.N_HUNTERS)
    ]


def run_training(config: ExperimentConfig, seed: int | None = None,
                 rules: Sequence[IfThenRule] | None = None) -> TrainingResult:
    """Run one full training (or rule-driven) session.

    With ``rules`` given, each hunter's move is taken from the first
    matching rule and the learner's own epsilon-greedy pick serves as
    the fallback; all learning updates still apply to the action
    actually taken. Runs ``seed``, else the one seed of ``config.seeds``;
    fully deterministic for a given seed.
    """
    if seed is None:
        if len(config.seeds) != 1:
            raise ValueError(f"run_training runs one seed: pick one of {config.seeds}")
        seed = config.seeds[0]
    rng = Random(seed)
    grid = env.grid_for(config.grid_side)
    compiled = None if rules is None else compile_rules(rules, grid)
    agents = build_agents(config)

    window = config.instance_window
    if window is None:
        window = (max(1, config.trials - 99), config.trials)

    records: list[TrialRecord] = []
    instances: list[Instance] = []
    trajectory: list[tuple[int, str, int, int, str]] = []
    two_alive = all(config.prey_alive)

    for trial in range(1, config.trials + 1):
        if config.strict_reset and trial > 1:
            fresh = build_agents(config)
            for agent, blank in zip(agents, fresh):
                agent.upper = blank.upper
                agent.q = blank.q
        world = env.new_world(rng.getrandbits(64), config.grid_config())
        for agent in agents:
            agent.begin_trial()
        epsilon = config.epsilon_at(trial)
        in_window = window[0] <= trial <= window[1]
        log_trajectory = trial == config.trajectory_trial

        captures = None
        resets = 0
        for _ in range(config.step_cap):
            actions = [agent.policy_step(world, rng, epsilon) for agent in agents]
            if compiled is not None:
                for agent in agents:
                    _apply_rule_override(agent, world, compiled, config.rule_fallback, grid)
                actions = [ACTIONS[agent.pending[1]] for agent in agents]
            if in_window:
                for agent, action in zip(agents, actions):
                    dx, dy = grid.offsets[agent.pending[0] // N_PREY]
                    instances.append(Instance(dx, dy, action))
            if log_trajectory:
                labels = [ACTION_LABELS[action] for action in actions]
                for row, label in zip(env.trajectory_rows(world), labels + ["", ""]):
                    trajectory.append((*row, label))

            outcome = env.step(world, actions, rng)
            reached = deliver_rewards(agents, outcome, gated=config.atf_enabled,
                                      positive_reward=config.reward,
                                      dangerous_reward=config.dangerous_reward)
            resets += sum(reached)
            world = outcome.next_state
            if outcome.captures:
                captures = outcome.captures
                break
        else:
            for agent in agents:
                agent.finish_trial(0.0, gated=config.atf_enabled)

        steps = world.step_count
        if captures:
            positive = any(kind is PreyKind.POSITIVE for _, kind in captures)
            outcome_kind = (TrialOutcome.POSITIVE_CAPTURED if positive
                            else TrialOutcome.DANGEROUS_CAPTURED)
            gd = (grid.distance[world.prey[0].cell][world.prey[1].cell]
                  if two_alive else None)
        else:
            outcome_kind = TrialOutcome.STEP_CAPPED
            gd = None
        records.append(TrialRecord(
            trial=trial, steps=steps, actions=steps * env.N_HUNTERS + resets,
            outcome=outcome_kind, gd_at_capture=gd,
        ))

    return TrainingResult(config=config, seed=seed, records=records, agents=agents,
                          instances=instances, trajectory=trajectory)


def _apply_rule_override(agent: HunterAgent, world: env.WorldState,
                         compiled: Sequence[int], fallback_mode: str, grid: env.Grid) -> None:
    """Swap the pending action for the rule-commanded one when usable."""
    lower, chosen, target = agent.pending
    unmatched = Action.STAY.index if fallback_mode == "stay" else chosen
    commanded = rule_policy_act(compiled, lower // N_PREY, fallback=lambda _: unmatched)
    if commanded != chosen:
        if grid.moves[world.hunters[agent.index]][commanded] < 0:
            commanded = chosen      # rule walked off the grid; keep the learner's pick
        agent.pending = (lower, commanded, target)


def blocks_for(trials: int, block_ends: Sequence[int]) -> list[tuple[int, int]]:
    """Block ranges clipped to the trial count; a tail block covers any
    trials past the last configured end."""
    ranges: list[tuple[int, int]] = []
    start = 1
    for end in block_ends:
        if start > trials:
            return ranges
        ranges.append((start, min(end, trials)))
        start = min(end, trials) + 1
    if start <= trials:
        ranges.append((start, trials))
    return ranges


def compute_metrics(records: Sequence[TrialRecord], near_distance: int = 2,
                    block_ends: Sequence[int] = (200, 2000, 17000, 20000)) -> list[BlockMetrics]:
    """Per-block capture and step statistics.

    positive_ratio is defined as the product safety_target *
    within_safety so the identity between the three ratios is exact.
    """
    if not records:
        raise ValueError("no trial records")
    by_trial = {record.trial: record for record in records}
    metrics: list[BlockMetrics] = []
    for start, end in blocks_for(max(by_trial), block_ends):
        block = [by_trial[t] for t in range(start, end + 1) if t in by_trial]
        if not block:
            continue
        n = len(block)
        positives = [r for r in block if r.outcome is TrialOutcome.POSITIVE_CAPTURED]
        far = [r for r in positives
               if r.gd_at_capture is not None and r.gd_at_capture > near_distance]
        safety_target = len(positives) / n
        if positives:
            within_safety = len(far) / len(positives)
            within_dangerous = 1.0 - within_safety
            positive_ratio = safety_target * within_safety
        else:
            within_safety = None
            within_dangerous = None
            positive_ratio = 0.0
        distances = [r.gd_at_capture for r in block if r.gd_at_capture is not None]
        steps = [r.steps for r in block]
        actions = [r.actions / env.N_HUNTERS for r in block]
        metrics.append(BlockMetrics(
            start=start, end=end, trials=n,
            safety_target=safety_target,
            within_safety=within_safety,
            within_dangerous=within_dangerous,
            positive_ratio=positive_ratio,
            mean_distance=statistics.fmean(distances) if distances else None,
            steps_mean=statistics.fmean(steps),
            steps_var=statistics.pvariance(steps),
            actions_mean=statistics.fmean(actions),
            actions_var=statistics.pvariance(actions),
        ))
    return metrics


# --- configuration file and report I/O ---------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(item) for item in value)
    if value is None:
        return "none"
    return str(value)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _optional(parse):
    return lambda text: None if text.strip().lower() == "none" else parse(text)


# One parser per field annotation; a field of a new type fails here at import.
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[int, int] | None": _optional(_parse_int_tuple),
    "int | None": _optional(int),
    "tuple[str, str]": lambda text: tuple(part.strip() for part in text.split(",")),
    "tuple[bool, bool]": lambda text: tuple(_parse_bool(part) for part in text.split(",")),
}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def config_to_lines(config: ExperimentConfig, seed: int | None = None) -> list[str]:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(config)]
    if seed is not None:
        lines.append(f"run_seed = {seed}")
    return lines


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse ``key = value`` lines; unknown or repeated keys are errors."""
    overrides = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key == "run_seed":      # emitted in metadata; ignored on re-read
            continue
        if key not in _FIELD_PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: duplicate config key {key!r} "
                             f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        overrides[key] = _FIELD_PARSERS[key](value.strip())
    return replace(base or ExperimentConfig(), **overrides)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), base)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


BLOCK_COLUMNS = ("block_start", "block_end", "trials", "safety_target",
                 "within_safety", "within_dangerous", "positive_ratio",
                 "mean_distance", "steps_mean", "steps_var",
                 "actions_mean", "actions_var")

TRIAL_COLUMNS = ("trial", "steps", "actions", "outcome", "gd_at_capture")


def export_report(metrics: Sequence[BlockMetrics], records: Sequence[TrialRecord],
                  out_dir, config: ExperimentConfig, seed: int) -> None:
    """Write blocks.csv, trials.csv and a metadata file for one run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "blocks.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BLOCK_COLUMNS)
        for m in metrics:
            writer.writerow([_csv_cell(v) for v in (
                m.start, m.end, m.trials, m.safety_target, m.within_safety,
                m.within_dangerous, m.positive_ratio, m.mean_distance,
                m.steps_mean, m.steps_var, m.actions_mean, m.actions_var)])
    with open(out / "trials.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRIAL_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(v) for v in (
                r.trial, r.steps, r.actions, r.outcome.value, r.gd_at_capture)])
    (out / "metadata.txt").write_text(
        "\n".join(config_to_lines(config, seed)) + "\n")


def read_blocks_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run_meta(config: ExperimentConfig) -> dict[str, object]:
    """Header metadata for persisted tables."""
    return {
        "upper_decay": config.upper_decay,
        "reach_discount": config.reach_discount,
        "atf_near": config.atf_near,
        "atf_far": config.atf_far,
        "epsilon_start": config.epsilon_start,
        "epsilon_final": config.epsilon_final,
        "epsilon_anneal_fraction": config.epsilon_anneal_fraction,
    }


def save_learned_tables(out_dir, result: TrainingResult) -> None:
    """Persist per-(hunter, prey) upper banks and per-hunter Q tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = run_meta(result.config)
    grid = env.grid_for(result.config.grid_side)
    encode_module = partial(module_text, grid)
    for agent in result.agents:
        banks = [profit_sharing.WeightTable() for _ in range(env.N_PREY)]
        for (module, cell), weight in agent.upper.weights.items():
            banks[module_prey(grid, module)].weights[module, cell] = weight
        for prey_index, bank in enumerate(banks):
            profit_sharing.save_weights(
                out / f"upper_h{agent.index}_p{prey_index}.tsv", bank, meta,
                encode_state=encode_module, encode_action=grid.cell_text.__getitem__)
        q_learning.save_q_table(out / f"q_h{agent.index}.tsv", agent.q,
                                partial(hmrl.lower_state_text, grid), meta)


def log_instances(result: TrainingResult, path) -> int:
    """Write the windowed training instances as CSV; returns the count."""
    return knowledge.save_instances(path, result.instances)
