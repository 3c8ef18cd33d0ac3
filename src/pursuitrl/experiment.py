"""Training/evaluation harness: trial loop, block metrics, reports.

A run is a sequence of trials. Each trial starts from a fresh random
world and ends at the first capture (either prey) or at the step cap;
the learned tables persist across trials. Metrics are aggregated over
configured trial blocks.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields
from math import inf, isfinite
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import Sequence

from . import env, hmrl, knowledge, q_learning, tableio
from .env import ACTIONS, CANDIDATE_MODES, N_PREY, STAY
from .hmrl import HunterAgent, deliver_rewards
from .knowledge import IfThenRule, Instance, compile_rules, rule_policy_act


RULE_FALLBACKS = ("learner", "stay")
# What capturing a prey is worth: the run's ``reward`` or its ``dangerous_reward``.
PREY_KINDS = ("positive", "dangerous")
MAX_GRID_SIDE = 30
# _RETURN_ACTION[a]: the rule fallback that returns action index a
_RETURN_ACTION = tuple((lambda _offset, action=action: action) for action in ACTIONS)


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 2000
    step_cap: int = 3000
    seeds: int = 0                   # the run's one seed, named as metadata.txt spells it
    atf_enabled: bool = True
    # rewards
    reward: float = 100.0
    dangerous_reward: float = 0.0
    # generic profit-sharing parameters, only recorded with runs: the test
    # oracle's suppression check takes its own PSParams (ROADMAP item 7)
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
        if self.trials < 1 or self.step_cap < 1:
            raise ValueError(f"trials and step_cap must be >= 1, "
                             f"got {self.trials} and {self.step_cap}")
        if self.trajectory_trial is not None and not 1 <= self.trajectory_trial <= self.trials:
            raise ValueError(f"trajectory_trial must be in 1..{self.trials}, "
                             f"got {self.trajectory_trial}")
        if self.grid_side < 3:
            raise ValueError(f"grid_side must be >= 3, got {self.grid_side}")
        if self.grid_side > MAX_GRID_SIDE:
            raise ValueError(f"grid_side must be <= {MAX_GRID_SIDE}, got {self.grid_side}: the "
                             f"Grid tables grow as side**4 (44 MB at side 25, 0.7 GB at 50)")
        for name in ("reward", "dangerous_reward"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if len(self.prey_kinds) != N_PREY or not set(self.prey_kinds) <= set(PREY_KINDS):
            raise ValueError(f"prey_kinds must be {N_PREY} of {PREY_KINDS}, got {self.prey_kinds}")
        if len(self.prey_alive) != N_PREY or not any(self.prey_alive):
            raise ValueError(f"prey_alive must be {N_PREY} flags with at least one on, "
                             f"got {self.prey_alive}")
        if not self.reach_discount >= 1.0:
            raise ValueError(f"reach_discount must be >= 1, got {self.reach_discount}")
        try:        # Grid.reach_divisors raises it to every distance on the grid
            float(self.reach_discount) ** (2 * self.grid_side - 2)
        except OverflowError:
            raise ValueError(f"reach_discount ** {2 * self.grid_side - 2} must fit a float "
                             f"on grid_side {self.grid_side}, got {self.reach_discount}") from None
        if not 0 < self.atf_near < self.atf_far:
            raise ValueError(f"atf_near and atf_far must be 0 < near < far, "
                             f"got {self.atf_near} and {self.atf_far}")
        if not 0.0 < self.upper_decay <= 1.0:       # above 1 the credit diverges
            raise ValueError(f"upper_decay must be in (0, 1], got {self.upper_decay}")
        window = self.instance_window
        if window is not None and not (isinstance(window, tuple)
                                       and tuple(map(type, window)) == (int, int)):
            raise ValueError(f"instance_window must be two trial numbers or none, got {window}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # Every value must read back from the run's metadata.txt as itself.
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                same = _FIELD_PARSERS[f.name](_format_value(value)) == value
            except ValueError:
                same = False
            if not same:
                raise ValueError(f"{f.name} must be {f.type} and read back as itself, "
                                 f"got {value!r}")
        if self.seeds < 0:      # an int by now; Random(-5) would rerun seed 5
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")

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
    outcome: str                 # "positive_captured", "dangerous_captured" or "step_capped"
    gd_at_capture: int | None    # inter-prey distance when captured


@dataclass
class BlockMetrics:
    block_start: int
    block_end: int
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
    records: list[TrialRecord]
    agents: list[HunterAgent]
    instances: list[Instance]
    trajectory: list[tuple[int, str, int, int, str]]


def run_training(config: ExperimentConfig,
                 rules: Sequence[IfThenRule] | None = None) -> TrainingResult:
    """Run one full training (or rule-driven) session.

    With ``rules`` given, each hunter's move is taken from the first
    matching rule and the learner's own epsilon-greedy pick serves as
    the fallback; all learning updates still apply to the action
    actually taken. Fully deterministic for a given ``config.seeds``.

    The lower layer learns after every step (``deliver_rewards``). A
    trial's end is decided once, after its step loop: its outcome and its
    one upper reward (0.0 at the step cap), which ``hmrl.reinforce_upper``
    shares over every hunter's trace.
    """
    rng = Random(config.seeds)
    grid = env.grid_for(config.grid_side)
    compiled = None if rules is None else compile_rules(rules, grid)
    agents = [HunterAgent(index, config) for index in range(env.N_HUNTERS)]

    window = config.instance_window or (max(1, config.trials - 99), config.trials)

    records: list[TrialRecord] = []
    instances: list[Instance] = []
    # the log holds references to one instance per (offset id, action index)
    logged = [[Instance(dx, dy, action) for action in ACTIONS] for dx, dy in grid.offsets]
    trajectory: list[tuple[int, str, int, int, str]] = []
    two_alive = all(config.prey_alive)
    # bound per call, not at import: a wrapper installed after import is called
    step, deliver = env.step, deliver_rewards
    decide = [agent.policy_step for agent in agents]     # N_HUNTERS == 4
    moves = grid.moves
    # fallbacks[chosen]: the rule fallback for the learner's pick, per the fallback mode
    fallbacks = ((_RETURN_ACTION[STAY],) * len(ACTIONS)
                 if config.rule_fallback == "stay" else _RETURN_ACTION)

    for trial in range(1, config.trials + 1):
        if config.strict_reset and trial > 1:
            for agent in agents:
                blank = HunterAgent(agent.index, config)
                agent.upper, agent.q = blank.upper, blank.q
        world = env.new_world(rng.getrandbits(64), config)
        epsilon = config.epsilon_at(trial)
        in_window = window[0] <= trial <= window[1]
        log_trajectory = trial == config.trajectory_trial

        resets = 0
        for _ in range(config.step_cap):
            actions = [decide[0](world, rng, epsilon), decide[1](world, rng, epsilon),
                       decide[2](world, rng, epsilon), decide[3](world, rng, epsilon)]
            if compiled is not None:
                for i, agent in enumerate(agents):
                    lower, chosen, target = agent.pending
                    commanded = rule_policy_act(compiled, lower // N_PREY,
                                                fallback=fallbacks[chosen])
                    # a rule action off the grid leaves the learner's pick
                    if commanded != chosen and moves[world.hunters[i]][commanded] >= 0:
                        agent.pending = (lower, commanded, target)
                        actions[i] = commanded
            if in_window:
                for agent in agents:
                    lower, action, _ = agent.pending
                    instances.append(logged[lower // N_PREY][action])
            if log_trajectory:
                trajectory.extend(env.trajectory_rows(world, actions))

            outcome = step(world, actions, rng)
            resets += sum(deliver(agents, outcome))
            world = outcome.next_state
            if outcome.captures:
                break

        # The trial's end: step_cap >= 1, so outcome is the last step's.
        captures = outcome.captures
        if not captures:
            outcome_kind, reward = "step_capped", 0.0
        elif any(config.prey_kinds[j] == "positive" for j in captures):
            outcome_kind, reward = "positive_captured", config.reward
        else:
            outcome_kind, reward = "dangerous_captured", config.dangerous_reward
        gd = (grid.distance[world.prey[0]][world.prey[1]]
              if captures and two_alive else None)
        for agent in agents:
            hmrl.reinforce_upper(agent.upper, agent.trace, reward, config)
        steps = world.step_count
        records.append(TrialRecord(
            trial=trial, steps=steps, actions=steps * env.N_HUNTERS + resets,
            outcome=outcome_kind, gd_at_capture=gd,
        ))

    return TrainingResult(config=config, records=records, agents=agents,
                          instances=instances, trajectory=trajectory)


def blocks_for(trials: int, block_ends: Sequence[int]) -> list[tuple[int, int]]:
    """Block ranges clipped to the trial count; a tail block covers any
    trials past the last configured end (``block_ends`` rise, as the config checks)."""
    ends = [e for e in block_ends if e < trials] + [trials]
    return list(zip([1] + [e + 1 for e in ends[:-1]], ends))


def compute_metrics(records: Sequence[TrialRecord],
                    config: ExperimentConfig) -> list[BlockMetrics]:
    """Per-block capture and step statistics over the config's blocks of
    ``records``, trials 1..n in order as :func:`run_training` returns them.

    positive_ratio is defined as the product safety_target *
    within_safety so the identity between the three ratios is exact.
    """
    if not records:
        raise ValueError("no trial records")
    metrics: list[BlockMetrics] = []
    for start, end in blocks_for(len(records), config.block_ends):
        block = records[start - 1:end]
        n = len(block)
        positives = [r for r in block if r.outcome == "positive_captured"]
        far = [r for r in positives
               if r.gd_at_capture is not None and r.gd_at_capture > config.atf_near]
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
            block_start=start, block_end=end, trials=n,
            safety_target=safety_target,
            within_safety=within_safety,
            within_dangerous=within_dangerous,
            positive_ratio=positive_ratio,
            mean_distance=statistics.fmean(distances) if distances else None,
            steps_mean=statistics.fmean(steps),
            steps_var=float(statistics.pvariance(steps)),
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


def config_to_lines(config: ExperimentConfig) -> list[str]:
    return [f"{f.name} = {_format_value(getattr(config, f.name))}"
            for f in fields(config)] + [f"run_seed = {config.seeds}"]


def parse_config(text: str) -> ExperimentConfig:
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
        try:
            overrides[key] = _FIELD_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**overrides)


def load_config(path) -> ExperimentConfig:
    """:func:`parse_config` of a file; its errors start with the path."""
    try:
        return parse_config(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


BLOCK_COLUMNS = tuple(f.name for f in fields(BlockMetrics))

_RATIO_FIELDS = ("safety_target", "within_safety", "within_dangerous", "positive_ratio")

TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def export_report(metrics: Sequence[BlockMetrics], records: Sequence[TrialRecord],
                  out_dir, config: ExperimentConfig) -> None:
    """Write blocks.csv, trials.csv and a metadata file for one run; each
    CSV row is its record's fields as they are (:func:`tableio.save_csv`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, columns, rows in (("blocks.csv", BLOCK_COLUMNS, metrics),
                                ("trials.csv", TRIAL_COLUMNS, records)):
        tableio.save_csv(out / name, columns, map(attrgetter(*columns), rows))
    (out / "metadata.txt").write_text(
        "\n".join(config_to_lines(config)) + "\n")


def read_blocks_csv(path) -> list[BlockMetrics]:
    """The blocks of a blocks.csv; a cell that does not parse as its
    :class:`BlockMetrics` field (empty for ``None``), or holds a figure no
    run writes, raises naming the line: a block must hold every one of its
    trials, a ratio lie in [0, 1], and a mean, variance or distance be
    finite and >= 0. The first block starts at trial 1, and each later one
    a trial past the end of the block before it."""
    def row(*cells: str) -> BlockMetrics:
        start, end, trials = map(int, cells[:3])        # the int fields come first
        if not (1 <= start <= end and trials == end - start + 1):
            raise ValueError(f"block {start}-{end} cannot hold {trials} trials")
        values = [start, end, trials]
        for f, cell in zip(fields(BlockMetrics)[3:], cells[3:]):
            value = None
            if cell or f.type != "float | None":
                value, top = float(cell), 1.0 if f.name in _RATIO_FIELDS else inf
                if not isfinite(value):
                    raise ValueError(f"{f.name} is not finite: {cell!r}")
                if not 0.0 <= value <= top:
                    raise ValueError(f"{f.name} must be in [0, {top:g}], got {cell!r}")
            values.append(value)
        return BlockMetrics(*values)
    blocks = tableio.load_csv(path, BLOCK_COLUMNS, row)
    start = 1
    for lineno, block in enumerate(blocks, start=2):   # no row spans lines
        if block.block_start != start:
            raise ValueError(f"{path}:{lineno}: block {block.block_start}-{block.block_end} "
                             f"does not start at trial {start}")
        start = block.block_end + 1
    return blocks


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
    hmrl.save_upper_banks(out, [agent.upper for agent in result.agents], grid, meta)
    lower_texts = hmrl.lower_state_texts(grid)
    for agent in result.agents:
        q_learning.save_q_table(out / f"q_h{agent.index}.tsv", agent.q, lower_texts, meta)


def log_instances(result: TrainingResult, path) -> int:
    """Write the windowed training instances as CSV; returns the count."""
    return knowledge.save_instances(path, result.instances)
