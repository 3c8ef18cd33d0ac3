"""Hierarchical modular reinforcement learning for the two-prey pursuit
world, with decision-tree distillation of the learned policy."""

from .env import (
    Action,
    Grid,
    GridConfig,
    Position,
    PreyKind,
    StepOutcome,
    WorldState,
    grid_for,
    is_captured,
    legal_moves,
    manhattan_distance,
    new_world,
    step,
)
from .experiment import (
    BlockMetrics,
    ExperimentConfig,
    TrainingResult,
    TrialOutcome,
    TrialRecord,
    compute_metrics,
    export_report,
    run_rule_eval,
    run_training,
)
from .hmrl import (
    ATFieldParams,
    HunterAgent,
    TargetChoice,
    UpperTrace,
    atf,
    deliver_rewards,
    reinforce_upper,
    select_target,
)
from .knowledge import (
    IfThenRule,
    Instance,
    extract_rules,
    gain_ratio,
    induce_tree,
    rule_policy_act,
)
from .profit_sharing import (
    EpisodeTrace,
    PSParams,
    WeightTable,
    check_suppression,
    reinforce_episode,
    reinforcement_value,
    select_by_weight,
)
from .q_learning import ExplicitMDP, QTable, epsilon_greedy, q_update, solve_value_iteration

__version__ = "0.1.0"
