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
    run_training,
)
from .hmrl import (
    ATFieldParams,
    HunterAgent,
    atf,
    deliver_rewards,
    reinforce_upper,
    select_target,
)
from .knowledge import (
    IfThenRule,
    Instance,
    compile_rules,
    extract_rules,
    gain_ratio,
    induce_tree,
    rule_policy_act,
)
from .profit_sharing import PSParams, WeightTable, check_suppression
from .q_learning import QTable, epsilon_greedy, q_update

__version__ = "0.1.0"
