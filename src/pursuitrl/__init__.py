"""Hierarchical modular reinforcement learning for the two-prey pursuit
world, with decision-tree distillation of the learned policy."""

__version__ = "0.1.0"
