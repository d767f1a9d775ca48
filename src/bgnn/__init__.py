"""Boosted sequential knowledge distillation for graph neural networks."""

__version__ = "0.1.0"
