"""Deterministic hierarchical federated learning simulator with mobile
clients, plus empirical checks of its convergence bounds."""

__version__ = "0.1.0"

from .datasets import (  # noqa: F401
    LabeledDataset, PartitionSpec, Shard,
    generate_synthetic, load_csv, partition, shared_input_shards,
    train_test_split, union_of_shards,
)
from .models import ModelSpec, estimate_constants, gradient, loss, solve_optimum  # noqa: F401
from .mobility import RoadNetwork, associate, init_positions  # noqa: F401
from .engine import HflConfig, run  # noqa: F401
