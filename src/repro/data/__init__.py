"""``repro.data`` — synthetic datasets, non-IID partitioning, batching."""

from .datasets import WORKLOAD_NAMES, make_workload_data, train_test_split
from .loader import BatchStream
from .partition import (
    dirichlet_clients_indices,
    dirichlet_partition,
    dirichlet_shard_sizes,
    iid_partition,
)
from .synthetic import Dataset, make_image_dataset, make_sequence_dataset

__all__ = [
    "Dataset",
    "make_image_dataset",
    "make_sequence_dataset",
    "dirichlet_partition",
    "dirichlet_clients_indices",
    "dirichlet_shard_sizes",
    "iid_partition",
    "BatchStream",
    "train_test_split",
    "make_workload_data",
    "WORKLOAD_NAMES",
]
