"""``repro.runtime`` — the in-process federated-learning simulator."""

from .aggregation import (
    aggregate_buffers,
    aggregate_updates,
    apply_update,
    collect_earliest,
    weighted_segment_sum,
)
from .client import SimClient
from .cohort import CohortEngine, CohortExecutor
from .executor import Binding, Executor, SerialExecutor, resolve_executor
from .history import (
    ClientEventTable,
    RoundRecord,
    RunHistory,
    history_from_dict,
    history_to_dict,
    history_to_json,
)
from .parallel import ParallelExecutor
from .round import ClientRoundResult, RoundContext
from .transport import ShmTransport, shm_available
from .selection import select_clients
from .simulator import FederatedSimulator
from .wire import WireLayer, parse_wire_spec

__all__ = [
    "FederatedSimulator",
    "SimClient",
    "Binding",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "CohortExecutor",
    "CohortEngine",
    "resolve_executor",
    "ShmTransport",
    "shm_available",
    "RoundContext",
    "ClientRoundResult",
    "ClientEventTable",
    "RoundRecord",
    "RunHistory",
    "aggregate_updates",
    "aggregate_buffers",
    "apply_update",
    "collect_earliest",
    "weighted_segment_sum",
    "WireLayer",
    "parse_wire_spec",
    "select_clients",
    "history_to_dict",
    "history_to_json",
    "history_from_dict",
]
