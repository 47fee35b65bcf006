"""``repro.algorithms`` — FedAvg, FedProx, FedAda and FedCA strategies."""

from .base import OptimizerSpec, RoundMember, Strategy
from .deadline_stop import DeadlineStop
from .extensions import FedCAAdaptiveBatch
from .fedada import FedAda, fedada_budget
from .fedavg import FedAvg
from .fedca import FedCA
from .fedprox import FedProx
from .registry import STRATEGY_NAMES, build_strategy

__all__ = [
    "Strategy",
    "OptimizerSpec",
    "RoundMember",
    "FedAvg",
    "FedProx",
    "FedAda",
    "fedada_budget",
    "FedCA",
    "FedCAAdaptiveBatch",
    "DeadlineStop",
    "build_strategy",
    "STRATEGY_NAMES",
]
