"""``repro.core`` — the FedCA mechanism (paper §4).

Statistical-progress metric, periodical-sampling profiler, utility-guided
early stopping, and eager transmission with error feedback.
"""

from .config import FedCAConfig
from .eager import NEVER, EagerSchedule
from .earlystop import EarlyStopDecision, EarlyStopPolicy
from .profiler import AnchorRecorder, ProfiledCurves, is_anchor_round
from .progress import cosine_similarity, progress_curve, statistical_progress
from .retransmit import deviated_layers
from .sampling import LayerSampler, sample_size
from .utility import marginal_benefit, marginal_cost

__all__ = [
    "FedCAConfig",
    "statistical_progress",
    "cosine_similarity",
    "progress_curve",
    "LayerSampler",
    "sample_size",
    "AnchorRecorder",
    "ProfiledCurves",
    "is_anchor_round",
    "marginal_benefit",
    "marginal_cost",
    "EarlyStopPolicy",
    "EarlyStopDecision",
    "EagerSchedule",
    "NEVER",
    "deviated_layers",
]
