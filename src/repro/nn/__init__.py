"""``repro.nn`` — a minimal manual-backprop neural-network substrate.

Replaces the paper's PyTorch dependency: layers, losses, optimisers and the
three workload models (CNN / LSTM / WideResNet), all in vectorised NumPy.
"""

from .cohort import (
    CohortModel,
    CohortSGD,
    cohort_softmax_cross_entropy,
    stack_module,
)
from .conv import Conv2d
from .layers import Dropout, Flatten, Identity, Linear, ReLU, Sequential
from .loss import softmax_cross_entropy
from .models import LeNetCNN, LSTMClassifier, ResidualBlock, WideResNet, build_model
from .module import Module
from .norm import BatchNorm2d, GroupNorm2d
from .optim import SGD, ProxSGD
from .parameter import Parameter
from .pooling import GlobalAvgPool2d, MaxPool2d
from .rnn import LSTM

__all__ = [
    "Parameter", "Module", "Sequential", "Linear", "ReLU", "Flatten",
    "Dropout", "Identity", "Conv2d", "MaxPool2d",
    "GlobalAvgPool2d", "BatchNorm2d",
    "GroupNorm2d", "LSTM", "SGD", "ProxSGD",
    "softmax_cross_entropy",
    "LeNetCNN", "LSTMClassifier", "WideResNet", "ResidualBlock", "build_model",
    "CohortModel", "CohortSGD", "stack_module", "cohort_softmax_cross_entropy",
]
