"""LeNet-style CNN (the paper's "CNN" workload, LeNet-5 on CIFAR-10).

Layer names (``conv1``, ``conv2``, ``fc1``, ``fc2``, ``fc3``) match the names
quoted in the paper's Fig. 3 (``fc2.weight``, ``conv2.weight``). Geometry is
parameterised so the micro-scale synthetic dataset (e.g. 12×12×3) and a
CIFAR-shaped 32×32×3 both work.
"""

from __future__ import annotations

import numpy as np

from ..conv import Conv2d
from ..layers import Flatten, Linear, ReLU
from ..module import Module
from ..pooling import MaxPool2d

__all__ = ["LeNetCNN"]


class LeNetCNN(Module):
    """conv1 → pool → ReLU → conv2 → pool → ReLU → fc1 → fc2 → fc3.

    Each conv block pools before its ReLU: max pooling and ReLU commute
    bytes-for-bytes, forward and backward (DESIGN.md §17), and the ReLU
    then runs on a quarter of the elements. The modules are registered in
    the conventional conv → ReLU → pool order, so parameter names and the
    arena layout do not depend on the order ``stages()`` runs them in.
    """

    def __init__(
        self,
        *,
        in_channels: int = 3,
        image_size: int = 12,
        num_classes: int = 10,
        conv_channels: tuple[int, int] = (6, 16),
        fc_sizes: tuple[int, int] = (48, 24),
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        c1, c2 = conv_channels
        self.conv1 = Conv2d(in_channels, c1, 3, padding=1, rng=rng)
        self.conv1.compute_dx = False  # nothing consumes the image gradient
        self.relu1 = ReLU()
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(c1, c2, 3, padding=1, rng=rng)
        self.relu2 = ReLU()
        self.pool2 = MaxPool2d(2)
        self.flatten = Flatten()
        side = image_size // 4  # two 2x pools
        if side < 1:
            raise ValueError(f"image_size {image_size} too small for two pools")
        flat = c2 * side * side
        f1, f2 = fc_sizes
        self.fc1 = Linear(flat, f1, rng=rng)
        self.relu3 = ReLU()
        self.fc2 = Linear(f1, f2, rng=rng)
        self.relu4 = ReLU()
        self.fc3 = Linear(f2, num_classes, rng=rng)
        self._chain = [
            self.conv1, self.pool1, self.relu1,
            self.conv2, self.pool2, self.relu2,
            self.flatten,
            self.fc1, self.relu3,
            self.fc2, self.relu4,
            self.fc3,
        ]

    def stages(self) -> list[Module]:
        return self._chain

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self._chain:
            x = module(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for module in reversed(self._chain):
            grad_out = module.backward(grad_out)
        return grad_out
