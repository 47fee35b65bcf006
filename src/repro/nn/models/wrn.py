"""WideResNet (the paper's "WRN" workload, WideResNet28-10 on CIFAR-100).

Pre-activation residual blocks in the BN→ReLU→Conv→Dropout→BN→ReLU→Conv
layout. Each block's main branch is registered as ``residual`` so parameter
names come out as e.g. ``conv3.0.residual.0.bias`` (first BN's β) and
``conv4.2.residual.6.weight`` (second conv) — the names the paper's Fig. 3c
and Fig. 5c quote.

Depth follows the WRN convention ``depth = 6n + 4`` with ``n`` blocks per
group; the micro-scale default is depth 10 (n = 1) with widen factor 1,
while ``depth=28, widen_factor=10`` reproduces the paper's architecture.
"""

from __future__ import annotations

import numpy as np

from ..conv import Conv2d
from ..layers import Dropout, Identity, Linear, ReLU, Sequential
from ..module import Module
from ..norm import BatchNorm2d, GroupNorm2d
from ..pooling import GlobalAvgPool2d


def _make_norm(kind: str, channels: int):
    """Norm-layer factory: ``"batch"`` (the paper's WRN) or ``"group"``
    (the stateless FL-friendly alternative; groups = min(4, channels))."""
    if kind == "batch":
        return BatchNorm2d(channels)
    if kind == "group":
        groups = 4 if channels % 4 == 0 else 1
        return GroupNorm2d(groups, channels)
    raise ValueError(f"unknown norm kind {kind!r}; expected 'batch' or 'group'")

__all__ = ["ResidualBlock", "WideResNet"]


class ResidualBlock(Module):
    """Pre-activation wide residual block.

    ``residual`` indices: 0 BN, 1 ReLU, 2 Conv3x3, 3 Dropout, 4 BN, 5 ReLU,
    6 Conv3x3. The shortcut is identity when geometry is preserved, else a
    strided 1×1 conv (registered as ``shortcut``).
    """

    rowwise = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        *,
        dropout: float = 0.0,
        norm: str = "batch",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.residual = Sequential(
            _make_norm(norm, in_channels),
            ReLU(),
            Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng),
            Dropout(dropout, rng=rng),
            _make_norm(norm, out_channels),
            ReLU(),
            Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng),
        )
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Conv2d(
                in_channels, out_channels, 1, stride=stride, bias=False, rng=rng
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.residual(x) + self.shortcut(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.residual.backward(grad_out) + self.shortcut.backward(grad_out)


class WideResNet(Module):
    """conv1 → conv2 group → conv3 group → conv4 group → BN/ReLU → GAP → fc."""

    def __init__(
        self,
        *,
        depth: int = 10,
        widen_factor: int = 1,
        in_channels: int = 3,
        num_classes: int = 20,
        base_width: int = 4,
        dropout: float = 0.0,
        norm: str = "batch",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if (depth - 4) % 6 != 0:
            raise ValueError(f"WRN depth must satisfy depth = 6n + 4, got {depth}")
        n = (depth - 4) // 6
        widths = [base_width, base_width * widen_factor,
                  2 * base_width * widen_factor, 4 * base_width * widen_factor]
        self.conv1 = Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng)
        self.conv1.compute_dx = False  # nothing consumes the image gradient
        self.conv2 = self._make_group(widths[0], widths[1], n, stride=1, dropout=dropout, norm=norm, rng=rng)
        self.conv3 = self._make_group(widths[1], widths[2], n, stride=2, dropout=dropout, norm=norm, rng=rng)
        self.conv4 = self._make_group(widths[2], widths[3], n, stride=2, dropout=dropout, norm=norm, rng=rng)
        self.bn = _make_norm(norm, widths[3])
        self.relu = ReLU()
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[3], num_classes, rng=rng)
        self._chain = [self.conv1, self.conv2, self.conv3, self.conv4,
                       self.bn, self.relu, self.pool, self.fc]

    @staticmethod
    def _make_group(
        in_channels: int, out_channels: int, n: int, *, stride: int,
        dropout: float, norm: str, rng: np.random.Generator,
    ) -> Sequential:
        blocks = [ResidualBlock(in_channels, out_channels, stride, dropout=dropout, norm=norm, rng=rng)]
        for _ in range(n - 1):
            blocks.append(ResidualBlock(out_channels, out_channels, 1, dropout=dropout, norm=norm, rng=rng))
        return Sequential(*blocks)

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
