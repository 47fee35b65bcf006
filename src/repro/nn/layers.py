"""Dense layers, activations, dropout and the Sequential container."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Linear", "ReLU", "Tanh", "Flatten", "Dropout", "Sequential", "Identity"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over ``(*lead, N, in_features)``,
    with torch-compatible naming.

    ``weight`` has shape ``(out_features, in_features)`` so dotted names like
    ``fc2.weight`` match the layer names quoted in the paper's figures.
    """

    #: Set False on a model's first layer: nothing consumes its input
    #: gradient, so ``backward`` skips dX and returns ``None``.
    compute_dx: bool = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x if self.training else None
        out = np.matmul(x, self.weight.data.swapaxes(-1, -2))
        if self.bias is not None:
            out += self.bias.data[..., None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        x = self._x
        if x is None:
            raise RuntimeError("Linear.backward called before forward")
        self._x = None
        self.weight.grad += np.matmul(grad_out.swapaxes(-1, -2), x)
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=-2)
        if not self.compute_dx:
            return None
        return np.matmul(grad_out, self.weight.data)


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The boolean mask is a quarter of the bytes of the float32 input.
        self._mask = x > 0.0 if self.training else None
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward called before forward")
        mask, self._mask = self._mask, None
        return grad_out * mask


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Tanh.backward called before forward")
        out, self._out = self._out, None
        return grad_out * (1.0 - out**2)


class Flatten(Module):
    """Collapse every axis after ``(*lead, N)``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[: len(self.lead) + 1] + (-1,))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The mask RNG is local to the layer so that two clients training the same
    architecture do not share dropout randomness unless explicitly seeded.
    Over a stack the layer therefore draws nothing from its own RNG: member
    ``i``'s rows come from ``members[i]`` — that client's own replica of
    this layer — in member order, ``rows[i]`` of them (its valid batch rows;
    0 for a member that sits this step out), so every client's stream
    advances exactly as it does when the client trains alone.
    """

    #: Set on a stacked layer by ``CohortModel``, per chunk.
    members: "list[Dropout] | None" = None

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def _layer_rng(self) -> np.random.Generator | None:
        return self._rng if self.p > 0.0 else None

    def _draw(self, shape: tuple[int, ...]) -> np.ndarray:
        keep = 1.0 - self.p
        return (self._rng.random(shape) < keep).astype(np.float32) / keep

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        if not self.lead:
            self._mask = self._draw(x.shape)
        else:
            self._mask = np.zeros_like(x, dtype=np.float32)
            for i, (member, b) in enumerate(zip(self.members, self.rows)):
                if b:
                    self._mask[i, :b] = member._draw((int(b),) + x.shape[2:])
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            return grad_out
        return grad_out * mask


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Ordered chain of modules; backward replays the chain in reverse."""

    def __init__(self, *modules: Module, names: list[str] | None = None) -> None:
        super().__init__()
        if names is not None and len(names) != len(modules):
            raise ValueError("names must match modules one-to-one")
        self._order: list[str] = []
        for idx, module in enumerate(modules):
            name = names[idx] if names is not None else str(idx)
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self:
            x = module(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for name in reversed(self._order):
            grad_out = getattr(self, name).backward(grad_out)
        return grad_out
