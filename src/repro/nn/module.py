"""Base class for manual-backprop layers and containers.

Mirrors the small slice of ``torch.nn.Module`` that the paper's artifacts
rely on: attribute-based submodule/parameter registration, dotted
``named_parameters()`` (FedCA addresses layers by names such as
``"conv2.weight"`` or ``"rnn.weight_hh_l0"``), train/eval mode, and
``state_dict`` round-trips for model broadcast and aggregation.

Unlike torch there is no autograd tape: each module caches whatever it needs
during :meth:`forward` and consumes the cache in :meth:`backward`. A module
is therefore single-flight — one forward must be followed by its backward
before the next forward. The FL client loop (one batch per local iteration)
satisfies this by construction.

Every layer is written once over ``(*lead, N, …)`` inputs and
``(*lead, *shape)`` parameters: ``lead`` is ``()`` for a client's own
replica and ``(C,)`` for a cohort of ``C`` clients stacked along a leading
member axis (:func:`repro.nn.cohort.stack_module`). Layers index from the
trailing axes, so the same ``forward``/``backward`` serves both.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .parameter import Parameter

__all__ = ["Module"]


class Module:
    """Base layer with parameter registration and mode switching."""

    #: Replaced whenever any module registers a Parameter or submodule. A
    #: module cannot see registrations on its descendants, so every cached
    #: :meth:`parameters` list is stamped with this token and rebuilt once
    #: stale (an ``object()``, not a counter, so a stamp that went through
    #: pickle or deepcopy never matches).
    _structure_token = object()

    #: Leading member axes of this module's parameters and inputs: ``()``
    #: for a replica, ``(C,)`` once :func:`repro.nn.cohort.stack_module`
    #: re-pointed the parameters at ``(C, *shape)`` stacks.
    lead: tuple[int, ...] = ()

    #: Why this layer cannot run over a stack (``None``: it can).
    unstackable: str | None = None

    def __init__(self) -> None:
        # OrderedDicts keep parameter order deterministic, which matters for
        # flattened-update comparisons in tests and for reproducible
        # intra-layer sampling.
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_param_cache", None)

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.register_parameter(name, value)
            return
        if isinstance(value, Module):
            self._modules[name] = value
            Module._structure_token = object()
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Register a parameter under a name that is not a valid attribute
        (e.g. ``weight_ih_l0`` lives in a dict inside :class:`LSTM`)."""
        self._parameters[name] = param
        Module._structure_token = object()
        object.__setattr__(self, name, param)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable state tensor (e.g. BatchNorm running
        statistics). Buffers are synchronised between server and clients
        alongside parameters, but never receive gradients and never enter
        the accumulated-update math; mutate them in place only."""
        arr = np.ascontiguousarray(value, dtype=np.float32)
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` pairs, depth-first.

        Also stamps each parameter's ``.name`` so that error messages and
        the FedCA profiler can identify buffers without carrying the module
        tree around.
        """
        for name, param in self._parameters.items():
            full = f"{prefix}{name}"
            if not param.name:
                param.name = full
            yield full, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters, depth-first (matching ``named_parameters``).

        The list is cached until the next registration anywhere; treat it
        as read-only.
        """
        cache = self._param_cache
        if cache is None or cache[0] is not Module._structure_token:
            cache = (Module._structure_token, [p for _, p in self.named_parameters()])
            object.__setattr__(self, "_param_cache", cache)
        return cache[1]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, array)`` for every registered buffer."""
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and descendants."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (paper quotes 60K/50K/36M)."""
        return sum(p.size for p in self.parameters())

    def nbytes(self) -> int:
        """Total transmission size of the model in bytes."""
        return sum(p.nbytes for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout/BatchNorm)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (``train(False)``)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset every parameter's accumulated gradient."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # State round-trips (model broadcast / aggregation)
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter value keyed by dotted name."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values in place. Every model parameter must be present and
        shape-compatible; extra keys are an error (they indicate a model
        mismatch between server and client)."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        extra = state.keys() - own.keys()
        if missing or extra:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model {param.data.shape}, "
                    f"state {value.shape}"
                )
            param.data[...] = value

    def buffer_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every buffer value keyed by dotted name (may be empty)."""
        return OrderedDict((name, b.copy()) for name, b in self.named_buffers())

    def load_buffer_dict(self, buffers: dict[str, np.ndarray]) -> None:
        """Load buffer values in place; every model buffer must be present."""
        own = dict(self.named_buffers())
        missing = own.keys() - buffers.keys()
        extra = buffers.keys() - own.keys()
        if missing or extra:
            raise KeyError(
                f"buffer_dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, buf in own.items():
            value = np.asarray(buffers[name], dtype=np.float32)
            if value.shape != buf.shape:
                raise ValueError(f"shape mismatch for buffer {name}")
            buf[...] = value

    # ------------------------------------------------------------------
    # Interface expected from subclasses
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
