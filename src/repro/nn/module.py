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
from typing import Iterator, NamedTuple

import numpy as np

from ..rngstate import rng_state_bytes, set_rng_state
from .parameter import Parameter

__all__ = ["Module"]


class _Walk(NamedTuple):
    """One depth-first walk of a module tree. A buffer slot is ``(dotted_name,
    owner, local_name)`` — the owning module, not the array, so a container
    never holds a descendant's tensors. ``rngs`` are the distinct generators
    the tree's layers draw from, in ``named_modules()`` order (by identity:
    WideResNet's dropouts share one); a layer picks its generator when it is
    built, so the list is as stable as the tree."""

    stamp: object
    named_parameters: list[tuple[str, Parameter]]
    parameters: list[Parameter]
    buffer_slots: list[tuple[str, "Module", str]]
    rngs: list[np.random.Generator]


class Module:
    """Base layer with parameter registration and mode switching."""

    #: Replaced whenever any module registers a Parameter, buffer or
    #: submodule. A module cannot see registrations on its descendants, so
    #: every cached tree walk (:meth:`_walk`) is stamped with this token and
    #: rebuilt once stale (an ``object()``, not a counter, so a stamp that
    #: went through pickle or deepcopy never matches).
    _structure_token = object()

    #: Leading member axes of this module's parameters and inputs: ``()``
    #: for a replica, ``(C,)`` once :func:`repro.nn.cohort.stack_module`
    #: re-pointed the parameters at ``(C, *shape)`` stacks.
    lead: tuple[int, ...] = ()

    #: On a stack, each member's valid batch rows this step (0: it sits the
    #: step out): one ``(C,)`` array every module of the tree shares,
    #: rewritten by ``CohortModel.set_member_rows`` and read by the layers
    #: whose result depends on which rows are real.
    rows: np.ndarray | None = None

    def __init__(self) -> None:
        # OrderedDicts keep parameter order deterministic, which matters for
        # flattened-update comparisons in tests and for reproducible
        # intra-layer sampling.
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_walk_cache", None)

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
        Module._structure_token = object()
        object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _walk(self) -> _Walk:
        """This tree's walk, cached until the next registration anywhere."""
        cache = self._walk_cache
        if cache is None or cache.stamp is not Module._structure_token:
            named = list(self._iter_named_parameters(""))
            cache = _Walk(
                Module._structure_token,
                named,
                [p for _, p in named],
                list(self._iter_buffer_slots("")),
                self._tree_rngs(),
            )
            object.__setattr__(self, "_walk_cache", cache)
        return cache

    def _iter_named_parameters(self, prefix: str) -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            full = f"{prefix}{name}"
            if not param.name:
                param.name = full
            yield full, param
        for name, module in self._modules.items():
            yield from module._iter_named_parameters(f"{prefix}{name}.")

    def _iter_buffer_slots(self, prefix: str) -> Iterator[tuple[str, "Module", str]]:
        for name in self._buffers:
            yield f"{prefix}{name}", self, name
        for name, module in self._modules.items():
            yield from module._iter_buffer_slots(f"{prefix}{name}.")

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` pairs, depth-first.

        Also stamps each parameter's ``.name`` so that error messages and
        the FedCA profiler can identify buffers without carrying the module
        tree around. Without a prefix the pairs come from the cached walk.
        """
        if prefix:
            return self._iter_named_parameters(prefix)
        return iter(self._walk().named_parameters)

    def parameters(self) -> list[Parameter]:
        """All parameters, depth-first (matching ``named_parameters``).

        The list is cached until the next registration anywhere; treat it
        as read-only.
        """
        return self._walk().parameters

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, array)`` for every registered buffer."""
        slots = self._iter_buffer_slots(prefix) if prefix else self._walk().buffer_slots
        return ((full, owner._buffers[name]) for full, owner, name in slots)

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and descendants."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def layer_bytes(self) -> dict[str, int]:
        """Per-layer parameter bytes by dotted name — what every simulated
        transmission time is computed from."""
        return {name: p.nbytes for name, p in self._walk().named_parameters}

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
    # Layer RNG (dropout masks): the one piece of a replica that neither
    # ``load_state_dict`` nor ``load_buffer_dict`` overwrites
    # ------------------------------------------------------------------
    def _layer_rng(self) -> np.random.Generator | None:
        """The generator this layer draws from while training, if any."""
        return None

    def _tree_rngs(self) -> list[np.random.Generator]:
        found: dict[int, np.random.Generator] = {}
        for _, module in self.named_modules():
            rng = module._layer_rng()
            if rng is not None:
                found.setdefault(id(rng), rng)
        return list(found.values())

    def rng_state(self) -> list[bytes]:
        """Stream position of every generator a layer draws from; empty —
        without a walk — for a model that draws nothing."""
        return [rng_state_bytes(rng) for rng in self._walk().rngs]

    def load_rng_state(self, states: list[bytes]) -> None:
        """Inverse of :meth:`rng_state`."""
        rngs = self._walk().rngs
        if len(states) != len(rngs):
            raise ValueError(
                f"rng state for {len(states)} generators, model has {len(rngs)}"
            )
        for rng, state in zip(rngs, states):
            set_rng_state(rng, state)

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
