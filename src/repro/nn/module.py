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

Storage is flat: every ``Parameter.data`` and ``.grad`` is a view into one
``(*lead, P)`` float32 vector each, and every buffer into one
``(*lead, B)`` vector, laid out by the tree's two
:class:`~repro.nn.layout.Layout` tables (:meth:`Module.arena`). Whatever
operates on the whole model — ``zero_grad``, the optimisers, state loads
and copies — is one vector operation.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from ..rngstate import rng_state_bytes, set_rng_state
from .layout import Layout
from .parameter import Parameter

__all__ = ["Module"]


class _Walk(NamedTuple):
    """One depth-first walk of a module tree and the arena it lays out. A
    buffer slot is ``(dotted_name, owner, local_name)`` — the owning module,
    not the array, so a container never holds a descendant's tensors.
    ``rngs`` are the distinct generators the tree's layers draw from, in
    ``named_modules()`` order (by identity: WideResNet's dropouts share
    one); a layer picks its generator when it is built, so the list is as
    stable as the tree. ``values``/``grads`` (``(*lead, P)``) and
    ``buffers`` (``(*lead, B)``) are the vectors every parameter, gradient
    and buffer is a view of, at the offsets ``layout`` and
    ``buffer_layout`` give."""

    stamp: object
    named_parameters: list[tuple[str, Parameter]]
    parameters: list[Parameter]
    buffer_slots: list[tuple[str, "Module", str]]
    rngs: list[np.random.Generator]
    layout: Layout
    buffer_layout: Layout
    values: np.ndarray
    grads: np.ndarray
    buffers: np.ndarray


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _arena_of(
    arrays: list[np.ndarray], layout: Layout, lead: tuple[int, ...]
) -> np.ndarray | None:
    """The ``(*lead, size)`` vector ``arrays`` already are views of at
    ``layout``'s offsets — a whole arena, a descendant's run inside an
    ancestor's, or the first ``lead[0]`` rows of a wider stack's (a
    narrowed ``CohortModel``) — else ``None``. Strides are compared only on
    lead axes longer than 1: NumPy leaves a length-1 axis's stride
    arbitrary."""
    if not arrays:
        return None
    base = arrays[0].base
    if (
        not isinstance(base, np.ndarray)
        or base.dtype != np.float32
        or len(base.shape) != len(lead) + 1
        or base.shape[1:-1] != lead[1:]
        or base.shape[:1] < lead[:1]
        or not base.flags.c_contiguous
    ):
        return None
    origin = _address(arrays[0])
    start = (origin - _address(base)) // 4
    for a, (_, offset, shape) in zip(arrays, layout.entries):
        if (
            a.base is not base
            or a.shape != lead + shape
            or any(
                s != t for n, s, t in zip(lead, a.strides, base.strides) if n > 1
            )
            or _address(a) != origin + 4 * offset
        ):
            return None
    if lead and base.shape[0] != lead[0]:
        base = base[: lead[0]]
    if start == 0 and base.shape[-1] == layout.size:
        return base  # the whole arena: hand back the vector itself
    return base[..., start : start + layout.size]


def _place(
    arrays: list[np.ndarray], layout: Layout, lead: tuple[int, ...]
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """``(vector, None)`` when ``arrays`` already live in one; else a new
    vector holding their values and the views to re-point them at."""
    arena = _arena_of(arrays, layout, lead)
    if arena is not None:
        return arena, None
    arena = np.zeros(lead + (layout.size,), dtype=np.float32)
    views = list(layout.views(arena).values())
    for view, a in zip(views, arrays):
        np.copyto(view, a)
    return arena, views


def _arrays(value) -> Iterator[np.ndarray]:
    """The ndarrays ``value`` is or holds through tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


class Module:
    """Base layer with parameter registration and mode switching."""

    #: Eval-mode output row ``i`` depends on input row ``i`` alone, so the
    #: layer may run over a batch in row chunks with the bytes of one pass.
    #: A container sets it for its own composition; :attr:`row_independent`
    #: also asks every child.
    rowwise: bool = False

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
        self._set_buffer(name, np.ascontiguousarray(value, dtype=np.float32))
        Module._structure_token = object()

    def _set_buffer(self, name: str, arr: np.ndarray) -> None:
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _walk(self) -> _Walk:
        """This tree's walk, cached until the next registration anywhere.

        Rebuilding it adopts the vectors the tensors already are views of;
        only a tree whose tensors are not laid out yet (just built, grown,
        copied) gets new vectors, and its parameters, gradients and
        buffers are re-pointed into them. Re-pointing retires every other
        cached walk too — a walked descendant then adopts its run of this
        arena instead of keeping one of its own."""
        cache = self._walk_cache
        if cache is None or cache.stamp is not Module._structure_token:
            lead = self.lead
            named = list(self._iter_named_parameters(""))
            params = [p for _, p in named]
            slots = list(self._iter_buffer_slots(""))
            owned = [owner._buffers[local] for _, owner, local in slots]
            layout = Layout.of(
                tuple((name, p.data.shape[len(lead):]) for name, p in named)
            )
            buffer_layout = Layout.of(
                tuple((name, b.shape[len(lead):]) for (name, _, _), b in zip(slots, owned))
            )
            values, value_views = _place([p.data for p in params], layout, lead)
            grads, grad_views = _place([p.grad for p in params], layout, lead)
            buffers, buffer_views = _place(owned, buffer_layout, lead)
            if value_views is not None:
                for p, view in zip(params, value_views):
                    p.data = view
            if grad_views is not None:
                for p, view in zip(params, grad_views):
                    p.grad = view
            if buffer_views is not None:
                for (_, owner, local), view in zip(slots, buffer_views):
                    owner._set_buffer(local, view)
            if value_views or grad_views or buffer_views:
                Module._structure_token = object()
            cache = _Walk(
                Module._structure_token,
                named,
                params,
                slots,
                self._tree_rngs(),
                layout,
                buffer_layout,
                values,
                grads,
                buffers,
            )
            object.__setattr__(self, "_walk_cache", cache)
        return cache

    def arena(self) -> _Walk:
        """The flat storage: ``layout`` and ``buffer_layout`` (the two
        tables), the ``(*lead, P)`` ``values`` and ``grads`` and the
        ``(*lead, B)`` ``buffers`` vectors every parameter, gradient and
        buffer of the tree is a view of."""
        return self._walk()

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

    def layer_bytes(self) -> Mapping[str, int]:
        """Per-layer parameter bytes by dotted name — what every simulated
        transmission time is computed from. One read-only mapping shared
        by every replica of the architecture."""
        return self._walk().layout.layer_bytes

    def num_parameters(self) -> int:
        """Scalar parameter count of one replica (paper quotes 60K/50K/36M)."""
        return self._walk().layout.size

    def nbytes(self) -> int:
        """Transmission size of one replica in bytes."""
        return 4 * self._walk().layout.size

    @property
    def row_independent(self) -> bool:
        """Whether this module and every descendant declare :attr:`rowwise`."""
        return self.rowwise and all(m.row_independent for m in self._modules.values())

    def stages(self) -> list["Module"]:
        """Modules whose successive application is :meth:`forward`."""
        return [self]

    def row_bytes(self, feature_shape: tuple[int, ...]) -> int:
        """Bytes one training step holds per input row of ``feature_shape``:
        twice what a training-mode forward of one row leaves cached for
        backward, whose gradients are about that size again. Measured on a
        copy, so this model's buffers and layer RNG are untouched."""
        probe = copy.deepcopy(self).train()
        probe(np.zeros(self.lead + (1,) + tuple(feature_shape), dtype=np.float32))
        held: dict[int, int] = {}
        for _, module in probe.named_modules():
            buffers = {id(b) for b in module._buffers.values()}
            for key, value in vars(module).items():  # parameters are not ndarrays
                if key != "_walk_cache":
                    held.update((id(a), a.nbytes) for a in _arrays(value) if id(a) not in buffers)
        return 2 * sum(held.values())

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
        self._walk().grads[...] = 0.0

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
        """Copy of every parameter value keyed by dotted name (views into
        one fresh copy of the parameter vector)."""
        walk = self._walk()
        return OrderedDict(walk.layout.views(walk.values.copy()))

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values in place. Every model parameter must be present and
        shape-compatible; extra keys are an error (they indicate a model
        mismatch between server and client)."""
        walk = self._walk()
        walk.layout.flatten(state, out=walk.values)

    def buffer_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every buffer value keyed by dotted name (may be empty)."""
        walk = self._walk()
        return OrderedDict(walk.buffer_layout.views(walk.buffers.copy()))

    def load_buffer_dict(self, buffers: dict[str, np.ndarray]) -> None:
        """Load buffer values in place; every model buffer must be present."""
        walk = self._walk()
        walk.buffer_layout.flatten(buffers, out=walk.buffers, what="buffer_dict")

    # ------------------------------------------------------------------
    # Interface expected from subclasses
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
