"""Where a model's tensors live in one flat float32 vector.

A :class:`Layout` is an immutable ``(name, offset, shape)`` table: entry
``name`` occupies ``flat[..., offset : offset + prod(shape)]``. A model has
two — its parameters (``P`` floats) and its buffers (``B`` floats) — and
every ``Parameter.data``, ``.grad`` and buffer is a view into the vector
its table describes (:meth:`repro.nn.module.Module.arena`). Bulk work —
the optimiser step, loading a broadcast, the accumulated update, the
weighted average, the shared-memory wire — is then one vector operation,
while the ``{name: array}`` dict of views stays the public face that
strategies, FedCA's per-layer machinery and the codecs address.

Layouts are interned per table (:meth:`Layout.of`), so every replica of
one architecture shares one object and its read-only ``layer_bytes``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = ["Layout"]


class Layout:
    """An immutable ``(name, offset, shape)`` table over a flat vector."""

    __slots__ = ("entries", "size", "layer_bytes", "_spans")

    def __init__(self, spec: tuple[tuple[str, tuple[int, ...]], ...]) -> None:
        entries, spans, offset = [], [], 0
        for name, shape in spec:
            stop = offset + math.prod(shape)
            entries.append((name, offset, shape))
            spans.append((name, offset, stop, shape))
            offset = stop
        #: ``(name, offset, shape)`` per entry, in order.
        self.entries: tuple[tuple[str, int, tuple[int, ...]], ...] = tuple(entries)
        #: Total float count (``P`` or ``B``).
        self.size: int = offset
        #: Read-only ``{name: float32 bytes}`` — what every simulated
        #: transmission time is computed from.
        self.layer_bytes: Mapping[str, int] = MappingProxyType(
            {name: 4 * (stop - start) for name, start, stop, _ in spans}
        )
        self._spans = tuple(spans)

    @staticmethod
    def of(spec: tuple[tuple[str, tuple[int, ...]], ...]) -> "Layout":
        """The one layout for ``((name, shape), ...)``."""
        return _interned(tuple((name, tuple(map(int, shape))) for name, shape in spec))

    @staticmethod
    def of_arrays(arrays: Mapping[str, np.ndarray]) -> "Layout":
        """The layout of a ``{name: array}`` dict, in its key order."""
        return Layout.of(tuple((name, np.shape(a)) for name, a in arrays.items()))

    def __reduce__(self):
        return Layout.of, (tuple((name, shape) for name, _, shape in self.entries),)

    # ------------------------------------------------------------------
    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``{name: view}`` into ``flat``, shaped ``(*lead, *shape)`` for a
        ``(*lead, size)`` vector — zero-copy, so writes go through."""
        lead = flat.shape[:-1]
        return {
            name: flat[..., start:stop].reshape(lead + shape)
            for name, start, stop, shape in self._spans
        }

    def flatten(
        self,
        arrays: Mapping[str, np.ndarray],
        out: np.ndarray | None = None,
        *,
        what: str = "state_dict",
    ) -> np.ndarray:
        """Gather ``arrays`` into one ``(size,)`` vector (``out``, or a new
        float32 one) in table order. The key set and every shape must match
        the table exactly — checked before anything is written."""
        if arrays.keys() != self.layer_bytes.keys():
            missing = sorted(self.layer_bytes.keys() - arrays.keys())
            extra = sorted(arrays.keys() - self.layer_bytes.keys())
            raise KeyError(f"{what} mismatch: missing={missing} extra={extra}")
        parts = []
        for name, _, shape in self.entries:
            a = np.asarray(arrays[name])
            if a.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {shape}, got {a.shape}"
                )
            parts.append(a.reshape(-1))
        if out is None:
            out = np.empty(self.size, dtype=np.float32)
        if parts:
            np.concatenate(parts, out=out, casting="unsafe")
        return out


@lru_cache(maxsize=256)
def _interned(spec: tuple[tuple[str, tuple[int, ...]], ...]) -> Layout:
    return Layout(spec)
