"""Compressed wire transport: UpdateCodec-backed upload encoding.

``--wire {raw,quant8,quant4,topk:F}`` decides what a client *transmits*
each round. ``raw`` is the identity (and the default): no layer is
attached and runs are byte-for-byte the same as before this feature
existed. The other specs wrap every strategy's upload path in a
per-client :class:`~repro.compression.codecs.UpdateCodec`:

* ``quant8`` / ``quant4`` — QSGD-style stochastic quantization at 8/4
  bits per scalar (per-client seeded RNG, kept on the client, so runs are
  deterministic and engine-independent whichever worker runs a client);
* ``topk:F`` — top-``F``-fraction sparsification with per-client,
  per-layer error-feedback residuals.

The server aggregates what it *received* (the decoded, lossy update),
and all uplink timestamps — and therefore ``collect_earliest`` and
FedCA's eager-upload timeline — are driven by the **wire** byte counts,
not the raw ones. A codec is state *about one client* (RNG position,
residuals), so the layer keeps it on that client
(:meth:`SimClient.keep <repro.runtime.client.SimClient.keep>`) and holds
nothing per client itself: the codec travels in the client's
``capture_state()``, which is all that checkpoints, lazy-population
eviction and the blobs parallel jobs carry move — error feedback is
preserved exactly with no protocol of its own.

Byte accounting: strategies report ``events["wire"] = {"raw_bytes",
"wire_bytes"}`` per client round, which the simulator mirrors as the
``repro_wire_bytes_total{variant="raw"|"wire"}`` counters — the raw
variant is the counterfactual uncompressed cost, the wire variant what
actually moved (and what ``repro_bytes_uploaded_total`` now reflects).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..compression.codecs import QuantizationCodec, TopKCodec, UpdateCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import SimClient

__all__ = ["WireLayer", "parse_wire_spec", "WIRE_CHOICES_HELP", "WIRE_SEED_BASE"]

#: CLI help string for the ``--wire`` option.
WIRE_CHOICES_HELP = "raw (default), quant8, quant4, topk:F (e.g. topk:0.05)"

#: Per-client quantization RNG seed base (client ``cid`` draws from
#: ``WIRE_SEED_BASE + cid``).
WIRE_SEED_BASE = 7919


class WireLayer:
    """One wire format: a per-client family of update codecs.

    Strategies call :meth:`encode` (whole update) or :meth:`encode_layer`
    (FedCA's per-layer eager uploads) at transmission time; both return
    the decoded payload the server will aggregate plus the wire bytes
    that drive the uplink timeline. A client's codec is created on its
    first transmission and kept on the client, not here.
    """

    def __init__(
        self, spec: str, codec_factory: Callable[[int], UpdateCodec]
    ) -> None:
        self.spec = spec
        self._factory = codec_factory

    def codec_for(self, client: "SimClient") -> UpdateCodec:
        return client.keep("wire", lambda: self._factory(client.client_id))

    def encode(
        self, client: "SimClient", update: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], int]:
        """Encode a whole update; returns ``(decoded_update, wire_bytes)``."""
        return self.codec_for(client).encode(update)

    def encode_layer(
        self, client: "SimClient", name: str, value: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Encode one layer (FedCA eager transmission)."""
        received, nbytes = self.codec_for(client).encode({name: value})
        return received[name], nbytes


def parse_wire_spec(spec: "str | None") -> "WireLayer | None":
    """Build the wire layer for a ``--wire`` spec; ``None``/``"raw"`` →
    ``None`` (no layer, byte-identical to the pre-wire runtime)."""
    if spec is None:
        return None
    key = spec.strip().lower()
    if key in ("", "raw"):
        return None
    if key == "quant8":
        return WireLayer(
            key, lambda cid: QuantizationCodec(8, seed=WIRE_SEED_BASE + cid)
        )
    if key == "quant4":
        return WireLayer(
            key, lambda cid: QuantizationCodec(4, seed=WIRE_SEED_BASE + cid)
        )
    if key.startswith("topk:"):
        try:
            fraction = float(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad top-k fraction in wire spec {spec!r}")
        if not 0 < fraction <= 1:
            raise ValueError(
                f"top-k fraction must be in (0, 1], got {fraction} in {spec!r}"
            )
        return WireLayer(key, lambda _cid: TopKCodec(fraction))
    raise ValueError(
        f"unknown wire spec {spec!r}; expected one of: {WIRE_CHOICES_HELP}"
    )
