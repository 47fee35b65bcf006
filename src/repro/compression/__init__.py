"""``repro.compression`` — the §2.2 communication-efficiency prior art.

QSGD-style quantization and top-k sparsification with error feedback,
packaged as update codecs so they can run as server-autocratic baselines
against FedCA's client-autonomous eager transmission.
"""

from .codecs import QuantizationCodec, TopKCodec, UpdateCodec
from .quantization import QuantizedTensor, dequantize, quantize, quantized_nbytes
from .sparsification import (
    ResidualStore,
    SparseTensor,
    densify,
    sparse_nbytes,
    top_k_sparsify,
)

__all__ = [
    "UpdateCodec",
    "QuantizationCodec",
    "TopKCodec",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "quantized_nbytes",
    "SparseTensor",
    "top_k_sparsify",
    "densify",
    "sparse_nbytes",
    "ResidualStore",
]
