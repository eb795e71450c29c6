"""Linear-scaling quantizer (§III-B).

The quantization interval is ``2×eb`` so that reconstructing at the bin
centre guarantees the point-wise absolute error bound ``eb``. These helpers
are the single definition used by every predictor and by the model's
sampling path.
"""
from __future__ import annotations

import numpy as np

__all__ = ["quantize", "dequantize", "reconstruction_errors"]


def quantize(err: np.ndarray, eb: float) -> np.ndarray:
    """Prediction errors → integer quantization codes (bin width 2·eb)."""
    if not 0 < eb < np.inf:  # also rejects NaN
        raise ValueError(f"error bound must be finite and positive, got {eb!r}")
    return np.rint(np.asarray(err, dtype=np.float64) / (2.0 * eb)).astype(np.int64)


def dequantize(codes: np.ndarray, eb: float) -> np.ndarray:
    """Quantization codes → reconstructed prediction errors (bin centres)."""
    return np.multiply(2.0 * eb, codes, dtype=np.float64)


def reconstruction_errors(err: np.ndarray, eb: float) -> np.ndarray:
    """Per-point compression error after quantizing ``err`` (|·| ≤ eb)."""
    return np.asarray(err, dtype=np.float64) - dequantize(quantize(err, eb), eb)
