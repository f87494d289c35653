"""Digital-domain quantized arithmetic for binary/ternary networks.

Values ("trits") live in {-1, 0, +1}; binary tensors never hold 0.  The
integer dot product of two trit vectors is called popcount here, matching
common usage for XNOR-style inference engines, and is the exact oracle that
every analog crossbar result in this package is checked against.

Values are checked before they become int8: 257 or 0.5 is an error, never
a trit that happens to share its low byte or its truncation.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_real

TRIT_DTYPE = np.int8


class Precision(enum.Enum):
    BINARY = "binary"
    TERNARY = "ternary"

    @property
    def allowed_values(self):
        return (-1, 1) if self is Precision.BINARY else (-1, 0, 1)


def _as_trits(values, precision=Precision.TERNARY):
    """values as an int8 array; DomainError unless each is allowed at precision.

    Only numeric dtypes can hold trits; strings and objects are refused.
    Tile reads sit on the hot path, so an array is accepted after a
    min/max range test (NaN fails it), an equality test against its cast
    for non-integer dtypes and a no-zeros test for binary.  Anything else
    goes through np.isin, which also names the offending values.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"trits must be numbers, got {arr.dtype} values")
    if arr.size and arr.min() >= -1 and arr.max() <= 1:
        trits = arr.astype(TRIT_DTYPE, copy=False)
        if (arr.dtype.kind != "f" or np.array_equal(trits, arr)) and (
                precision is Precision.TERNARY
                or np.count_nonzero(trits) == trits.size):
            return trits
    ok = np.isin(arr, precision.allowed_values)
    if not ok.all():
        bad = np.unique(arr[~ok])[:5].tolist()
        raise DomainError(
            f"values {bad} not allowed at precision {precision.value}")
    return arr.astype(TRIT_DTYPE, copy=False)


@dataclass(frozen=True)
class TernaryTensor:
    """Dense tensor over {-1, 0, +1} with a declared precision."""

    data: np.ndarray
    precision: Precision

    def __post_init__(self):
        object.__setattr__(self, "data", _as_trits(self.data, self.precision))

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other):
        return (
            isinstance(other, TernaryTensor)
            and self.precision is other.precision
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise DomainError("activation input must be finite")


def act_binary(x):
    """Binary activation: +1 for x >= 0, -1 for x < 0.  Scalar or array."""
    arr = np.asarray(x, dtype=np.float64)
    _check_finite(arr)
    return np.greater_equal(arr, 0.0).view(TRIT_DTYPE) * 2 - 1


def check_dead_band(r):
    """DomainError unless r is a ternary dead band: finite and > 0."""
    check_real(r, "ternary threshold", 0.0, strict=True, error=DomainError)


def act_ternary(x, r):
    """Ternary activation with dead band: +1 above r, -1 below -r, else 0.

    The dead band is inclusive at both edges, so the three cases partition
    the reals.  r must be strictly positive (r = 0 would collapse to the
    binary activation with an empty zero band).
    """
    check_dead_band(r)
    arr = np.asarray(x, dtype=np.float64)
    _check_finite(arr)
    return np.greater(arr, r).view(TRIT_DTYPE) \
        - np.less(arr, -r).view(TRIT_DTYPE)


def popcount_oracle(x, w):
    """Exact integer dot product of two 1-D trit vectors (the digital oracle)."""
    xa = x.data if isinstance(x, TernaryTensor) else _as_trits(x)
    wa = w.data if isinstance(w, TernaryTensor) else _as_trits(w)
    if xa.ndim != 1 or wa.ndim != 1:
        raise ShapeError("popcount_oracle expects 1-D vectors")
    if xa.shape[0] != wa.shape[0]:
        raise ShapeError(f"length mismatch: {xa.shape[0]} vs {wa.shape[0]}")
    return int(np.dot(xa.astype(np.int64), wa.astype(np.int64)))


def quantize_weights(latent, precision, r=0.5):
    """Quantize real-valued latent weights to trits.

    Binary: sign with the 0 tie mapped to +1.  Ternary: dead-band threshold
    at r, same convention as act_ternary.
    """
    arr = np.asarray(latent, dtype=np.float64)
    _check_finite(arr)
    if precision is Precision.BINARY:
        q = act_binary(arr)
    else:
        q = act_ternary(arr, r)
    return TernaryTensor(np.asarray(q, dtype=TRIT_DTYPE), precision)
