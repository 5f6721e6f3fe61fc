"""Wire-size estimation for simulated message payloads.

The timing model needs a byte count for every payload.  Numpy arrays
report exactly; containers are summed recursively; everything else gets
a conservative flat estimate (the simulated layer's analogue of pickle
overhead).  A :class:`WireSize` is a payload that is nothing but its
byte count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["WireSize", "nbytes_of"]

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 16


@dataclass(frozen=True)
class WireSize:
    """A value-free payload that occupies *nbytes* on the wire.

    Skeletons pass one where a collective is modelled for its wire time
    only and no rank reads the result (GTC's field-solve allreduces,
    Pixie3D's reduce/bcast rounds).  Reductions of equal sizes return
    the same object, so they cost no numpy work.
    """

    nbytes: int

    def __post_init__(self) -> None:
        n = self.nbytes
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"WireSize needs a non-negative integer, got {n!r}")


def nbytes_of(obj: Any) -> float:
    """Estimated wire bytes of *obj*."""
    if type(obj) is WireSize:  # the skeletons' collective payload: hot path
        return float(obj.nbytes)
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return float(len(obj))
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8")))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return float(_SCALAR_BYTES)
    if isinstance(obj, dict):
        return _CONTAINER_OVERHEAD + sum(
            nbytes_of(k) + nbytes_of(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(nbytes_of(v) for v in obj)
    if hasattr(obj, "nbytes"):
        try:
            return float(obj.nbytes)
        except TypeError:
            return float(obj.nbytes())
    if hasattr(obj, "__dict__"):
        return _CONTAINER_OVERHEAD + sum(
            nbytes_of(v) for v in vars(obj).values()
        )
    return float(_SCALAR_BYTES)
