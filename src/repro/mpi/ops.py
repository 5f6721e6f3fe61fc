"""Reduction operators for simulated-MPI collectives.

Each :class:`Op` combines two values elementwise; values may be Python
scalars or numpy arrays (mirroring mpi4py's lowercase API, which
reduces arbitrary Python objects).  A :class:`~repro.mpi.datasize.WireSize`
combines only with a WireSize of the same size and yields that size.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.datasize import WireSize

__all__ = ["Op", "SUM", "MIN", "MAX", "PROD"]


class Op:
    """A binary, associative, commutative reduction operator."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self._fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        if isinstance(a, WireSize) or isinstance(b, WireSize):
            if type(a) is type(b) and a == b:
                return a
            raise ValueError(
                f"{self!r} cannot combine {_describe(a)} with {_describe(b)}: "
                "a WireSize combines only with a WireSize of equal size"
            )
        return self._fn(a, b)

    def reduce_all(self, values: Sequence[Any]) -> Any:
        """Fold *values* left-to-right (order-stable for determinism)."""
        if not values:
            raise ValueError("cannot reduce an empty sequence")
        acc = values[0]
        for v in values[1:]:
            acc = self(acc, v)
        return acc

    def __repr__(self) -> str:
        return f"Op({self.name})"


SUM = Op("sum", lambda a, b: np.add(a, b) if _arrayish(a, b) else a + b)
PROD = Op("prod", lambda a, b: np.multiply(a, b) if _arrayish(a, b) else a * b)
MIN = Op("min", lambda a, b: np.minimum(a, b) if _arrayish(a, b) else min(a, b))
MAX = Op("max", lambda a, b: np.maximum(a, b) if _arrayish(a, b) else max(a, b))


def _arrayish(a: Any, b: Any) -> bool:
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray)


def _describe(v: Any) -> str:
    if isinstance(v, np.ndarray):
        return f"ndarray(shape={v.shape}, dtype={v.dtype})"
    return repr(v)
