"""Exact multiplication/addition counting for the transform kernels.

CountedArray is a float64 array whose ufunc calls (NumPy NEP 13) bill a
shared tally [mult, add]: multiply bills its element count, add and
subtract theirs as additions, and add.accumulate n-1 per row along its axis.
Anything else raises TypeError, as does an operand or out= that is not a
CountedArray of the same tally (another tally raises ValueError): an
uncounted operand would silently corrupt the tally.  Results, 0-d ones
included, are CountedArrays, so object arrays of them bill scalar by scalar.
"""

from __future__ import annotations

import numpy as np

_SLOT = {np.multiply: 0, np.add: 1, np.subtract: 1}  # index into tally = [mult, add]


class CountedArray(np.ndarray):
    """A zero-copy float64 view of values whose arithmetic bills tally = [mult, add]."""

    def __new__(cls, values, tally: list[int]) -> CountedArray:
        arr = np.asarray(values, dtype=np.float64).view(cls)
        arr.tally = tally
        return arr

    def __array_finalize__(self, obj) -> None:
        self.tally = getattr(obj, "tally", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        accumulate = ufunc is np.add and method == "accumulate" and kwargs.keys() <= {"axis"}
        if ufunc not in _SLOT or not (method == "__call__" and not kwargs or accumulate):
            raise TypeError(f"no counted {ufunc.__name__}.{method} with keywords {list(kwargs)}")
        for operand in inputs + out:
            if not isinstance(operand, CountedArray):
                raise TypeError(f"counted operands must be CountedArrays, not {type(operand).__name__}")
            if operand.tally is not self.tally:
                raise ValueError("counted operands must share the same tally")
        if out:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = np.asarray(getattr(ufunc, method)(*(i.view(np.ndarray) for i in inputs), **kwargs))
        rows = result.size // max(result.shape[kwargs.get("axis", 0)], 1) if accumulate else 0
        self.tally[_SLOT[ufunc]] += result.size - rows  # accumulate copies each row's first entry
        return out[0] if out else CountedArray(result, self.tally)
