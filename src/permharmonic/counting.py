"""Exact multiplication/addition counting for the transform kernels.

OpCounter is a pair of tallies.  CountedScalar wraps a float and bills every
multiplication, addition and subtraction to its counter, and has no other
arithmetic, so any other operation in a counted kernel raises.  Scalars
must share a counter to interact, and plain numbers are rejected outright:
an uncounted operand slipping into a counted expression would silently
corrupt the tally, so mixing raises instead.
"""

from __future__ import annotations


class OpCounter:
    """Tallies of multiplications and additions (subtraction counts as addition)."""

    __slots__ = ("mult", "add")

    def __init__(self) -> None:
        self.mult = 0
        self.add = 0

    def wrap(self, value: float) -> "CountedScalar":
        return CountedScalar(float(value), self)

    def __repr__(self) -> str:
        return f"OpCounter(mult={self.mult}, add={self.add})"


class CountedScalar:
    """A float whose arithmetic bills a shared OpCounter.

    Only CountedScalar-with-CountedScalar arithmetic is allowed, and both
    operands must share the same counter.
    """

    __slots__ = ("value", "counter")

    def __init__(self, value: float, counter: OpCounter) -> None:
        self.value = float(value)
        self.counter = counter

    def _check(self, other: object) -> "CountedScalar":
        if not isinstance(other, CountedScalar):
            raise TypeError(
                f"counted arithmetic requires CountedScalar operands, got {type(other).__name__}"
            )
        if other.counter is not self.counter:
            raise ValueError("counted operands must share the same OpCounter")
        return other

    def __add__(self, other: object) -> "CountedScalar":
        other = self._check(other)
        self.counter.add += 1
        return CountedScalar(self.value + other.value, self.counter)

    def __sub__(self, other: object) -> "CountedScalar":
        other = self._check(other)
        self.counter.add += 1
        return CountedScalar(self.value - other.value, self.counter)

    def __mul__(self, other: object) -> "CountedScalar":
        other = self._check(other)
        self.counter.mult += 1
        return CountedScalar(self.value * other.value, self.counter)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"CountedScalar({self.value!r})"
