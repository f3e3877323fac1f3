"""Exact cardinal values: non-negative big integers plus a single infinity.

Orders, indices and relative orders of subgroups are either exact
arbitrary-precision integers or infinite, and the only arithmetic they
need is multiplication (with infinity absorbing).
"""

from __future__ import annotations


class Cardinal:
    """A non-negative integer or the infinite cardinal.

    Compares equal to plain ints when finite.  Multiplication is exact;
    anything times infinity is infinity.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        if value is not None:
            if not isinstance(value, int):
                raise TypeError(f"finite cardinal must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"cardinal must be non-negative, got {value}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinite cardinal has no integer value")
        return self._value

    def __mul__(self, other):
        if isinstance(other, int):
            other = Cardinal(other)
        elif not isinstance(other, Cardinal):
            return NotImplemented
        if self._value is None or other._value is None:
            return INFINITE
        return Cardinal(self._value * other._value)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Cardinal):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __str__(self):
        return "infinity" if self._value is None else str(self._value)

    def __repr__(self):
        return f"Cardinal({self._value})"


INFINITE = Cardinal(None)
