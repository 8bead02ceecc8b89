"""Extended non-negative rational weights.

Every weight is either an exact non-negative ``Fraction`` or the infinity
marker.  Addition follows x + inf = inf + x = inf + inf = inf.  Differences
only ever appear inside triangle checks; there inf - inf is undefined and
callers must treat the both-infinite case as "no lower bound" themselves
(``abs_diff`` refuses to decide it).
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction


class Weight:
    __slots__ = ("_v",)

    def __init__(self, value: Fraction | int | str | None):
        if value is None:
            self._v: Fraction | None = None
        else:
            # a Fraction is immutable, so one is kept, not copied
            v = value if type(value) is Fraction else Fraction(value)
            if v < 0:
                raise ValueError(f"weights must be non-negative, got {v}")
            self._v = v

    @classmethod
    def infinite(cls) -> "Weight":
        return cls(None)

    @classmethod
    def parse(cls, data) -> "Weight":
        """Accept JSON forms: int, float, "3/2", "1.5", "inf".  Each value
        builds one ``Fraction``: a string through `digit_fraction` when it
        is a digit string, else through ``Fraction(str)``."""
        if isinstance(data, Weight):
            return data
        if isinstance(data, str):
            value = digit_fraction(data)
            if value is None:
                if data.strip().lower() in ("inf", "infinity"):
                    return cls(None)
                value = Fraction(data)
            return cls(value)
        if isinstance(data, bool):
            raise ValueError(f"not a weight: {data!r}")
        if isinstance(data, (int, Fraction)):
            return cls(Fraction(data))
        if isinstance(data, float):
            if data == float("inf"):
                return cls(None)
            # exact binary value of the float, no rounding step
            return cls(Fraction(data))
        raise ValueError(f"not a weight: {data!r}")

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite weight has no finite value")
        return self._v

    def __add__(self, other: "Weight") -> "Weight":
        if self._v is None or other._v is None:
            return Weight(None)
        return Weight(self._v + other._v)

    def scale(self, q: Fraction) -> "Weight":
        """q * w for finite non-negative q.  q * inf is inf for q > 0; the
        q = 0 against infinity case carries no convention and is rejected."""
        if q < 0:
            raise ValueError("scale factor must be non-negative")
        if self._v is None:
            if q == 0:
                raise ArithmeticError("0 * inf is undefined")
            return Weight(None)
        return Weight(self._v * q)

    @staticmethod
    def abs_diff(a: "Weight", b: "Weight") -> "Weight":
        """|a - b| under the conventions |inf - x| = |x - inf| = inf.

        Raises on inf - inf: the caller decides what "undefined" means in
        its context (no lower bound in triangle checks, 0 in the asymmetry
        defect where equal values contribute nothing)."""
        if a._v is None and b._v is None:
            raise ArithmeticError("inf - inf is undefined")
        if a._v is None or b._v is None:
            return Weight(None)
        return Weight(abs(a._v - b._v))

    def _key(self):
        # infinity sorts above every finite value
        return (1,) if self._v is None else (0, self._v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self._v == other._v

    def __lt__(self, other: "Weight") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Weight") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Weight") -> bool:
        return other < self

    def __ge__(self, other: "Weight") -> bool:
        return other <= self

    def __hash__(self) -> int:
        return hash(("Weight", self._v))

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)

    def __repr__(self) -> str:
        return f"Weight({str(self)!r})"

    def to_json(self) -> str:
        return str(self)


ZERO = Weight(0)
INF = Weight(None)


def digit_fraction(text: str) -> Fraction | None:
    """A string of ASCII digits, optionally followed by "/" and more ASCII
    digits, read through ``int``: the value and the error ``Fraction(text)``
    gives on it, at a lower cost.  None for every other string."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isascii() and den.isdigit():
            return Fraction(int(num), int(den))
    return None


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least positive integer that scales every value to an integer:
    the lcm of the denominators (1 for no values)."""
    return math.lcm(*(v.denominator for v in values))


def integer_weights(weights: Iterable[Weight]) -> list[int | None]:
    """The weights times their common denominator, with None marking
    infinity.  Sums, differences and comparisons of the integers are those
    of the weights, exactly."""
    values = [w._v for w in weights]
    scale = common_denominator(v for v in values if v is not None)
    return [None if v is None else v.numerator * (scale // v.denominator) for v in values]


def ceilings(weights: Iterable[Weight]) -> list[int | None]:
    """The least integer at or above each weight, with None marking
    infinity: integer floor division, no rounding of a ``Fraction``."""
    return [None if (v := w._v) is None else -(-v.numerator // v.denominator) for w in weights]
