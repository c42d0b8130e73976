"""What the library's entry points accept as a number and as a count."""

import math
import numbers


def finite_real(value) -> bool:
    """A real number other than a bool that is finite as a float; an int
    beyond float range is not."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def count(value) -> bool:
    """An integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
