"""What the library's entry points accept as a number and as a count."""

import math
import numbers


def finite_real(value) -> bool:
    """A real number other than a bool that is finite as a float; an int
    beyond float range is not.  A float skips the slower ABC test."""
    try:
        real = isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
        return real and math.isfinite(value)
    except OverflowError:
        return False


def count(value) -> bool:
    """An integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def sample_count(n_samples, cap: int) -> None:
    """Refuse, with ValueError, a sample count that is not an integer in
    [1, cap]; each sampler's cap bounds its run time."""
    if not (count(n_samples) and 1 <= n_samples <= cap):
        raise ValueError(f"n_samples must be an integer with 1 <= n_samples <= {cap} (a cap on run time)")
