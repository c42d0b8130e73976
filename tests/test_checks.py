from fractions import Fraction

import numpy as np
import pytest

from dkg1d._checks import count, finite_real, sample_count


def test_predicates():
    for value in (True, np.True_, "1", None, 10**400, np.nan, np.inf, -np.inf):
        assert not finite_real(value), value
    for value in (np.int64(3), np.float64(0.5), Fraction(1, 3), 7, -2.5):
        assert finite_real(value), value
    for value in (True, np.True_, "1", None, 3.0, np.float64(3), Fraction(3, 1)):
        assert not count(value), value
    assert count(7) and count(np.int64(3)) and count(10**400)


def test_finite_real_on_floats():
    # Floats, np.float64 and float subclasses are answered by math.isfinite.
    class Scale(float):
        pass

    for value in (-0.0, 5e-324, Scale(2.5), Scale(-0.0)):
        assert finite_real(value) and finite_real(np.float64(value)), value
    for value in (np.nan, np.inf, -np.inf, Scale("nan"), Scale("inf")):
        assert not finite_real(value) and not finite_real(np.float64(value)), value
    for value in (True, np.True_, 10**400):
        assert not finite_real(value), value


def test_sample_count_admits_one_to_cap():
    for n in (1, 10, np.int64(10)):
        sample_count(n, 10)
    for n in (0, 11, -1, 1.0, True, np.True_, "5", None):
        with pytest.raises(ValueError, match="n_samples"):
            sample_count(n, 10)
