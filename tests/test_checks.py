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


def test_sample_count_admits_one_to_cap():
    for n in (1, 10, np.int64(10)):
        sample_count(n, 10)
    for n in (0, 11, -1, 1.0, True, np.True_, "5", None):
        with pytest.raises(ValueError, match="n_samples"):
            sample_count(n, 10)
