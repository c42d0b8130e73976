from fractions import Fraction

import numpy as np

from dkg1d._checks import count, finite_real


def test_predicates():
    for value in (True, np.True_, "1", None, 10**400, np.nan, np.inf, -np.inf):
        assert not finite_real(value), value
    for value in (np.int64(3), np.float64(0.5), Fraction(1, 3), 7, -2.5):
        assert finite_real(value), value
    for value in (True, np.True_, "1", None, 3.0, np.float64(3), Fraction(3, 1)):
        assert not count(value), value
    assert count(7) and count(np.int64(3)) and count(10**400)
