import math

import numpy as np
import pytest

from _shared import _peak_bytes

from qwsearch._util import compensated_sum

_RNG = np.random.default_rng(20260)
# Wide exponents and both signs, so the float64 running sum would round badly.
_WIDE = _RNG.standard_normal(4001) * 10.0 ** _RNG.uniform(-30, 30, 4001)
_CANCEL = np.r_[1e100, 1.0, -1e100, 3e-300, -0.5, 2.0**-1074]
_READ_ONLY = _WIDE.copy()
_READ_ONLY.setflags(write=False)


@pytest.mark.parametrize("terms", [
    _WIDE,
    _CANCEL,
    _READ_ONLY,
    np.array([2**62 + 1, -3, 2**53 + 1, 7, -(2**60) - 5], dtype=np.int64),
    _WIDE[::3],
    _WIDE[::-1],
    _WIDE[:4000].reshape(40, 100),
    _WIDE[:4000].reshape(40, 100).T,
    _WIDE.astype(np.float32),
    np.array([-0.0]),
    np.empty(0),
    np.empty((0, 3)),
], ids=["float64", "cancel", "read-only", "int64", "strided", "reversed", "2-d",
        "2-d-transposed", "float32", "minus-zero", "empty", "empty-2-d"])
def test_compensated_sum_matches_fsum_of_list(terms):
    # fsum is correctly rounded whatever container it reads, so the buffer
    # sum equals the list sum bit for bit (C order for 2-d input)
    expected = math.fsum(np.ravel(terms).tolist())
    assert compensated_sum(terms).hex() == expected.hex()


def test_compensated_sum_builds_no_list():
    # a list of 1.3e5 Python floats holds about 4 MB; the buffer is read in place
    terms = _RNG.standard_normal(130_000)
    assert _peak_bytes(compensated_sum, terms) < 0.5e6
