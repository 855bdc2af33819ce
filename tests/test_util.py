import math

import numpy as np
import pytest

from _shared import _peak_bytes

from qwsearch._util import brent_root, compensated_sum

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


def _never(x):
    raise AssertionError(f"evaluated at {x}")


@pytest.mark.parametrize("fn, a, b, root", [
    (math.cos, 1.0, 2.0, math.pi / 2.0),
    (lambda x: 2.0 - math.exp(x), 0.0, 3.0, math.log(2.0)),
    (lambda x: math.tanh(1e8 * (x - 1.0 / 3.0)), 0.0, 1.0, 1.0 / 3.0),
    (lambda x: math.expm1(60.0 * (x - 0.7)), 0.0, 1.0, 0.7),
    (lambda x: (x - 0.25) ** 3, -2.0, 5.0, 0.25),
], ids=["cos", "decreasing", "tanh-step", "exponential", "triple-root"])
def test_brent_root_within_ulps(fn, a, b, root):
    x = brent_root(fn, a, b, fn(a), fn(b))
    assert abs(x - root) <= 4.0 * math.ulp(root)


def test_brent_root_at_bracket_end():
    # an exact zero at either end comes back without another evaluation
    assert brent_root(_never, 1.0, 3.0, 0.0, 2.0) == 1.0
    assert brent_root(_never, -1.0, 1.0, -2.0, 0.0) == 1.0
