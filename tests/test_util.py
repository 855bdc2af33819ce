import math

import numpy as np
import pytest

from _shared import _peak_bytes

import qwsearch._util
from qwsearch._util import brent_root, compensated_sum, step_out_root

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


def _recording(fn):
    points = []

    def wrapped(x):
        points.append(x)
        return fn(x)

    return wrapped, points


def test_step_out_root_first_step():
    fn, points = _recording(lambda x: x - 0.5)
    assert step_out_root(fn, 0.0, -0.5, 1.0, 10.0) == pytest.approx(0.5, abs=1e-15)
    assert points[0] == 1.0 and all(0.0 <= x <= 1.0 for x in points)


def test_step_out_root_after_doublings():
    # steps end at 0.1, 0.2, 0.4, ..., and the root 5.3 lies in the step to 6.4
    fn, points = _recording(lambda x: math.tanh(x - 5.3))
    assert abs(step_out_root(fn, 0.0, fn(0.0), 0.1, 100.0) - 5.3) <= 4.0 * math.ulp(5.3)
    assert points[1:8] == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]
    assert all(3.2 <= x <= 6.4 for x in points[8:])


@pytest.mark.parametrize("root", [1.0, 0.9], ids=["at-limit", "before-limit"])
def test_step_out_root_reaches_limit(root):
    # steps end at 0.3 and 0.6; the next one, to 1.2, is cut to the limit 1.0
    fn, points = _recording(lambda x: x - root)
    assert step_out_root(fn, 0.0, -root, 0.3, 1.0) == pytest.approx(root, abs=1e-15)
    assert points[:3] == [0.3, 0.6, 1.0] and max(points) == 1.0


def test_step_out_root_without_sign_change():
    fn, points = _recording(math.exp)
    assert step_out_root(fn, 0.0, 1.0, 0.25, 3.0) is None
    assert points == [0.25, 0.5, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("fn, root", [
    (lambda x: x - 7.0, 7.0), (lambda x: math.exp(x) - math.exp(7.5), 7.5), (lambda x: -1.0, None),
], ids=["linear", "steep", "no-root"])
def test_step_out_root_never_passes_limit(fn, root):
    fn, points = _recording(fn)
    x = step_out_root(fn, 0.0, fn(0.0), 1.0, 7.5)
    assert x is None if root is None else x == pytest.approx(root, abs=1e-14)
    assert max(points) <= 7.5


def test_step_out_root_negative_steps(monkeypatch):
    # stepping down from 0 toward -100, the bracket still reaches Brent in ascending order
    brackets = []

    def brent(fn, a, b, fa, fb):
        brackets.append((a, b))
        return brent_root(fn, a, b, fa, fb)

    monkeypatch.setattr(qwsearch._util, "brent_root", brent)
    fn, points = _recording(lambda x: x + 2.5)
    assert step_out_root(fn, 0.0, 2.5, -1.0, -100.0) == -2.5
    assert brackets == [(-4.0, -2.0)] and points[:3] == [-1.0, -2.0, -4.0]
    assert min(points) >= -4.0
