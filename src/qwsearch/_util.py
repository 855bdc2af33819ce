"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)


def compensated_sum(terms: np.ndarray) -> float:
    """Exact (error-free) sum of an array's terms as float64, read from its buffer
    (a list of Python floats would hold about 32 bytes per term)."""
    return math.fsum(memoryview(np.ravel(terms).astype(float, copy=False)))


def brent_root(fn, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of fn on [a, b], given fa = fn(a) and fb = fn(b) of opposite signs.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    replaced by bisection whenever they fall outside the bracket or shrink
    it too slowly.  Stops once the bracket around the returned point is
    within a few ulps of it, or fn is exactly 0 there.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * math.copysign(1.0, fc) > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)


def step_out_root(fn, x: float, fx: float, step: float, limit: float) -> float | None:
    """Zero of fn in the first step from x (fx = fn(x)) toward limit where fn turns.

    Steps end at x + step, x + 2 step, x + 4 step, ..., with limit in place
    of the first end past it; the first step whose end is zero or of the
    other sign goes to brent_root, in ascending order.  None if there is none.
    """
    a, fa, last = x, fx, False
    while not last:
        last = abs(step) >= abs(limit - x)
        b = limit if last else x + step
        if (fb := fn(b)) * math.copysign(1.0, fa) <= 0.0:
            return brent_root(fn, a, b, fa, fb) if a < b else brent_root(fn, b, a, fb, fa)
        a, fa, step = b, fb, 2.0 * step
    return None
