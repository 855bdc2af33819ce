"""Analytic constants of the lattice analysis.

Four related quantities control the search transition on d-dimensional
periodic lattices:

* green_integral(j, d): the Brillouin-zone integral of 1/E(k)^j, finite for
  d > 2j.  Evaluated through the Laplace representation
  (2d)^-j / (j-1)! * int_0^inf a^(j-1) e^-a [I0(a/d)]^d da with the
  exponentially scaled Bessel function: a fixed composite Gauss-Legendre
  rule on [0, QUAD_UPPER] (QUAD_NODES nodes on each of QUAD_PANELS
  geometric panels), plus an asymptotic tail.
* inverse_energy_sum(j, d, L): the exact finite-lattice sum
  (1/N) sum_{k != 0} E(k)^-j, which converges to the integral for d > 2j,
  grows like epstein_sum(j, d) * N^(2j/d - 1) for d < 2j, and picks up a
  log(N) law at d = 2j.
* epstein_sum(j, d): (2 pi)^-2j sum_{m in Z^d, m != 0} (m^2)^-j, the
  coefficient of the d < 2j growth law.
* scaling_function(x, dim) and its root: the N-independent function
  (1/4 pi^2) (sum_{m != 0} x/(m^2 (m^2 - x)) - 1/x) whose negative root
  pins the rescaled ground-state energy for dim = 2, 3.

The integer-lattice sums count vectors per squared norm by repeated 1d
convolution through numpy's real FFT.  All tolerances and truncation radii
here are implementation choices; each value carries an explicit error
estimate.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import _EPS, brent_root, compensated_sum
from .graphs import GraphFamily, level_spectrum

QUAD_UPPER = 2000.0          # switchover from quadrature to the asymptotic tail
QUAD_PANELS = 13             # geometric panels [0, U 2^-12], [U 2^-12, U 2^-11], ..., [U/2, U]
QUAD_NODES = 24              # Gauss-Legendre nodes per panel
EPSTEIN_TARGET = 1e-7        # radius doubling stops below this drift
SCALING_RADIUS = 200         # lattice-sum radius for the scaling function
# Error of x0 from that radius: from radius 200 to 800 x0 moves by 1.3e-9 at
# d = 2 and 1.4e-8 at d = 3, and at d = 3 each doubling moves it about 8x less.
SCALING_ROOT_ERROR = 2e-8
X_BRACKET_CAP = 1e6


class DivergenceError(ValueError):
    """Requested constant does not converge for these (j, d)."""


class NoRootError(ValueError):
    """Target value lies outside the range reached by bracket expansion."""


# ---------------------------------------------------------------------------
# Brillouin-zone integrals
# ---------------------------------------------------------------------------

def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the QUAD_NODES-point Gauss-Legendre rule on every panel."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (nodes + 1.0)).ravel(), (half * weights).ravel()


_COARSE_EDGES = np.r_[0.0, QUAD_UPPER * 2.0 ** np.arange(1 - QUAD_PANELS, 1)]
_FINE_EDGES = np.sort(np.r_[_COARSE_EDGES, 0.5 * (_COARSE_EDGES[:-1] + _COARSE_EDGES[1:])])


@lru_cache(maxsize=None)
def _green_integral_err(j: int, d: int) -> tuple[float, float]:
    if d <= 2 * j:
        raise DivergenceError(f"integral of E^-{j} diverges for d={d} <= 2j={2*j}")
    pref = 1.0 / ((2 * d) ** j * math.factorial(j - 1))

    def rule(edges: np.ndarray) -> tuple[float, float]:
        a, w = _panel_rule(edges)
        x = a / d
        wf = w * a ** (j - 1) * (np.i0(x) * np.exp(-x)) ** d
        return pref * compensated_sum(wf), pref * float(np.sum(np.abs(wf)))

    val, mass = rule(_COARSE_EDGES)
    # The same rule on the panels halved estimates the quadrature error.  Where
    # the two rules agree to the last bits, roundoff in the node values rules:
    # np.i0(x) e^-x is good to about 2.5 ulps and its d-th power to about d
    # times that, so the estimate keeps a floor of 2d ulps of sum |w f| (the
    # sum itself is exact).  Against a 30-digit integral the largest error seen
    # on the tabulated (j, d) is 7.4 ulps, at d = 9.
    err = abs(rule(_FINE_EDGES)[0] - val) + 2.0 * d * _EPS * mass
    # Tail from the Bessel asymptotics (i0e(x))^d ~ (2 pi x)^(-d/2) (1 + d/(8x) + ...):
    # the integrand decays like a^(j-1-d/2), integrable precisely when d > 2j.
    p = j - d / 2.0
    c0 = pref * (d / (2.0 * math.pi)) ** (d / 2.0)
    t1 = c0 * QUAD_UPPER**p / (-p)
    t2 = c0 * (d**2 / 8.0) * QUAD_UPPER ** (p - 1) / (1.0 - p)
    t3 = c0 * (d**3 * (d + 8) / 128.0) * QUAD_UPPER ** (p - 2) / (2.0 - p)
    return val + t1 + t2 + t3, err + abs(t3)


def green_integral(j: int, d: int) -> float:
    """Brillouin-zone integral (2 pi)^-d int d^dk / E(k)^j; needs d > 2j."""
    return _green_integral_err(j, d)[0]


# One entry, as for level_spectrum: a bound suite asks again for the sum its
# caller has just taken.
@lru_cache(maxsize=1)
def inverse_energy_sum(j: int, d: int, side: int) -> float:
    """Exact finite sum (1/N) sum_{k != 0} E(k)^-j on the side^d torus; the last is kept."""
    levels = level_spectrum(GraphFamily.lattice(d, side))
    terms = levels.multiplicities[1:] * levels.energies[1:] ** (-float(j))
    return compensated_sum(terms) / levels.num_vertices


# ---------------------------------------------------------------------------
# Integer-lattice sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _norm_counts(dim: int, limit: int) -> np.ndarray:
    """counts[n] = number of integer vectors in Z^dim with squared norm n."""
    one = np.zeros(limit + 1)
    one[0] = 1.0
    squares = np.arange(1, int(math.isqrt(limit)) + 1) ** 2
    one[squares] = 2.0
    # Padding past the full linear length 2*limit + 1 keeps each product from
    # wrapping around (one power of the kernel's spectrum would wrap for
    # dim >= 3); a power of two keeps the transforms fast.
    size = 1 << (2 * limit).bit_length()
    kernel = np.fft.rfft(one, size)
    counts = one
    for _ in range(dim - 1):
        counts = np.fft.irfft(np.fft.rfft(counts, size) * kernel, size)[: limit + 1]
    return np.rint(counts)


def _sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _epstein_at(j: int, d: int, radius: int) -> float:
    limit = radius * radius
    counts = _norm_counts(d, limit)
    norms = np.arange(1, limit + 1, dtype=float)
    body = compensated_sum(counts[1:] / norms**j)
    tail = _sphere_area(d) * radius ** (d - 2 * j) / (2 * j - d)
    return (body + tail) / (2.0 * math.pi) ** (2 * j)


@lru_cache(maxsize=None)
def _epstein_err(j: int, d: int) -> tuple[float, float]:
    if 2 * j <= d:
        raise DivergenceError(f"lattice sum of (m^2)^-{j} diverges for d={d} >= 2j={2*j}")
    radius = 64
    value = _epstein_at(j, d, radius)
    drift = math.inf
    while radius < 1024 and drift > EPSTEIN_TARGET:
        radius *= 2
        nxt = _epstein_at(j, d, radius)
        drift = abs(nxt - value)
        value = nxt
    return value, max(drift, 1e-12)


def epstein_sum(j: int, d: int) -> float:
    """(2 pi)^-2j sum over nonzero integer vectors of (m^2)^-j; needs 2j > d."""
    return _epstein_err(j, d)[0]


# ---------------------------------------------------------------------------
# The d=2 logarithmic law
# ---------------------------------------------------------------------------

LOG_LAW_SIDES = (64, 128, 256, 512)


@lru_cache(maxsize=None)
def log_law_fit() -> dict:
    """Fit inverse_energy_sum(1, 2, L) - ln(N)/(4 pi) = A + b/N over LOG_LAW_SIDES."""
    xs, ys = [], []
    for side in LOG_LAW_SIDES:
        n = side * side
        xs.append(1.0 / n)
        ys.append(inverse_energy_sum(1, 2, side) - math.log(n) / (4.0 * math.pi))
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = intercept + slope * np.asarray(xs)
    residuals = [y - f for y, f in zip(ys, fitted)]
    return {
        "intercept": float(intercept),
        "slope": float(slope),
        "sides": list(LOG_LAW_SIDES),
        "per_size_estimates": [float(y) for y in ys],
        "residuals": [float(r) for r in residuals],
    }


def log_law_intercept() -> float:
    """The additive constant in inverse_energy_sum(1, 2, L) = ln(N)/(4 pi) + A + O(1/N)."""
    return log_law_fit()["intercept"]


# ---------------------------------------------------------------------------
# Rescaled critical functions and their negative root
# ---------------------------------------------------------------------------

def scaling_function(x: float, dim: int) -> float:
    """(1/4 pi^2) * (sum_{m != 0} x/(m^2 (m^2 - x)) - 1/x) over Z^dim, x < 0.

    Strictly increasing on the negative axis; diverges to +inf as x -> 0-.
    Lattice points with |m| <= SCALING_RADIUS are summed exactly and the
    remainder is replaced by its shell integral (absolute error below 1e-8
    for |x| up to order 10^3).
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if x >= 0.0:
        raise ValueError(f"the analysis needs x < 0, got {x}")
    limit = SCALING_RADIUS * SCALING_RADIUS
    counts = _norm_counts(dim, limit)
    norms = np.arange(1, limit + 1, dtype=float)
    body = float(np.sum(counts[1:] * x / (norms * (norms - x))))
    ax = -x
    r = float(SCALING_RADIUS)
    if dim == 3:
        tail = -4.0 * math.pi * math.sqrt(ax) * (math.pi / 2.0 - math.atan(r / math.sqrt(ax)))
    else:
        tail = -math.pi * math.log1p(ax / (r * r))
    return (body + tail - 1.0 / x) / (4.0 * math.pi**2)


def scaling_function_root(a: float, dim: int) -> float:
    """The unique x0 < 0 with scaling_function(x0, dim) = a."""
    def f(x: float) -> float:
        return scaling_function(x, dim) - a

    lo, hi = -1.0, -1e-12
    while (f_lo := f(lo)) > 0.0:
        lo *= 2.0
        if -lo > X_BRACKET_CAP:
            raise NoRootError(f"no negative root for a={a}: range exhausted at x={lo}")
    return brent_root(f, lo, hi, f_lo, f(hi))


# ---------------------------------------------------------------------------
# Assembled table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantEntry:
    kind: str                # "I", "c", "S", "A", "x0"
    j: int | None
    d: int | None
    size: int | None         # N where the entry is size-dependent
    a: float | None          # rescaled offset for x0 entries
    value: float
    error_estimate: float
    method: str
    truncation: str


def build_constant_table() -> list[ConstantEntry]:
    """Every analytic constant the experiments rely on, with provenance."""
    entries: list[ConstantEntry] = []
    for d in range(3, 11):
        v, e = _green_integral_err(1, d)
        entries.append(ConstantEntry("I", 1, d, None, None, v, e,
                                     "scaled-Bessel quadrature + asymptotic tail",
                                     f"upper limit {QUAD_UPPER:g}"))
    for d in range(5, 11):
        v, e = _green_integral_err(2, d)
        entries.append(ConstantEntry("I", 2, d, None, None, v, e,
                                     "scaled-Bessel quadrature + asymptotic tail",
                                     f"upper limit {QUAD_UPPER:g}"))
    for d in (1, 2, 3):
        v, e = _epstein_err(2, d)
        entries.append(ConstantEntry("c", 2, d, None, None, v, e,
                                     "radial lattice sum + shell-integral tail",
                                     f"radius doubling from 64, drift <= {EPSTEIN_TARGET:g}"))
    fit = log_law_fit()
    for side, est in zip(fit["sides"], fit["per_size_estimates"]):
        n = side * side
        entries.append(ConstantEntry("S", 1, 2, n, None,
                                     inverse_energy_sum(1, 2, side),
                                     max(1e-13 * abs(est), 1e-16),
                                     "exact Brillouin sum", f"side {side}"))
    max_resid = max(abs(r) for r in fit["residuals"])
    entries.append(ConstantEntry("A", None, 2, None, None, fit["intercept"],
                                 max(max_resid, 1e-8),
                                 "linear fit of the log-law remainder against 1/N",
                                 f"sides {fit['sides']}"))
    for dim in (2, 3):
        x0 = scaling_function_root(0.0, dim)
        entries.append(ConstantEntry("x0", None, dim, None, 0.0, x0, SCALING_ROOT_ERROR,
                                     "Brent root of the rescaled secular function",
                                     f"lattice radius {SCALING_RADIUS}"))
    return entries
