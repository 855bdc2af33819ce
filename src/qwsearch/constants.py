"""Analytic constants of the lattice analysis.

Four related quantities control the search transition on d-dimensional
periodic lattices:

* green_integral(j, d): the Brillouin-zone integral of 1/E(k)^j, finite for
  d > 2j: the Laplace integral (2d)^-j / (j-1)! * int_0^inf a^(j-1) e^-a
  [I0(a/d)]^d da with the exponentially scaled Bessel function, on
  QUAD_PANELS panels up to QUAD_UPPER, plus an asymptotic tail.
* inverse_energy_sum(j, d, L): the exact finite-lattice sum
  (1/N) sum_{k != 0} E(k)^-j, which converges to the integral for d > 2j,
  grows like epstein_sum(j, d) * N^(2j/d - 1) for d < 2j, and picks up a
  log(N) law at d = 2j.
* epstein_sum(j, d): (2 pi)^-2j sum_{m in Z^d, m != 0} (m^2)^-j, the
  coefficient of the d < 2j growth law.
* scaling_function(x, dim) and its root: the N-independent function
  (1/4 pi^2) (sum_{m != 0} x/(m^2 (m^2 - x)) - 1/x) whose negative root
  pins the rescaled ground-state energy for dim = 2, 3.

The integer-lattice sums are Laplace integrals of theta(u)^d - 1, with
theta(u) = sum_n e^(-u n^2) (Ewald 1921; Borwein et al., Lattice Sums Then
and Now, 2013).  All three integrals go through one rule, QUAD_NODES-point
Gauss-Legendre on geometric panels, whose error estimate is the same rule on
the panels halved.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import _EPS, compensated_sum, step_out_root
from .graphs import GraphFamily, level_spectrum

QUAD_UPPER = 2000.0          # switchover from quadrature to the asymptotic tail
QUAD_PANELS = 13             # geometric panels [0, U 2^-12], [U 2^-12, U 2^-11], ..., [U/2, U]
QUAD_NODES = 24              # Gauss-Legendre nodes per panel
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


def _quadrature(terms, edges: np.ndarray, ulps: float, scale: float) -> tuple[float, float]:
    """scale * the sum of terms(nodes, weights) under the rule on the panels
    between edges, and its error estimate: the change on halving every panel,
    plus `ulps` ulps of scale * sum |terms| for roundoff in the node values,
    which rules where the two agree to the last bits (the sum itself is exact)."""
    wf = terms(*_panel_rule(edges))
    val = scale * compensated_sum(wf)
    halved = np.sort(np.r_[edges, 0.5 * (edges[:-1] + edges[1:])])
    err = abs(scale * compensated_sum(terms(*_panel_rule(halved))) - val)
    return val, err + ulps * _EPS * (scale * float(np.sum(np.abs(wf))))


_GREEN_EDGES = np.r_[0.0, QUAD_UPPER * 2.0 ** np.arange(1 - QUAD_PANELS, 1)]


@lru_cache(maxsize=None)
def _green_integral_err(j: int, d: int) -> tuple[float, float]:
    if j < 1:
        raise ValueError(f"the integral of E^-j needs j >= 1, got j={j}")
    if d <= 2 * j:
        raise DivergenceError(f"integral of E^-{j} diverges for d={d} <= 2j={2*j}")
    pref = 1.0 / ((2 * d) ** j * math.factorial(j - 1))
    # np.i0(x) e^-x is good to about 2.5 ulps and its d-th power to about d
    # times that, so the rounding floor is 2d ulps.  Against a 30-digit
    # integral the largest error seen on the tabulated (j, d) is 7.4 ulps, at d = 9.
    val, err = _quadrature(lambda a, w: w * a ** (j - 1) * (np.i0(a / d) * np.exp(-a / d)) ** d,
                           _GREEN_EDGES, 2.0 * d, pref)
    # Tail from the Bessel asymptotics (i0e(x))^d ~ (2 pi x)^(-d/2) (1 + d/(8x) + ...):
    # the integrand decays like a^(j-1-d/2), integrable precisely when d > 2j.
    # Term i is c0 a_i U^(p-i) / (i - p), c0 = pref (d / 2 pi)^(d/2), and c0 a_i
    # overflows from d = 348 on.  Above d = 20, where each term is below 1e-27 of
    # the value, U^p is taken into c0 (the two forms give the same bits for every
    # d from 13 to 347).
    p = j - d / 2.0
    scale, shift = (QUAD_UPPER, -p) if d > 20 else (1.0, 0.0)
    c0 = pref * scale**j * (d / (2.0 * math.pi * scale)) ** (d / 2.0)
    t = [c0 * a * QUAD_UPPER ** (p - i + shift) / (i - p)
         for i, a in enumerate((1.0, d**2 / 8.0, d**3 * (d + 8) / 128.0))]
    return val + t[0] + t[1] + t[2], err + abs(t[2])


def green_integral(j: int, d: int) -> float:
    """Brillouin-zone integral (2 pi)^-d int d^dk / E(k)^j; needs d > 2j."""
    return _green_integral_err(j, d)[0]


def inverse_energy_sum(j: int, d: int, side: int) -> float:
    """Finite sum (1/N) sum_{k != 0} E(k)^-j on the side^d torus, j = 1 or 2: the level moment."""
    if j not in (1, 2):
        raise ValueError(f"the levels carry the sums for j = 1 and 2, got j={j}")
    levels = level_spectrum(GraphFamily.lattice(d, side))
    return levels.s1 if j == 1 else levels.s2


# ---------------------------------------------------------------------------
# Integer-lattice sums
# ---------------------------------------------------------------------------

# Panels 2^-74, ..., 2^8 for the theta integrals.  Past 256, theta^d - 1 < 2.1 d e^-u,
# so the dropped tail is below 1e-28 of an Epstein sum (j <= 90) or 1e-100 absolute.
_THETA_EDGES = 2.0 ** np.arange(-74, 9)


def _theta_integral(d: int, kernel, power: int, scale: float) -> tuple[float, float]:
    """scale * int_0^inf (theta(u)^d - 1) kernel(u) du, theta(u) = sum_n e^(-u n^2),
    and its error estimate, for a kernel equal to kernel(delta) (u/delta)^power
    on [0, delta], delta = _THETA_EDGES[0], to below an ulp."""
    def terms(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        # theta(u) = sqrt(pi/u) theta(pi^2/u) (Poisson summation) below u = pi,
        # so the series runs at s >= pi, where n = 5 would add e^(-25 pi) < 1e-34.
        # theta^d - 1 as expm1(d log theta) does not cancel at large u.
        s = np.maximum(u, math.pi**2 / u)
        log_theta = np.log1p(2.0 * np.exp(-s[:, None] * np.arange(1, 5) ** 2).sum(axis=1))
        log_theta += 0.5 * np.log(np.maximum(math.pi / u, 1.0))
        return w * kernel(u) * np.expm1(d * log_theta)

    val, err = _quadrature(terms, _THETA_EDGES, 2.0 * d, scale)
    # Below delta, theta^d - 1 is (pi/u)^(d/2) to within e^(-pi^2/delta) and
    # the -1 adds below delta itself, so the head is taken in closed form.
    delta = _THETA_EDGES[0]
    head = kernel(delta) * math.pi ** (d / 2) * delta ** (1 - d / 2) / (power + 1 - d / 2)
    return val + scale * float(head), err


@lru_cache(maxsize=None)
def _epstein_err(j: int, d: int) -> tuple[float, float]:
    if 2 * j <= d:
        raise DivergenceError(f"lattice sum of (m^2)^-{j} diverges for d={d} >= 2j={2*j}")
    # sum' (m^2)^-j = (1/(j-1)!) int_0^inf u^(j-1) (theta(u)^d - 1) du
    value, err = _theta_integral(d, lambda u: u ** (j - 1), j - 1,
                                 1.0 / ((2.0 * math.pi) ** (2 * j) * math.factorial(j - 1)))
    return value, err + j * _EPS * value     # (2 pi)^2j carries j ulps of 2 pi's rounding


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
    # Built past level_spectrum's one-entry memo, so the caller's levels stay in it.
    sums = [level_spectrum.__wrapped__(GraphFamily.lattice(2, side)).s1 for side in LOG_LAW_SIDES]
    xs = [1.0 / (side * side) for side in LOG_LAW_SIDES]
    ys = [s - math.log(side * side) / (4.0 * math.pi) for s, side in zip(sums, LOG_LAW_SIDES)]
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = intercept + slope * np.asarray(xs)
    residuals = [y - f for y, f in zip(ys, fitted)]
    return {
        "intercept": float(intercept),
        "slope": float(slope),
        "sides": list(LOG_LAW_SIDES),
        "sums": sums,
        "per_size_estimates": [float(y) for y in ys],
        "residuals": [float(r) for r in residuals],
    }


def log_law_intercept() -> float:
    """The additive constant in inverse_energy_sum(1, 2, L) = ln(N)/(4 pi) + A + O(1/N)."""
    return log_law_fit()["intercept"]


# ---------------------------------------------------------------------------
# Rescaled critical functions and their negative root
# ---------------------------------------------------------------------------

def _scaling_err(x: float, dim: int) -> tuple[float, float]:
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if x >= 0.0:
        raise ValueError(f"the analysis needs x < 0, got {x}")
    # sum' x/(m^2 (m^2 - x)) = int_0^inf (theta^dim - 1) expm1(x u) du; the head's
    # expm1(x u) = x u holds to |x| delta / 2 < 3e-17 up to X_BRACKET_CAP.
    val, err = _theta_integral(dim, lambda u: np.expm1(x * u), 1, 1.0)
    # subtracting 1/x adds up to an ulp of it
    return (val - 1.0 / x) / (4.0 * math.pi**2), (err + _EPS * abs(1.0 / x)) / (4.0 * math.pi**2)


def scaling_function(x: float, dim: int) -> float:
    """(1/4 pi^2) * (sum_{m != 0} x/(m^2 (m^2 - x)) - 1/x) over Z^dim, x < 0.

    Strictly increasing on the negative axis; diverges to +inf as x -> 0-.
    _scaling_err gives the value with its error estimate.
    """
    return _scaling_err(x, dim)[0]


def scaling_function_root(a: float, dim: int) -> float:
    """The unique x0 < 0 with scaling_function(x0, dim) = a, stepped out from x = -1e-12."""
    def f(x: float) -> float:
        return scaling_function(x, dim) - a

    if (f_hi := f(-1e-12)) < 0.0:
        raise NoRootError(f"no negative root for a={a}: the function is {a + f_hi} at x=-1e-12")
    if (x0 := step_out_root(f, -1e-12, f_hi, -1.0, -X_BRACKET_CAP)) is None:
        raise NoRootError(f"no negative root for a={a}: range exhausted at x={-X_BRACKET_CAP}")
    return x0


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
    panels = "panels 2^-74 to 2^8, closed-form head below 2^-74"
    for j in (1, 2):
        for d in range(2 * j + 1, 11):      # I(j, d) converges for d > 2j
            v, e = _green_integral_err(j, d)
            entries.append(ConstantEntry("I", j, d, None, None, v, e,
                                         "scaled-Bessel quadrature + asymptotic tail",
                                         f"upper limit {QUAD_UPPER:g}"))
    for d in (1, 2, 3):
        v, e = _epstein_err(2, d)
        entries.append(ConstantEntry("c", 2, d, None, None, v, e,
                                     "theta-function integral", panels))
    fit = log_law_fit()
    for side, s1, est in zip(fit["sides"], fit["sums"], fit["per_size_estimates"]):
        entries.append(ConstantEntry("S", 1, 2, side * side, None, s1,
                                     max(1e-13 * abs(est), 1e-16),
                                     "exact Brillouin sum", f"side {side}"))
    max_resid = max(abs(r) for r in fit["residuals"])
    entries.append(ConstantEntry("A", None, 2, None, None, fit["intercept"],
                                 max(max_resid, 1e-8),
                                 "linear fit of the log-law remainder against 1/N",
                                 f"sides {fit['sides']}"))
    for dim in (2, 3):
        x0 = scaling_function_root(0.0, dim)
        # the slope exceeds 1/(2 pi x)^2, and Brent stops within 4 ulps of the root
        e = _scaling_err(x0, dim)[1] * (2.0 * math.pi * x0) ** 2 + 4.0 * _EPS * abs(x0)
        entries.append(ConstantEntry("x0", None, dim, None, 0.0, x0, e,
                                     "Brent root of the theta-integral secular function", panels))
    return entries
