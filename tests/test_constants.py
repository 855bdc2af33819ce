import math

import mpmath
import numpy as np
import pytest

from _shared import _counting, dispersion_values, green_integral_bruteforce, round_sig

import qwsearch.constants
from qwsearch import (
    DivergenceError,
    GraphFamily,
    NoRootError,
    build_constant_table,
    coupling_scan_center,
    epstein_sum,
    green_integral,
    inverse_energy_sum,
    level_spectrum,
    log_law_fit,
    log_law_intercept,
    scaling_function,
    scaling_function_root,
)
from qwsearch.constants import LOG_LAW_SIDES, SCALING_RADIUS, _norm_counts

# Published 3-digit table for the convergent integrals.  The (2, 5) entry is
# not reproducible from the defining integral: quadrature and finite-lattice
# sums independently converge to 0.0193 (see README, "Reference-data
# discrepancies"), so it is checked against the verified value here and the
# printed value is exercised (and fails) only in the acceptance suite.
REFERENCE_INTEGRALS = {
    (1, 3): 0.253, (1, 4): 0.155, (1, 5): 0.116, (1, 6): 0.0931,
    (1, 7): 0.0781, (1, 8): 0.0674, (1, 9): 0.0593, (1, 10): 0.0530,
    (2, 6): 0.0105, (2, 7): 0.00697, (2, 8): 0.00504,
    (2, 9): 0.00383, (2, 10): 0.00301,
}
VERIFIED_I_2_5 = 0.0193


def test_green_integral_reference_values():
    for (j, d), ref in REFERENCE_INTEGRALS.items():
        assert round_sig(green_integral(j, d)) == ref, (j, d)


def test_green_integral_2_5_verified_independently():
    # independent oracle: finite Brillouin sums extrapolated linearly in 1/L
    s32 = green_integral_bruteforce(2, 5, 32)
    s48 = green_integral_bruteforce(2, 5, 48)
    extrapolated = (48.0 * s48 - 32.0 * s32) / 16.0
    value = green_integral(2, 5)
    assert abs(value - extrapolated) < 5e-4
    assert round_sig(value) == VERIFIED_I_2_5


def test_green_integral_divergence():
    for j, d in ((1, 2), (1, 1), (2, 4), (2, 3), (3, 6)):
        with pytest.raises(DivergenceError):
            green_integral(j, d)


@pytest.mark.parametrize("j", [0, -1])
def test_green_integral_needs_positive_j(j):
    with pytest.raises(ValueError, match=f"got j={j}$"):
        green_integral(j, 3)


@pytest.mark.parametrize("d", [350, 353, 400, 1000])
def test_green_integral_at_large_dimension(d):
    # the 1/d expansion of <E^-j> about the mean 2d with variance 2d; the tail's
    # prefactor (d / 2 pi)^(d/2) times its coefficients overflows from d = 348 on
    x = 1.0 / (2 * d)
    for j, expansion in ((1, x * (1 + x)), (2, x * x * (1 + 3 * x))):
        value, error = qwsearch.constants._green_integral_err(j, d)
        assert math.isfinite(error)
        assert abs(value / expansion - 1.0) < 10.0 / d**2, (j, d)


def test_green_integral_error_estimates():
    for entry in build_constant_table():
        if entry.kind == "I":
            # half an ulp of the third significant figure
            scale = 10.0 ** math.floor(math.log10(abs(entry.value)))
            assert entry.error_estimate < 0.5 * scale * 1e-2
            assert entry.error_estimate > 0.0


@pytest.mark.parametrize("j,d", [(1, 3), (1, 5), (2, 6), (1, 10)])
def test_green_integral_within_estimate_of_mpmath(j, d):
    # 30-digit tanh-sinh quadrature of the Laplace representation over [0, inf):
    # no fixed panels, no upper limit and no asymptotic tail.
    entry = next(e for e in build_constant_table() if e.kind == "I" and (e.j, e.d) == (j, d))
    with mpmath.workdps(30):
        pref = mpmath.mpf(1) / ((2 * d) ** j * math.factorial(j - 1))
        exact = mpmath.quad(
            lambda a: pref * a ** (j - 1) * (mpmath.besseli(0, a / d) * mpmath.exp(-a / d)) ** d,
            [0, 1, 10, 100, 1000, 10000, mpmath.inf])
        distance = float(abs(mpmath.mpf(entry.value) - exact))
    assert distance <= entry.error_estimate


def test_bruteforce_matches_integral_d4():
    assert abs(green_integral_bruteforce(1, 4, 6) - 0.155) / 0.155 < 0.10


def test_bruteforce_positive_finite():
    v = green_integral_bruteforce(2, 5, 4)
    assert 0.0 < v < math.inf


def test_bruteforce_richardson_d3():
    # quadratic fit in 1/L over three sizes recovers the integral to 2e-3
    sides = (8, 12, 16)
    u = np.array([1.0 / s for s in sides])
    y = np.array([green_integral_bruteforce(1, 3, s) for s in sides])
    extrapolated = np.polyfit(u, y, 2)[-1]
    assert abs(extrapolated - 0.253) <= 0.002


def test_bruteforce_monotone_convergence():
    i13 = green_integral(1, 3)
    errs = [abs(i13 - green_integral_bruteforce(1, 3, s)) for s in (8, 12, 16, 24)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_bruteforce_validation():
    with pytest.raises(DivergenceError):
        green_integral_bruteforce(2, 3, 8)
    with pytest.raises(ValueError):
        green_integral_bruteforce(1, 3, 3)


def test_epstein_one_dimensional_zeta():
    # sum over nonzero integers of m^-4 is 2 zeta(4) = pi^4 / 45
    expected = (math.pi**4 / 45.0) / (2.0 * math.pi) ** 4
    assert epstein_sum(2, 1) == pytest.approx(expected, abs=1e-9)


def _direct_epstein(j, d, radius):
    axes = np.arange(-radius, radius + 1)
    mesh = np.meshgrid(*([axes] * d), indexing="ij")
    norm_sq = sum(m.astype(float) ** 2 for m in mesh).ravel()
    norm_sq = norm_sq[(norm_sq > 0) & (norm_sq <= radius * radius)]
    body = float(np.sum(norm_sq ** (-float(j))))
    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    tail = surf * radius ** (d - 2 * j) / (2 * j - d)
    return (body + tail) / (2.0 * math.pi) ** (2 * j)


@pytest.mark.parametrize("dim,limit", [(1, 200**2), (2, 200**2), (3, 50**2)])
def test_norm_counts_match_direct_count(dim, limit):
    radius = math.isqrt(limit)
    axes = np.arange(-radius, radius + 1)
    mesh = np.meshgrid(*([axes] * dim), indexing="ij")
    norm_sq = sum(m**2 for m in mesh).ravel()
    direct = np.bincount(norm_sq[norm_sq <= limit], minlength=limit + 1)
    assert np.array_equal(_norm_counts(dim, limit), direct)


def test_epstein_matches_direct_summation():
    assert abs(epstein_sum(2, 2) - _direct_epstein(2, 2, 150)) < 1e-6
    assert abs(epstein_sum(2, 3) - _direct_epstein(2, 3, 80)) < 1e-6


def test_epstein_error_estimate_below_target():
    for entry in build_constant_table():
        if entry.kind == "c":
            assert 0.0 < entry.error_estimate < 1e-6


def test_epstein_divergence():
    for j, d in ((1, 2), (1, 3), (2, 4), (2, 5)):
        with pytest.raises(DivergenceError):
            epstein_sum(j, d)


def test_inverse_energy_sum_tiny_ring():
    # d=1, side 2: the only nonzero mode sits at energy 4
    assert inverse_energy_sum(1, 1, 2) == pytest.approx(0.125, abs=1e-15)


def test_inverse_energy_sum_repeat_does_no_new_sum(monkeypatch):
    sums = []
    _counting(monkeypatch, (qwsearch.constants,), "compensated_sum", sums)
    first = inverse_energy_sum(2, 3, 10)
    builds = level_spectrum.cache_info().misses
    assert inverse_energy_sum(2, 3, 10) == first
    assert level_spectrum.cache_info().misses == builds
    assert sums == []


@pytest.mark.parametrize("d,side", [(5, 16), (4, 32), (3, 64), (2, 256), (3, 128), (2, 1024)])
def test_inverse_energy_sum_reads_level_moments(d, side):
    # the level build is the one producer of S1 and S2, so every reader agrees bitwise
    levels = level_spectrum(GraphFamily.lattice(d, side))
    assert inverse_energy_sum(1, d, side) == levels.s1 == coupling_scan_center(levels)
    assert inverse_energy_sum(2, d, side) == levels.s2


def test_inverse_energy_sum_other_powers_rejected():
    with pytest.raises(ValueError, match="j=3"):
        inverse_energy_sum(3, 3, 8)


def test_constant_table_builds_each_log_law_lattice_once(monkeypatch):
    # the table reads the sums the fit took, so a cold call builds each side
    # once, past the one-entry memo, which it leaves alone
    builds = []
    _counting(monkeypatch, (level_spectrum,), "__wrapped__", builds)
    log_law_fit.cache_clear()
    level_spectrum.cache_clear()
    build_constant_table()
    assert [g.side for (g,) in builds] == list(LOG_LAW_SIDES)
    assert level_spectrum.cache_info().misses == 0


@pytest.mark.parametrize("j,d,side", [
    (1, 3, 8), (2, 5, 8), (1, 2, 64), (2, 2, 32), (2, 4, 16), (1, 5, 16),
    (2, 3, 40), (1, 4, 32), (2, 3, 128), (2, 2, 1024),
])
def test_inverse_energy_sum_matches_bruteforce(j, d, side):
    e = dispersion_values(d, side)
    brute = math.fsum((e[e > 0.0] ** (-float(j))).tolist()) / side**d
    assert inverse_energy_sum(j, d, side) == pytest.approx(brute, rel=1e-12, abs=0.0)


def test_inverse_energy_sum_log_law_d2():
    n = 64 * 64
    law = math.log(n) / (4.0 * math.pi) + log_law_intercept()
    assert abs(inverse_energy_sum(1, 2, 64) - law) < 1e-3


def test_inverse_energy_sum_log_law_d4():
    # the residual against ln(N)/(32 pi^2) settles to a constant
    resid = [inverse_energy_sum(2, 4, s) - math.log(float(s**4)) / (32.0 * math.pi**2)
             for s in (12, 16)]
    assert abs(resid[1] - resid[0]) < 1e-4


def test_growth_law_coefficients():
    # for d < 2j the finite sums grow like epstein_sum * N^(2j/d - 1)
    n22 = 64 * 64
    assert abs(inverse_energy_sum(2, 2, 64) / n22 - epstein_sum(2, 2)) / epstein_sum(2, 2) < 0.05
    n23 = 40**3
    scaled = inverse_energy_sum(2, 3, 40) * n23 ** (-1.0 / 3.0)
    assert abs(scaled - epstein_sum(2, 3)) / epstein_sum(2, 3) < 0.05


def test_intercept_value_and_residuals():
    fit = log_law_fit()
    assert abs(fit["intercept"] - 0.0488) <= 0.0005
    assert abs(fit["residuals"][-1]) < 1e-4
    # per-size estimates increase monotonically toward the intercept
    est = fit["per_size_estimates"]
    assert all(a < b for a, b in zip(est, est[1:]))
    assert all(e < fit["intercept"] for e in est)


def test_scaling_function_pole_and_monotonicity():
    assert scaling_function(-1e-6, 3) > 1e4
    for dim in (2, 3):
        xs = [-8.0, -3.0, -1.0, -0.3, -0.05]
        vals = [scaling_function(x, dim) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _direct_scaling_function(x, dim, radius=SCALING_RADIUS):
    axes = np.arange(-radius, radius + 1, dtype=float)
    total = 0.0
    if dim == 3:
        plane = (axes[:, None] ** 2 + axes[None, :] ** 2).ravel()
        for a in axes:
            norm_sq = plane + a * a
            mask = (norm_sq > 0) & (norm_sq <= radius * radius)
            n = norm_sq[mask]
            total += float(np.sum(x / (n * (n - x))))
        tail = -4.0 * math.pi * math.sqrt(-x) * (math.pi / 2.0 - math.atan(radius / math.sqrt(-x)))
    else:
        norm_sq = (axes[:, None] ** 2 + axes[None, :] ** 2).ravel()
        mask = (norm_sq > 0) & (norm_sq <= radius * radius)
        n = norm_sq[mask]
        total = float(np.sum(x / (n * (n - x))))
        tail = -math.pi * math.log1p(-x / radius**2)
    return (total + tail - 1.0 / x) / (4.0 * math.pi**2)


def test_scaling_function_matches_direct_summation():
    for dim in (2, 3):
        assert abs(scaling_function(-1.0, dim) - _direct_scaling_function(-1.0, dim)) < 1e-8


def test_scaling_function_validation():
    with pytest.raises(ValueError):
        scaling_function(0.0, 3)
    with pytest.raises(ValueError):
        scaling_function(1.0, 2)
    with pytest.raises(ValueError):
        scaling_function(-1.0, 4)


def test_root_round_trip():
    for dim in (2, 3):
        a = scaling_function(-1.0, dim)
        assert scaling_function_root(a, dim) == pytest.approx(-1.0, abs=1e-10)


def test_root_at_zero_vs_plain_bisection():
    for dim in (2, 3):
        lo, hi = -1e6, -1e-6
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if scaling_function(mid, dim) > 0.0:
                hi = mid
            else:
                lo = mid
        x0 = scaling_function_root(0.0, dim)
        assert x0 == pytest.approx(0.5 * (lo + hi), abs=1e-8)
        assert x0 < 0.0
        assert abs(scaling_function(x0, dim)) < 1e-10


def test_x0_estimate_covers_radius_truncation(monkeypatch):
    # x0 at lattice radius 800 lies within the tabulated estimate of the radius-200 value
    rows = {e.d: e for e in build_constant_table() if e.kind == "x0"}
    monkeypatch.setattr(qwsearch.constants, "SCALING_RADIUS", 800)
    for dim, row in rows.items():
        assert abs(scaling_function_root(0.0, dim) - row.value) <= row.error_estimate


def test_root_out_of_range():
    # the two-dimensional function is bounded below by about -1.1 on the
    # searchable bracket, so far smaller targets have no root
    with pytest.raises(NoRootError):
        scaling_function_root(-5.0, 2)


def test_root_above_range():
    # the function reaches only about 2.5e10 at the bracket's upper end
    # x = -1e-12, so a larger target has no root there
    with pytest.raises(NoRootError, match="x=-1e-12"):
        scaling_function_root(1e11, 2)


def test_constant_table_structure():
    table = build_constant_table()
    kinds = {e.kind for e in table}
    assert kinds == {"I", "c", "S", "A", "x0"}
    for e in table:
        assert e.error_estimate > 0.0
        if e.kind == "I":
            assert e.d > 2 * e.j
        if e.kind == "c":
            assert 2 * e.j > e.d
        if e.kind == "S":
            assert e.size is not None
    i_count = sum(1 for e in table if e.kind == "I")
    assert i_count == 14
