import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _shared import (
    IDENTITY_FAMILIES,
    IDENTITY_GAMMA_FACTORS,
    _peak_bytes,
    ground_and_gap,
    levels,
    mp_secular_solution,
    scan_center,
    solved,
)

import qwsearch.secular
from qwsearch import (
    BracketError,
    GraphFamily,
    SecularPoleError,
    amplitude,
    amplitudes,
    default_time_horizon,
    green_integral,
    level_spectrum,
    lowest_two,
    secular_derivative,
    secular_value,
    solve_spectrum,
)


def test_value_two_vertex_complete():
    ls = level_spectrum(GraphFamily.complete(2))
    assert secular_value(ls, 1.0, -1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert secular_derivative(ls, 1.0, -1.0) == pytest.approx(5.0 / 9.0, abs=1e-15)


def test_value_vanishes_at_infinity():
    ls = levels("lattice:2:4")
    assert abs(secular_value(ls, 1.0, -1e9)) < 1e-8
    assert abs(secular_value(ls, 1.0, 1e9)) < 1e-8


def test_pole_hit_raises():
    ls = levels("lattice:2:4")
    with pytest.raises(SecularPoleError):
        secular_value(ls, 1.0, 2.0)
    with pytest.raises(SecularPoleError):
        secular_derivative(ls, 0.5, 1.0 + 1e-18)


def test_monotone_between_poles():
    ls = levels("lattice:2:4")
    for lo, hi in ((0.05, 1.95), (2.05, 3.95), (-3.0, -0.01)):
        grid = np.linspace(lo, hi, 40)
        vals = [secular_value(ls, 1.0, float(e)) for e in grid]
        assert np.all(np.diff(vals) > 0)


def test_derivative_positive_and_bounded_below():
    ls = levels("lattice:3:8")
    n = ls.num_vertices
    for e in (-0.7, -0.01, 0.3, 1.7):
        fp = secular_derivative(ls, 0.5, e)
        assert fp > 0.0
        assert fp >= 1.0 / (n * e * e)


def test_solve_square_lattice_16():
    spec = solved("lattice:2:4", 1.0)
    assert spec.num_roots == 5
    assert spec.irrelevant_count == 11
    ls = levels("lattice:2:4")
    for e in spec.energies:
        assert abs(secular_value(ls, 1.0, float(e)) - 1.0) < 1e-10


def test_complete_1024_gap():
    ls = levels("complete:1024")
    e0, e1, gap = ground_and_gap(ls, 1.0 / 1024.0)
    assert gap == pytest.approx(2.0 / 32.0, rel=0.05)
    # the two relevant roots are exactly +-1/sqrt(N) at gamma*N = 1
    assert e0 == pytest.approx(-1.0 / 32.0, abs=1e-12)
    assert e1 == pytest.approx(1.0 / 32.0, abs=1e-12)


def test_fprime_at_roots_dominates_one():
    spec = solved("lattice:3:8", 0.25)
    assert np.all(spec.fprimes >= 1.0)
    assert np.all(spec.w_weights <= 1.0)


@pytest.mark.parametrize("label", IDENTITY_FAMILIES)
@pytest.mark.parametrize("factor", IDENTITY_GAMMA_FACTORS)
def test_exact_identities(label, factor):
    gamma = factor * scan_center(label)
    spec = solved(label, gamma)
    ls = levels(label)
    assert spec.num_roots + spec.irrelevant_count == ls.num_vertices
    # exactly one negative root, all others positive
    assert int(np.sum(spec.energies < 0)) == 1
    assert spec.energies[0] < 0 < spec.energies[1]
    # interlacing with the distinct scaled levels
    poles = gamma * ls.energies
    for i in range(len(poles) - 1):
        assert poles[i] < spec.energies[i + 1] < poles[i + 1]
    # completeness and the sum rule
    assert abs(spec.w_weights.sum() - 1.0) < 1e-9
    assert abs(spec.s_weights.sum() - 1.0) < 1e-9
    assert abs(spec.sum_rule() + 1.0) < 1e-9


def test_monotonicity_finite_differences():
    ls = levels("lattice:2:16")
    gamma = 0.8
    poles = gamma * ls.energies
    for i in (0, 3, 7):
        lo, hi = poles[i], poles[i + 1]
        grid = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 12)
        vals = [secular_value(ls, gamma, float(e)) for e in grid]
        assert np.all(np.diff(vals) > 0)


def test_deterministic_resolve():
    a = solve_spectrum(levels("lattice:2:16"), 0.7)
    b = solve_spectrum(levels("lattice:2:16"), 0.7)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.fprimes, b.fprimes)


def test_gamma_validation():
    ls = levels("lattice:2:4")
    with pytest.raises(ValueError):
        solve_spectrum(ls, 0.0)
    with pytest.raises(ValueError):
        ground_and_gap(ls, -0.3)
    for gamma in (math.nan, math.inf, 1e-101, 1e101):
        with pytest.raises(ValueError):
            solve_spectrum(ls, gamma)
        with pytest.raises(ValueError, match=r"\[1e-100, 1e100\]"):
            ground_and_gap(ls, gamma)
    # every returned array is finite at both ends of the accepted range
    for gamma in (1e-100, 1e100):
        spec = solve_spectrum(ls, gamma)
        for arr in (spec.energies, spec.fprimes, spec.w_weights, spec.s_weights):
            assert np.all(np.isfinite(arr))
        assert np.all(np.isfinite(lowest_two(ls, gamma)))


@pytest.mark.parametrize("label", ["complete:2", "hypercube:1", "lattice:2:2",
                                   "lattice:10:2", "lattice:2:16", "lattice:3:32"])
@pytest.mark.parametrize("factor", [1e-6, 1e-2, 1.0, 1e2, 1e6])
def test_lowest_two_agrees_with_full_solve(label, factor):
    # both run the same kernel row by row, so the two lowest roots are bitwise equal
    ls = levels(label)
    gamma = factor * scan_center(label)
    spec = solve_spectrum(ls, gamma)
    assert lowest_two(ls, gamma) == (spec.energies[0], spec.energies[1],
                                     spec.fprimes[0], spec.fprimes[1])


@pytest.mark.parametrize("label,gamma", [
    *[("lattice:2:16", g) for g in (0.1, 0.55, 1.3, 4.0)],
    *[(label, factor * scan_center(label))
      for label in ("lattice:10:2", "lattice:3:8", "complete:2") for factor in (0.25, 1.0, 4.0)],
])
def test_roots_and_weights_match_40_digits(label, gamma):
    ls = levels(label)
    spec = solve_spectrum(ls, gamma)
    roots, weights = mp_secular_solution(ls, gamma)
    assert spec.num_roots == len(roots)
    for ours, refs in ((spec.energies, roots), (spec.w_weights, weights)):
        worst = max(abs((mpmath.mpf(float(x)) - y) / y) for x, y in zip(ours, refs))
        assert worst <= 1e-13


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(qwsearch.secular, "_MAX_ITER", 1)
    gamma = scan_center("lattice:2:16")
    with pytest.raises(BracketError, match=f"gamma={gamma!r}: bracket \\d+ .*tau=.*H") as info:
        solve_spectrum(levels("lattice:2:16"), gamma)
    with pytest.raises(BracketError) as inner:
        qwsearch.secular._solve_brackets(levels("lattice:2:16"), gamma, [3])
    # the poles print as plain numbers
    for exc in (info.value, inner.value):
        assert "np.float64" not in str(exc)


@pytest.mark.parametrize("label", ["complete:2", "hypercube:1", "lattice:2:2",
                                   "lattice:10:2", "lattice:2:16", "lattice:3:32"])
def test_batched_couplings_match_lowest_two(label):
    # one kernel call with a coupling per row, the five couplings shuffled and
    # both brackets of each in separate halves, equals lowest_two per coupling
    ls = levels(label)
    gammas = [f * scan_center(label) for f in (1e2, 1e-6, 1e6, 1.0, 1e-2)]
    roots, fprimes = qwsearch.secular._solve_brackets(ls, gammas + gammas, [0] * 5 + [1] * 5)
    for j, gamma in enumerate(gammas):
        assert lowest_two(ls, gamma) == (roots[j], roots[j + 5], fprimes[j], fprimes[j + 5])


def test_lowest_two_allocates_no_per_step_blocks():
    # K > 2^16, so each row is its own block and holds four rows of K floats:
    # the weights m_k/N, delta and the two step workspaces.  A temporary
    # taken on every step would add a fifth.
    ls = levels("lattice:2:1024")
    assert ls.num_levels > qwsearch.secular._BLOCK
    row = 8 * ls.num_levels
    assert _peak_bytes(lowest_two, ls, scan_center("lattice:2:1024")) < 4.5 * row


def test_batched_non_convergence_names_row_coupling(monkeypatch):
    monkeypatch.setattr(qwsearch.secular, "_MAX_ITER", 1)
    ls = levels("lattice:2:16")
    g0, g1 = 0.7 * scan_center("lattice:2:16"), 1.3 * scan_center("lattice:2:16")
    with pytest.raises(BracketError) as info:
        qwsearch.secular._solve_brackets(ls, [g0, g1], [3, 3])
    message = str(info.value)
    poles = float(g0 * ls.energies[2]), float(g0 * ls.energies[3])
    assert f"gamma={g0!r}: bracket 3 ({poles[0]!r}, {poles[1]!r})" in message
    assert repr(g1) not in message


def test_ground_and_gap_high_dim_critical():
    # at the asymptotic critical coupling the two lowest roots approach
    # -+ I1/sqrt(I2 N); finite-size corrections stay within 25% at N=1024
    i1, i2 = green_integral(1, 5), green_integral(2, 5)
    ls = levels("lattice:5:4")
    e0, e1, _ = ground_and_gap(ls, i1)
    predicted = i1 / math.sqrt(i2 * 1024.0)
    assert abs(e0 + predicted) / predicted < 0.25
    assert abs(e1 - predicted) / predicted < 0.25


def test_ground_energy_bound_above_critical():
    # |E_0| < gamma / (N (gamma - I1)) up to small terms for gamma above critical
    i1 = green_integral(1, 3)
    ls = levels("lattice:3:10")
    gamma = 2.0 * i1
    e0, _, _ = ground_and_gap(ls, gamma)
    assert abs(e0) <= 1.5 * gamma / (1000.0 * (gamma - i1))


def test_near_pole_roots_survive():
    # wide spectra with tight level clusters must still produce a root per gap
    ls = levels("lattice:2:16")
    for gamma in (0.1, 0.55, 1.3, 4.0):
        spec = solve_spectrum(ls, gamma)
        assert spec.num_roots == ls.num_levels
        assert abs(spec.sum_rule() + 1.0) < 1e-9


# The distinct families of the benchmark's three workloads; the first five
# are its full-spectrum families.
BENCHMARK_FAMILIES = (
    "lattice:5:8", "lattice:2:32", "lattice:4:16", "lattice:2:64", "lattice:3:32",
    "complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6", "lattice:3:10",
    "lattice:5:16", "lattice:4:32", "lattice:3:64", "lattice:2:256", "lattice:3:128",
    "lattice:2:1024",
)


@pytest.mark.parametrize("label", BENCHMARK_FAMILIES)
def test_roots_converge_within_nine_steps(label, monkeypatch):
    monkeypatch.setattr(qwsearch.secular, "_MAX_ITER", 9)
    ls = levels(label)
    for gamma in scan_center(label) * np.geomspace(0.25, 4.0, 9):
        lowest_two(ls, float(gamma))
        if label in BENCHMARK_FAMILIES[:5]:
            solve_spectrum(ls, float(gamma))


# Largest lattice side per dimension with N <= 4096.
_MAX_SIDE = {1: 4096, 2: 64, 3: 16, 4: 8, 5: 5}
_families = st.one_of(
    st.integers(2, 2048).map(lambda n: f"complete:{n}"),
    st.integers(1, 12).map(lambda bits: f"hypercube:{bits}"),
    st.sampled_from(sorted(_MAX_SIDE)).flatmap(
        lambda d: st.integers(2, _MAX_SIDE[d]).map(lambda side: f"lattice:{d}:{side}")),
)
# Couplings log-uniform from 1e-6 to 1e6 times the scan centre.
_factors = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
_examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_examples
@given(label=_families, factor=_factors)
def test_spectrum_properties(label, factor):
    ls = levels(label)
    gamma = factor * scan_center(label)
    spec = solve_spectrum(ls, gamma)
    poles = gamma * ls.energies
    assert spec.energies[0] < 0.0
    assert np.all(poles[:-1] < spec.energies[1:]) and np.all(spec.energies[1:] < poles[1:])
    assert abs(spec.sum_rule() + 1.0) <= 1e-12
    assert abs(math.fsum(spec.w_weights) - 1.0) <= 1e-12
    assert abs(math.fsum(spec.s_weights) - 1.0) <= 1e-12
    assert abs(abs(amplitude(spec, 0.0)) * math.sqrt(ls.num_vertices) - 1.0) <= 1e-12
    # unitarity: |amp| <= 1 at every time
    horizon = default_time_horizon(ls.num_vertices)
    assert np.max(np.abs(amplitudes(spec, horizon, 257))) <= 1.0 + 1e-12


@_examples
@given(label=_families, factor=_factors)
def test_lowest_two_solve_secular_equation(label, factor):
    # F - 1 at a returned root is about its rounding, eps*|E|, times the slope F'
    ls = levels(label)
    gamma = factor * scan_center(label)
    e0, e1, fp0, fp1 = lowest_two(ls, gamma)
    eps = np.finfo(float).eps
    for e, fp in ((e0, fp0), (e1, fp1)):
        assert abs(secular_value(ls, gamma, e) - 1.0) <= 64.0 * eps * (1.0 + abs(e) * fp)
