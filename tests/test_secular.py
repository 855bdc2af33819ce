import decimal
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _shared import (
    IDENTITY_FAMILIES,
    IDENTITY_GAMMA_FACTORS,
    RANDOM_FAMILIES,
    _peak_bytes,
    family,
    ground_and_gap,
    levels,
    levels_without_far_field,
    mp_secular_solution,
    mp_solved,
    scan_center,
    solved,
    steps_to_converge,
)

import qwsearch.graphs
import qwsearch.secular
from qwsearch import (
    BracketError,
    GraphFamily,
    SecularPoleError,
    amplitude,
    amplitudes,
    critical_reference,
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


# High-dimension lattices past the dense oracle's reach: N up to 6e7 on K <= 113 levels.
_STRESS_FAMILIES = ("lattice:10:4", "lattice:10:5", "lattice:10:6", "lattice:7:8")


@pytest.mark.parametrize("label", IDENTITY_FAMILIES + _STRESS_FAMILIES)
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
        with pytest.raises(ValueError, match=re.escape(f"[1e-100, 1e100], got {gamma}")):
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


# The cases of the 1e-13 test above, and full solves on the benchmark's
# coupling-sweep families across the critical coupling.
_TIGHT_CASES = [
    *[("lattice:2:16", g) for g in (0.1, 0.55, 1.3, 4.0)],
    *[(label, factor * scan_center(label))
      for label in ("lattice:10:2", "lattice:3:8", "complete:2") for factor in (0.25, 1.0, 4.0)],
    *[(label, factor * scan_center(label))
      for label in ("lattice:5:4", "lattice:4:6", "lattice:3:10", "lattice:2:32", "hypercube:10")
      for factor in (0.5, 0.9, 1.1, 1.5)],
]


@pytest.mark.parametrize("label,gamma", _TIGHT_CASES)
def test_roots_and_weights_at_rounding_level(label, gamma):
    # a root returned from the model of its last step sits a few roundings
    # from the 40-digit root, and so does its weight
    spec = solved(label, gamma)
    roots, weights = mp_solved(label, gamma)
    for ours, refs in ((spec.energies, roots), (spec.w_weights, weights)):
        worst = max(abs((mpmath.mpf(float(x)) - y) / y) for x, y in zip(ours, refs))
        assert worst <= 1e-14


@pytest.mark.parametrize("label", ["hypercube:30", "hypercube:40", "hypercube:50", "hypercube:62",
                                   "lattice:5:8", "lattice:3:10", "lattice:2:32", "lattice:5:40"])
@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_lowest_two_backward_stable(label, factor):
    # Near gamma_c, dE/E ~ (sqrt(N)/2) dgamma/gamma, so forward digits go with N.
    # By Hellmann-Feynman gamma dE/dgamma = E + R, and |E - E*| / |E* + R*| is the
    # relative change of gamma that makes E exact: it stays at the rounding level.
    # lattice:5:40 (K = 31979) sums its far levels by their moments.
    ls = levels(label)
    gamma = factor * ls.s1
    roots, weights = mp_secular_solution(ls, gamma, dps=60, count=2)
    e0, e1, _, _ = lowest_two(ls, gamma)
    for ours, root, weight in zip((e0, e1), roots, weights):
        assert abs((mpmath.mpf(ours) - root) / (root + weight)) <= 2 * 2.0**-52


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(qwsearch.secular, "_MAX_ITER", 1)
    gamma = scan_center("lattice:2:16")
    with pytest.raises(BracketError, match=f"gamma={gamma!r}: bracket \\d+ .*tau=.*H") as info:
        solve_spectrum(levels("lattice:2:16"), gamma)
    with pytest.raises(BracketError) as inner:
        qwsearch.secular._solve_brackets(levels("lattice:2:16"), gamma, [3])
    # one row at K > 2^16 is a block of its own
    big = levels("lattice:2:1024")
    assert big.num_levels > qwsearch.secular._BLOCK
    big_gamma = scan_center("lattice:2:1024")
    with pytest.raises(BracketError) as one_row:
        qwsearch.secular._solve_brackets(big, big_gamma, [1])
    # the wide and the narrow calls name the coupling, bracket, poles, last tau
    # and |H| alike, and the poles print as plain numbers
    number = r"-?(?:inf|\d[\d.]*(?:e[-+]\d+)?)"
    for exc, g in ((info.value, gamma), (inner.value, gamma), (one_row.value, big_gamma)):
        assert re.search(rf"gamma={re.escape(repr(g))}: bracket \d+ \({number}, {number}\), "
                         rf"last tau={number} with \|H\|={number}$", str(exc)), str(exc)
        assert "np.float64" not in str(exc)


@pytest.mark.parametrize("a, b, m, sign", [
    (1.0, 2.0, 3.0, 1.0), (1.0, -3.0, 2.0, -1.0), (-1.0, 4.0, 1.0, 1.0),
    (-1.0, 1.0, 1.0, 1.0),      # negative discriminant: nan
    (0.0, -1.0, 1.0, 1.0),      # zero divisor: inf
    (0.0, 0.0, 0.0, -1.0),      # 0/0: nan
    (math.inf, 1.0, 1.0, 1.0), (1e300, 1e300, 1e300, -1.0),
])
def test_float_signed_root_mirrors_array_root(a, b, m, sign):
    # the row path's root of the step model gives numpy's value, inf or nan
    # where numpy does, never ValueError or ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = qwsearch.secular._signed_root(np.array([a]), np.array([b]), m, sign)
        got = qwsearch.secular._float_signed_root(a, b, m, sign)
    np.testing.assert_array_equal([got], want)


@pytest.mark.parametrize("label", ["complete:2", "hypercube:1", "lattice:2:2",
                                   "lattice:10:2", "lattice:2:16", "lattice:3:32", "lattice:5:40"])
def test_batched_couplings_match_lowest_two(label):
    # one kernel call with a coupling per row, the five couplings shuffled and
    # both brackets of each in separate halves, equals lowest_two per coupling;
    # lattice:5:40 (K = 31979) steps every row with its far field
    ls = levels(label)
    gammas = [f * scan_center(label) for f in (1e2, 1e-6, 1e6, 1.0, 1e-2)]
    roots, fprimes = qwsearch.secular._solve_brackets(ls, gammas + gammas, [0] * 5 + [1] * 5)
    for j, gamma in enumerate(gammas):
        assert lowest_two(ls, gamma) == (roots[j], roots[j + 5], fprimes[j], fprimes[j + 5])


def test_far_field_only_on_the_row_path(monkeypatch):
    # levels with a far field step every bracket on the row path, so
    # _solve_block never meets it; 1-D lattices of side 2K - 2 have K levels
    limit = qwsearch.graphs.FAR_FIELD_LEVELS
    below = level_spectrum(GraphFamily.lattice(1, 2 * limit - 2))
    assert below.num_levels == limit == below.far_start and below.far_moments == ()
    above = level_spectrum(GraphFamily.lattice(1, 2 * limit))
    assert above.num_levels == limit + 1 and 1 < above.far_start < limit

    def block(*args):
        raise AssertionError("a far-field spectrum reached _solve_block")

    monkeypatch.setattr(qwsearch.secular, "_solve_block", block)
    brackets = np.arange(0, above.num_levels, 1000)
    roots, _ = qwsearch.secular._solve_brackets(above, above.s1, brackets)
    assert roots[0] < 0.0 and np.all(roots[1:] > 0.0)


@pytest.mark.parametrize("label", ["complete:2", "hypercube:3", "lattice:2:16", "lattice:1:26212"])
def test_bracket_calls_without_far_field_take_blocks(label, monkeypatch):
    # below the far field every call to _solve_brackets, of any width, runs on
    # _solve_block; lattice:1:26212 has K = FAR_FIELD_LEVELS, the most levels
    # without a far field
    ls = levels(label)
    assert not ls.far_moments

    def row(*args):
        raise AssertionError("a bracket call without a far field reached _solve_row")

    monkeypatch.setattr(qwsearch.secular, "_solve_row", row)
    for width in (1, 2, 4, 5):
        brackets = np.resize(np.arange(ls.num_levels), width)
        roots, _ = qwsearch.secular._solve_brackets(ls, ls.s1, brackets)
        assert np.all((roots < 0.0) == (brackets == 0))


@pytest.mark.parametrize("label", ["lattice:5:40", "lattice:1:26216"])
def test_far_sums_match_40_digit_tail(label):
    # the moment series of the far levels, at points across the radius, is within
    # 2 eps of the 40-digit sums of its terms, value and derivative (the truncation
    # leaves out at most eps/8; the largest error seen is 1.2 eps, at lattice:2:1024)
    ls = levels(label)
    gamma, D = decimal.Decimal(ls.s1), decimal.Decimal
    far = list(zip(map(D, ls.weights[ls.far_start:].tolist()),
                   map(D, ls.energies[ls.far_start:].tolist())))
    with decimal.localcontext(decimal.Context(prec=40)):
        for x in ls.far_radius * np.array([-1.0, -0.3, 0.0, 0.6, 1.0]):
            value, slope = qwsearch.secular._far_sums(ls, ls.s1, float(x))
            terms = [w / (gamma * (e - D(float(x)))) for w, e in far]
            want_value = sum(terms)
            want_slope = sum(t * t / w for t, (w, _) in zip(terms, far))
            assert abs(D(value) - want_value) <= D(2 * 2.0**-52) * want_value
            assert abs(D(slope) - want_slope) <= D(2 * 2.0**-52) * want_slope


@pytest.mark.parametrize("label", ["lattice:5:40", "lattice:3:128"])
def test_far_field_takes_the_same_steps(label):
    # the far sums join R, R' and the spread of the stopping bound, so the two
    # lowest roots take as many steps as with every level passed over
    ls, off = levels(label), levels_without_far_field(label)
    for gamma in ls.s1 * np.geomspace(0.25, 4.0, 9):
        for bracket in (0, 1):
            assert (steps_to_converge(ls, float(gamma), bracket)
                    == steps_to_converge(off, float(gamma), bracket))


def test_far_field_leaves_other_points_bitwise():
    # at 1e-3 times S1 the ground root lies near -1, so x = E/gamma is about
    # -1/(1e-3 S1), far outside the radius, and every step passes over all levels
    # as without the far field; brackets from the cut on never use it.  (The
    # excited root lies below gamma*E_1, inside the radius at any coupling.)
    # The levels rebuilt without a far field run on blocks, so this compares
    # far-field rows with blocks.
    ls, off = levels("lattice:5:40"), levels_without_far_field("lattice:5:40")
    assert 1 < ls.far_start < ls.num_levels == off.far_start
    for gamma, brackets in ((1e-3 * ls.s1, [0, ls.far_start, ls.num_levels - 1]),
                            (ls.s1, [ls.far_start, ls.num_levels // 2])):
        on_roots, on_fprimes = qwsearch.secular._solve_brackets(ls, gamma, brackets)
        off_roots, off_fprimes = qwsearch.secular._solve_brackets(off, gamma, brackets)
        assert on_roots.tolist() == off_roots.tolist()
        assert on_fprimes.tolist() == off_fprimes.tolist()


def test_lowest_two_allocates_no_per_step_blocks():
    # K > 2^16, so each row is its own block and holds three rows of K floats:
    # delta and the two step workspaces (the weights come with the levels).
    # A temporary taken on every step would add a fourth.
    ls = levels("lattice:2:1024")
    assert ls.num_levels > qwsearch.secular._BLOCK
    row = 8 * ls.num_levels
    assert _peak_bytes(lowest_two, ls, scan_center("lattice:2:1024")) < 3.5 * row


def test_full_solve_compacts_in_place():
    # a block holds delta and the two step workspaces; when rows finish, the
    # kept rows of delta go into a workspace, so no fourth block is taken
    ls = levels("lattice:2:64")
    block = 8 * qwsearch.secular._BLOCK
    assert ls.num_levels < qwsearch.secular._BLOCK // 4
    for factor in (0.25, 1.0, 4.0):
        assert _peak_bytes(solve_spectrum, ls, factor * scan_center("lattice:2:64")) < 3.5 * block


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


@pytest.mark.parametrize("n, gamma", [(2**51, 10.0), (2**54, 1.0), (2**58, 0.1),
                                      (2**63 - 1, 1e-12), (2**63 - 1, 10.0)])
def test_ground_root_on_bracket_end(n, gamma):
    # gamma N >= 2e16 puts the ground root within half an ulp of the bracket end -1/N;
    # a start or model root that rounds onto it is evaluated there
    spec = solve_spectrum(level_spectrum(GraphFamily.complete(n)), gamma)
    assert -1.0 < spec.energies[0] <= -1.0 / n
    assert abs(spec.sum_rule() + 1.0) <= 1e-12
    assert abs(math.fsum(spec.w_weights) - 1.0) <= 1e-12
    assert abs(math.fsum(spec.s_weights) - 1.0) <= 1e-12


@pytest.mark.parametrize("label", ["complete:3", "lattice:1:3"])
def test_inner_root_on_interval_midpoint(label):
    # at the scan centre the excited root is 1/3, exactly the midpoint of the
    # bracket (0, 2/3) and the two-pole start; it is taken as the first tau, so
    # F' comes from the root itself on both kernel paths
    ls, gamma = levels(label), scan_center(label)
    _, e1, _, fp1 = lowest_two(ls, gamma)
    assert e1 == 0.5 * (gamma * ls.energies[1])
    assert abs(fp1 - secular_derivative(ls, gamma, e1)) <= 4.0 * math.ulp(fp1)
    assert steps_to_converge(ls, gamma, 1) <= 2
    rows = 5
    roots, fprimes = qwsearch.secular._solve_brackets(ls, gamma, [1] * rows)
    assert roots.tolist() == [e1] * rows and fprimes.tolist() == [fp1] * rows


@pytest.mark.parametrize("label", ["complete:3", "lattice:1:3"])
def test_oracle_reaches_root_on_bisection_point(label):
    # at the scan centre the excited root lies within rounding of the 40-digit
    # oracle's first bisection midpoint, and Newton from inside overshoots it;
    # held at that end, the oracle steps back onto the root
    ls, gamma = levels(label), scan_center(label)
    spec = solve_spectrum(ls, gamma)
    roots, weights = mp_secular_solution(ls, gamma)
    for ours, refs in ((spec.energies, roots), (spec.w_weights, weights)):
        worst = max(abs((mpmath.mpf(float(x)) - y) / y) for x, y in zip(ours, refs))
        assert worst <= 1e-14


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


@pytest.mark.parametrize("label", BENCHMARK_FAMILIES[:14])
def test_lowest_two_matches_array_path(label):
    # lowest_two steps its two rows on Python floats; the same rows in one call
    # at every coupling take the array path (no far field), and agree bit for
    # bit from weak to strong coupling and across the coupling-sweep window
    ls = levels(label)
    assert not ls.far_moments
    gammas = scan_center(label) * np.r_[np.geomspace(1e-6, 1e6, 25), np.linspace(0.5, 1.5, 41)]
    roots, fprimes = qwsearch.secular._solve_brackets(
        ls, np.repeat(gammas, 2), np.tile([0, 1], len(gammas)))
    for j, gamma in enumerate(gammas.tolist()):
        two = slice(2 * j, 2 * j + 2)
        assert lowest_two(ls, gamma) == (*roots[two], *fprimes[two])


def test_lowest_two_matches_brackets_past_the_array_path():
    # above FAR_FIELD_LEVELS only rows run, so no array path checks lowest_two
    # there; its direct row solves agree bit for bit with _solve_brackets on the
    # same two brackets, at ground roots on both sides of the far-field radius
    inside = set()
    for label in ("lattice:3:128", "lattice:2:1024"):
        ls, ref = levels(label), critical_reference(family(label))
        assert ls.num_levels > qwsearch.graphs.FAR_FIELD_LEVELS
        for gamma in (0.5 * ref, 0.9 * ls.s1, ls.s1, 1.1 * ls.s1, 2.0 * ref):
            roots, fprimes = qwsearch.secular._solve_brackets(ls, gamma, [0, 1])
            two = lowest_two(ls, gamma)
            assert two == (*roots.tolist(), *fprimes.tolist())
            inside.add(abs(two[0] / gamma) <= ls.far_radius)
        for gamma in (math.nan, 0, -1, 1e101):
            with pytest.raises(ValueError) as direct:
                lowest_two(ls, gamma)
            with pytest.raises(ValueError) as rows:
                qwsearch.secular._solve_brackets(ls, gamma, [0, 1])
            message = f"gamma must lie in [1e-100, 1e100], got {gamma}"
            assert str(direct.value) == str(rows.value) == message
    assert inside == {True, False}


@pytest.mark.parametrize("label", ["lattice:3:32", "lattice:2:64", "complete:1024",
                                   "hypercube:10", "lattice:5:8"])
def test_weak_coupling_ground_root_starts_near(label):
    # at weak coupling the ground root sits near -1, far from any start that
    # ignores the levels; the one-pole bounds on the rest of F put it close
    ls = levels(label)
    assert steps_to_converge(ls, 1e-6 * scan_center(label), 0) <= 5


# Couplings log-uniform from 1e-6 to 1e6 times the scan centre.
_factors = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
_examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_examples
@given(label=RANDOM_FAMILIES, factor=_factors)
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
@given(label=RANDOM_FAMILIES, factor=_factors)
def test_lowest_two_solve_secular_equation(label, factor):
    # F - 1 at a returned root is about its rounding, eps*|E|, times the slope F'
    ls = levels(label)
    gamma = factor * scan_center(label)
    e0, e1, fp0, fp1 = lowest_two(ls, gamma)
    eps = np.finfo(float).eps
    for e, fp in ((e0, fp0), (e1, fp1)):
        assert abs(secular_value(ls, gamma, e) - 1.0) <= 64.0 * eps * (1.0 + abs(e) * fp)


@_examples
@given(label=RANDOM_FAMILIES,
       rows=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), _factors),
                     min_size=1, max_size=2))
def test_narrow_rows_match_array_rows(label, rows):
    # one or two brackets anywhere in the spectrum, each at its own coupling,
    # step on Python floats; padded with more rows, the same brackets take
    # the array path, with rows that finish at other steps.  Rows share no
    # arithmetic, so the two paths agree bit for bit.
    ls = levels(label)
    brackets = [int(u * ls.num_levels) for u, _ in rows]
    gammas = [f * scan_center(label) for _, f in rows]
    pad = np.resize(np.arange(ls.num_levels), 5).tolist()
    assert not ls.far_moments
    work = np.empty((3, ls.num_levels))
    with np.errstate(divide="ignore", invalid="ignore"):
        narrow = [qwsearch.secular._solve_row(ls, g, b, work) for g, b in zip(gammas, brackets)]
    wide_roots, wide_fprimes = qwsearch.secular._solve_brackets(
        ls, gammas + [scan_center(label)] * len(pad), brackets + pad)
    assert narrow == list(zip(wide_roots[:len(rows)].tolist(), wide_fprimes[:len(rows)].tolist()))
