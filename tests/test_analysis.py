import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from _shared import (
    RANDOM_FAMILIES,
    _counting,
    critical,
    family,
    levels,
    levels_without_far_field,
    rootless_measured_offsets,
    scan_center,
    solved,
)

import qwsearch.analysis
import qwsearch.evolution
import qwsearch.secular
from qwsearch import (
    GraphFamily,
    critical_predictions,
    critical_reference,
    default_time_horizon,
    find_critical_gamma,
    find_optimal_time,
    green_integral,
    inverse_energy_sum,
    level_spectrum,
    log_law_fit,
    log_law_intercept,
    lowest_two,
    scan_gamma,
    solve_spectrum,
    subcritical_scaling,
    verify_failure_bounds,
    verify_transition_bounds,
)
from qwsearch._util import step_out_root
from qwsearch.analysis import bound_suites

# The coupling-sweep benchmark families.
SWEEP_FAMILIES = ("complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6",
                  "lattice:3:10", "lattice:2:32")

# Scan windows for the property checks sit at +-25% of the finite-size
# coupling center; all transition structure lives well inside them.
WINDOW = (0.75, 1.25)


def _window(label):
    center = scan_center(label)
    return WINDOW[0] * center, WINDOW[1] * center


def test_scan_validation():
    g = family("lattice:2:4")
    with pytest.raises(ValueError):
        scan_gamma(g, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        scan_gamma(g, 0.5, 0.2, 10)
    with pytest.raises(ValueError):
        scan_gamma(g, 0.1, 0.5, 1)
    for lo, hi in ((0.1, math.inf), (math.nan, 0.5), (0.1, math.nan)):
        with pytest.raises(ValueError):
            scan_gamma(g, lo, hi, 10)


def test_scan_range_error_names_the_first_coupling_outside():
    # each coupling of the grid is one row per root, 202 in all; the message names one
    grid = np.linspace(1e99, 1e101, 101)
    first = float(grid[grid > 1e100][0])
    with pytest.raises(ValueError) as exc:
        scan_gamma(family("lattice:2:8"), 1e99, 1e101, 101)
    assert str(exc.value) == f"gamma must lie in [1e-100, 1e100], got {first!r}"


@pytest.mark.parametrize("label, points", [("complete:1024", 11), ("lattice:3:6", 21)])
def test_scan_matches_per_coupling_records(label, points):
    records = scan_gamma(family(label), *_window(label), points)
    grid = np.linspace(*_window(label), points)
    ls = levels(label)
    assert records == [qwsearch.analysis._record(ls.num_vertices, g, *lowest_two(ls, g))
                       for g in grid]


def test_scan_complete_gap_minimum():
    g = family("complete:1024")
    records = scan_gamma(g, 0.5 / 1024, 1.5 / 1024, 101)
    gaps = [r.gap for r in records]
    g_min = records[int(np.argmin(gaps))].gamma
    assert abs(g_min * 1024 - 1.0) <= 0.02


def test_scan_record_sanity():
    records = scan_gamma(family("lattice:3:6"), *_window("lattice:3:6"), 21)
    for r in records:
        assert r.gap > 0.0
        assert r.e0 < 0.0 < r.e1
        assert r.gap == pytest.approx(r.e1 - r.e0, abs=1e-14)
        assert 0.0 <= r.overlap_s_psi0 <= 1.0 and 0.0 <= r.overlap_w_psi0 <= 1.0
        assert r.overlap_s_psi0 + r.overlap_s_psi1 <= 1.0 + 1e-9
        assert r.overlap_w_psi0 + r.overlap_w_psi1 <= 1.0 + 1e-9


def test_scan_crossing_d5():
    records = scan_gamma(family("lattice:5:4"), 0.06, 0.18, 61)
    diffs = [r.overlap_s_psi0 - r.overlap_s_psi1 for r in records]
    signs = np.sign(diffs)
    changes = int(np.sum(np.diff(signs) != 0))
    assert changes == 1
    cross = records[int(np.argmin(np.abs(diffs)))].gamma
    assert abs(cross - green_integral(1, 5)) / green_integral(1, 5) < 0.15


@pytest.mark.parametrize("label", [
    "complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6", "lattice:3:10",
])
def test_uniform_state_two_level_support(label):
    # the uniform state lives almost entirely in the two lowest eigenstates
    records = scan_gamma(family(label), *_window(label), 15)
    assert all(r.overlap_s_psi0 + r.overlap_s_psi1 >= 0.99 for r in records)


def test_uniform_state_support_d2():
    # d=2 at N ~ 1000 tops out near 0.984 at the critical coupling; the
    # floor asserted here is the verified finite-size value
    records = scan_gamma(family("lattice:2:32"), *_window("lattice:2:32"), 15)
    assert all(r.overlap_s_psi0 + r.overlap_s_psi1 >= 0.965 for r in records)


def test_marked_overlaps_small_at_critical_d2():
    # in two dimensions the marked state barely loads the two lowest
    # eigenstates near the transition (contrast d=5 where it reaches ~0.43)
    gc = critical("lattice:2:32")
    records = scan_gamma(family("lattice:2:32"), gc, 1.2, 25)
    assert all(max(r.overlap_w_psi0, r.overlap_w_psi1) < 0.2 for r in records)
    spec5 = solved("lattice:5:4", critical("lattice:5:4"))
    assert spec5.w_weights[0] > 0.35


@pytest.mark.parametrize("label", [
    "complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6",
    "lattice:3:10", "lattice:2:32",
])
def test_gap_unimodal_on_window(label):
    records = scan_gamma(family(label), *_window(label), 41)
    gaps = np.array([r.gap for r in records])
    curvature = np.diff(np.sign(np.diff(gaps)))
    assert int(np.sum(curvature > 0)) == 1


@pytest.mark.parametrize("label", [
    "complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6",
    "lattice:3:10", "lattice:2:32",
])
def test_crossing_happens_once(label):
    records = scan_gamma(family(label), *_window(label), 41)
    diffs = np.array([r.overlap_s_psi0 - r.overlap_s_psi1 for r in records])
    assert int(np.sum(np.diff(np.sign(diffs)) != 0)) == 1


def test_find_critical_complete():
    assert abs(critical("complete:1024") * 1024 - 1.0) <= 0.02


def test_find_critical_d5():
    assert abs(critical("lattice:5:4") - 0.116) / 0.116 <= 0.15


def test_find_critical_d2():
    law = math.log(1024.0) / (4.0 * math.pi) + 0.0488
    assert abs(critical("lattice:2:32") - law) / law <= 0.15


@pytest.mark.parametrize("label", SWEEP_FAMILIES)
def test_hellmann_feynman_slopes(label):
    # dE_a/dgamma = (E_a + R_a)/gamma against centred differences; a step of
    # 1e-6 gamma leaves them about 2e-10 apart
    ls = levels(label)
    for gamma in (0.5 * critical(label), critical(label), 2.0 * critical(label)):
        h = 1e-6 * gamma
        e0, e1, fp0, fp1 = lowest_two(ls, gamma)
        up, down = lowest_two(ls, gamma + h), lowest_two(ls, gamma - h)
        for a, (e, fp) in enumerate(((e0, fp0), (e1, fp1))):
            slope = (e + 1.0 / fp) / gamma
            assert (up[a] - down[a]) / (2.0 * h) == pytest.approx(slope, rel=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(label=RANDOM_FAMILIES, factor=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e))
def test_hellmann_feynman_slopes_property(label, factor):
    # the same centred differences on any family, at 0.1 to 10 times the scan
    # centre: the gamma_c search steps on the sign of this slope
    ls = levels(label)
    gamma = factor * scan_center(label)
    h = 1e-6 * gamma
    e0, e1, fp0, fp1 = lowest_two(ls, gamma)
    up, down = lowest_two(ls, gamma + h), lowest_two(ls, gamma - h)
    for a, (e, fp) in enumerate(((e0, fp0), (e1, fp1))):
        assert (up[a] - down[a]) / (2.0 * h) == pytest.approx((e + 1.0 / fp) / gamma, rel=1e-8)


@pytest.mark.parametrize("label", SWEEP_FAMILIES)
def test_critical_gamma_is_gap_minimum(label):
    # the derivative root against scipy's bounded minimizer of the gap itself
    ls = levels(label)
    gc = critical(label)

    def gap(g):
        e0, e1, _, _ = lowest_two(ls, g)
        return e1 - e0

    res = minimize_scalar(gap, bounds=(0.99 * gc, 1.01 * gc), method="bounded",
                          options={"xatol": 1e-11 * gc})
    assert gc == pytest.approx(res.x, rel=1e-7)


@pytest.mark.parametrize("label", SWEEP_FAMILIES)
def test_critical_gamma_kernel_calls(monkeypatch, label):
    # one lowest_two at the centre, then one per outward step and Brent step
    calls = []
    _counting(monkeypatch, (qwsearch.secular, qwsearch.analysis), "_solve_brackets", calls)
    find_critical_gamma(family(label))
    assert [len(brackets) for _, _, brackets in calls] == [2] * len(calls)
    assert len(calls) <= 16


@pytest.mark.parametrize("label, shift, end", [
    ("lattice:3:10", 20.0, "low"), ("lattice:2:32", 20.0, "low"), ("complete:1024", 0.05, "high"),
    ("complete:2", 1.0, "low"), ("hypercube:1", 1.0, "low"),
])
def test_critical_gamma_clamps_to_window(monkeypatch, label, shift, end):
    # with the gap minimum outside [center/3, 3*center] the derivative keeps
    # one sign, and the window end nearest the minimum comes back; at N = 2
    # the gap falls all the way to gamma = 0
    center = shift * scan_center(label)
    monkeypatch.setattr(qwsearch.analysis, "coupling_scan_center", lambda spectrum: center)
    assert find_critical_gamma(family(label)) == (center / 3.0 if end == "low" else 3.0 * center)


def test_critical_reference_lattice_only():
    with pytest.raises(ValueError):
        critical_reference(GraphFamily.complete(64))
    with pytest.raises(ValueError):
        critical_reference(GraphFamily.lattice(1, 16))
    assert critical_reference(GraphFamily.lattice(5, 4)) == pytest.approx(green_integral(1, 5))
    d2 = critical_reference(GraphFamily.lattice(2, 32))
    assert d2 == pytest.approx(math.log(1024.0) / (4.0 * math.pi) + log_law_intercept(), abs=1e-12)


def test_transition_bounds_refuse_near_critical():
    g = family("lattice:5:4")
    with pytest.raises(ValueError):
        verify_transition_bounds(g, green_integral(1, 5) * 1.01)
    with pytest.raises(ValueError):
        verify_failure_bounds(g, green_integral(1, 5))


def test_transition_bounds_non_lattice_rejected():
    with pytest.raises(ValueError):
        verify_transition_bounds(GraphFamily.complete(64), 0.5)


def test_transition_bounds_above_d5():
    report = verify_transition_bounds(family("lattice:5:4"), 2.0 * green_integral(1, 5))
    assert report.side == "above"
    assert report.all_pass()
    ids = {c.bound_id for c in report.checks}
    assert ids == {"ground-energy", "ground-s-deficit-exact", "ground-s-deficit-closed"}


def test_transition_bounds_below_d3():
    i1 = green_integral(1, 3)
    report = verify_transition_bounds(family("lattice:3:10"), 0.5 * i1)
    assert report.side == "below"
    assert report.all_pass()
    ec = next(c for c in report.checks if c.bound_id == "excited-energy")
    # E_1 < gamma / (N (I1 - gamma)) with the small-terms slack
    assert ec.rhs == pytest.approx(1.5 * 0.5 * i1 / (1000.0 * (i1 - 0.5 * i1)), rel=1e-12)


def test_transition_bounds_above_d2():
    ref = critical_reference(GraphFamily.lattice(2, 32))
    report = verify_transition_bounds(family("lattice:2:32"), 2.0 * ref)
    assert report.side == "above"
    assert report.all_pass()


def test_failure_bounds_above_any_family():
    report = verify_failure_bounds(family("lattice:4:6"), 2.0 * green_integral(1, 4))
    assert report.all_pass()
    assert any(c.bound_id == "amp-global" and c.slack == 1.0 for c in report.checks)


def test_failure_bounds_below_d5():
    i1, i2 = green_integral(1, 5), green_integral(2, 5)
    gamma = 0.5 * i1
    report = verify_failure_bounds(family("lattice:5:4"), gamma)
    assert report.all_pass()
    below = next(c for c in report.checks if c.bound_id == "amp-below-closed")
    assert below.rhs == pytest.approx(1.5 * 2.0 * i2 / (gamma * (i1 - gamma)) / 32.0, rel=1e-12)


def test_failure_bounds_below_d3():
    i1 = green_integral(1, 3)
    gamma = 0.5 * i1
    report = verify_failure_bounds(family("lattice:3:10"), gamma)
    assert report.all_pass()
    below = next(c for c in report.checks if c.bound_id == "amp-below-closed")
    expected = 1.5 * 2.0 * math.pi**4 / (1024.0 * gamma * (i1 - gamma) ** 2) / math.sqrt(1000.0)
    assert below.rhs == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.05, 1e-8, 1e-20])
def test_failure_bounds_below_d4(gamma):
    # the floor e solves (pi^2 e / (256 g^2)) ln(1 + 16 g / e) = I1/g - 1; for
    # small g it tends to about 1.72 g, so its bracket has to scale with g
    i1 = green_integral(1, 4)
    with mpmath.workdps(40):
        g, target = mpmath.mpf(gamma), mpmath.mpf(i1) / gamma - 1

        def f(e):
            return mpmath.pi**2 * e / (256 * g**2) * mpmath.log(1 + 16 * g / e) - target

        floor = float(mpmath.findroot(f, (g, 2 * g)))
    report = verify_failure_bounds(family("lattice:4:6"), gamma)
    assert report.all_pass()
    below = next(c for c in report.checks if c.bound_id == "amp-below-closed")
    assert below.rhs == pytest.approx(1.5 * 2.0 / (36.0 * floor), rel=1e-13)


@pytest.mark.parametrize("label, sides", [
    ("lattice:3:6", ["below", "above", "below", "above"]),
    ("lattice:2:8", ["above", "above"]),     # below N = 100 the 0.5 ref couplings drop out
    ("lattice:3:2", []),                     # below N = 25 the 2 ref ones too
])
def test_bound_suites_clear_the_margin(label, sides):
    graph = family(label)
    reports = bound_suites(graph)
    assert [r.side for r in reports] == sides
    ref = critical_reference(graph)
    # both suites run at the same couplings, the transition suite first
    suites = [verify for verify in (verify_transition_bounds, verify_failure_bounds)
              for _ in range(len(sides) // 2)]
    for report, verify in zip(reports, suites, strict=True):
        assert report == verify(graph, report.gamma)
        assert report.gamma in (0.5 * ref, 2.0 * ref)
        assert abs(report.gamma - ref) >= report.margin


def test_failure_bounds_read_the_refined_peak():
    # max_t |amp| is sqrt(p*) from find_optimal_time, never below the grid maximum
    graph = family("lattice:3:10")
    gamma = 2.0 * critical_reference(graph)
    report = verify_failure_bounds(graph, gamma)
    spec = solve_spectrum(level_spectrum(graph), gamma)
    p_star = find_optimal_time(spec, default_time_horizon(graph.num_vertices))[1]
    assert next(c.lhs for c in report.checks if c.bound_id == "amp-global") == math.sqrt(p_star)


def test_predictions_reject_low_dim():
    with pytest.raises(ValueError):
        critical_predictions(3, [6, 8])


def test_predictions_d5_converge():
    records = critical_predictions(5, [4, 6])
    devs = [abs((r.e1_measured - r.e0_measured) - (r.e1_predicted - r.e0_predicted))
            / (r.e1_predicted - r.e0_predicted) for r in records]
    assert devs[1] < devs[0]
    for r in records:
        assert r.e0_measured < 0 < r.e1_measured
        assert abs(r.fprime0_measured - r.fprime_predicted) / r.fprime_predicted < 0.5
        assert r.p_star <= 1.0


def _scan_crossing(spectrum, gc, p_peak, side):
    """First coupling from gc outward where p* falls below p_peak/2, on steps of
    0.1% of gc interpolated linearly; NaN if p* stays above it out to 15%."""
    x, p = gc, p_peak
    for k in range(1, 151):
        x_next = gc * (1.0 + side * 1e-3 * k)
        p_next = qwsearch.analysis._optimum(spectrum, x_next)[2]
        if p_next < p_peak / 2.0:
            return x + (x_next - x) * (p - p_peak / 2.0) / (p - p_next)
        x, p = x_next, p_next
    return math.nan


@pytest.mark.parametrize("d, side, resolved", [
    (4, 8, True), (5, 6, True), (4, 4, False), (5, 3, False),
])
def test_window_half_width_against_fine_scan(d, side, resolved):
    # the crossings of p*(gamma) = p_peak/2 are roots of p* itself; on the
    # smallest lattices one lies beyond 15% of gamma_c, and the width is NaN
    label = f"lattice:{d}:{side}"
    spectrum, gc = levels(label), critical(label)
    p_peak = qwsearch.analysis._optimum(spectrum, gc)[2]
    width = critical_predictions(d, [side])[0].window_half_width
    below, above = (_scan_crossing(spectrum, gc, p_peak, s) for s in (-1, 1))
    if not resolved:
        assert math.isnan(width) and math.isnan(above - below)
        return
    assert width == pytest.approx((above - below) / 2.0, rel=0.01)
    for x in qwsearch.analysis._half_max_crossings(spectrum, gc, p_peak):
        assert qwsearch.analysis._optimum(spectrum, x)[2] == pytest.approx(p_peak / 2.0, rel=1e-9)


def _two_root_half_width(spectrum, gc):
    """Half the distance between the couplings either side of gc where the two-root
    ceiling p2(gamma) = (|c0| + |c1|)^2 falls to p2(gc)/2, from lowest_two alone;
    |c_a|^2 = R_a S_a, the product of the root's w and s overlaps."""
    def p2(gamma):
        e0, e1, fp0, fp1 = lowest_two(spectrum, gamma)
        n = spectrum.num_vertices
        return sum(math.sqrt(1.0 / fp * (1.0 / (n * e * e * fp))) for e, fp in
                   ((e0, fp0), (e1, fp1))) ** 2

    half = p2(gc) / 2.0
    below, above = (step_out_root(lambda x: p2(x) - half, gc, half, side * 1e-3 * gc,
                                  (1.0 + 0.15 * side) * gc) for side in (-1.0, 1.0))
    return (above - below) / 2.0


@pytest.mark.parametrize("d, side", [(4, 8), (5, 6), (4, 12), (5, 8), (4, 16), (5, 12)])
def test_window_half_width_against_two_root_ceiling(d, side):
    # near gamma_c two roots carry nearly all of the peak, so their ceiling's
    # half-maximum width checks the window without _optimum or find_optimal_time
    label = f"lattice:{d}:{side}"
    width = critical_predictions(d, [side])[0].window_half_width
    assert width == pytest.approx(_two_root_half_width(levels(label), critical(label)), rel=0.05)


def test_critical_search_and_bound_suites_build_levels_once():
    # the d = 2 reference fits its log law past the memo, so it evicts nothing
    log_law_fit.cache_clear()
    level_spectrum.cache_clear()
    graph = family("lattice:2:16")
    find_critical_gamma(graph)
    bound_suites(graph)
    assert level_spectrum.cache_info().misses == 1


@pytest.mark.parametrize("label", ["lattice:5:40", "lattice:3:128"])
def test_critical_search_and_bounds_across_far_field(label, monkeypatch):
    # the far levels summed by their moments move gamma_c by at most 2e-15
    # relative and change no transition-bound verdict; an energy moves by at
    # most 1e-12 of itself, and a deficit 1 - |<s|psi>|^2 by 1e-12 of the
    # overlap it is taken from (one ulp of an overlap near 1 is 4e-9 of a
    # deficit of 5.6e-8 at lattice:5:40)
    graph = family(label)
    gamma_ref = critical_reference(graph)
    runs = []
    for spectrum in (levels(label), levels_without_far_field(label)):
        monkeypatch.setattr(qwsearch.analysis, "level_spectrum", lambda g: spectrum)
        runs.append((find_critical_gamma(graph),
                     [verify_transition_bounds(graph, f * gamma_ref).checks for f in (0.5, 2.0)]))
    (on, on_checks), (off, off_checks) = runs
    assert levels(label).far_start < levels(label).num_levels
    assert abs(on - off) <= 2e-15 * off
    for on_side, off_side in zip(on_checks, off_checks):
        assert [c.passed for c in on_side] == [c.passed for c in off_side]
        for a, b in zip(on_side, off_side):
            scale = 1.0 - b.lhs if "deficit" in b.bound_id else b.lhs
            assert a.bound_id == b.bound_id and abs(a.lhs - b.lhs) <= 1e-12 * scale


def test_subcritical_rejects_other_dims():
    with pytest.raises(ValueError):
        subcritical_scaling(4, [6])
    with pytest.raises(ValueError):
        subcritical_scaling(5, [4])


def test_subcritical_measured_offset_without_root(monkeypatch):
    rootless_measured_offsets(monkeypatch)
    report = subcritical_scaling(3, [6])
    check, = [c for c in report.checks if c.bound_id.startswith("amp-ceiling-measured-offset")]
    assert math.isnan(check.rhs)
    assert check.passed is False and check.applicable is False
    assert report.x0_at_zero == pytest.approx(-0.2606, abs=1e-3)


def test_transition_bounds_build_levels_once():
    level_spectrum.cache_clear()
    report = verify_transition_bounds(family("lattice:3:10"), 0.5 * green_integral(1, 3))
    assert level_spectrum.cache_info().misses == 1
    assert report.all_pass()


def test_large_lattice_sequence_builds_levels_once():
    # the large-lattice benchmark task shares one build across its layers
    graph = family("lattice:3:10")
    level_spectrum.cache_clear()
    level_spectrum(graph)
    inverse_energy_sum(2, 3, 10)
    verify_transition_bounds(graph, 0.5 * critical_reference(graph))
    find_critical_gamma(graph)
    assert level_spectrum.cache_info().misses == 1
    # the memo keeps one graph, so alternating graphs rebuild on every call
    level_spectrum.cache_clear()
    for side in (10, 8, 10, 8):
        inverse_energy_sum(2, 3, side)
    info = level_spectrum.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 1)


def test_subcritical_one_amplitude_grid_per_side(monkeypatch):
    calls = []
    grid = qwsearch.evolution.OPTIMAL_TIME_GRID
    _counting(monkeypatch, (qwsearch.evolution,), "amplitudes", calls,
              keep=lambda spec, t_max, num_points: num_points == grid)
    sides = [6, 8]
    subcritical_scaling(3, sides)
    assert len(calls) == len(sides)


@pytest.mark.parametrize("run, builds", [
    (lambda: subcritical_scaling(3, [6, 8]), 2),
    (lambda: critical_predictions(5, [4]), 1),
], ids=["subcritical", "critical"])
def test_experiments_build_levels_once_per_side(run, builds):
    level_spectrum.cache_clear()
    run()
    assert level_spectrum.cache_info().misses == builds


def test_subcritical_d3_small():
    report = subcritical_scaling(3, [6, 8])
    assert report.dim == 3
    assert report.x0_at_zero == pytest.approx(-0.2606, abs=1e-3)
    ps = [r.p_star for r in report.records]
    assert ps[1] < ps[0]
    for check in report.checks:
        if check.applicable:
            assert check.passed, check
    for r in report.records:
        assert r.runtime_metric == pytest.approx(r.t_star / r.p_star, rel=1e-12)
