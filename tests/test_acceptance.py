"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three sub-assertions are expected to fail against their frozen
reference values because those references are not reproducible from their
own definitions (see README, "Reference-data discrepancies", and the
verified counterparts in the module test suites): the (2,5) integral entry
in criterion 1, the two quartic lattice-sum values in criterion 2, and the
10% hypercube gap band in criterion 6 (measured 10.5% below 2/sqrt(N)).
"""

import contextlib
import io
import math
import os
import time
import zlib

import numpy as np

from _shared import (
    IDENTITY_FAMILIES,
    IDENTITY_GAMMA_FACTORS,
    ORACLE_FAMILIES,
    cluster_weights,
    critical,
    family,
    ground_and_gap,
    levels,
    round_sig,
    scan_center,
    solved,
    spectral_clusters,
)

from qwsearch import (
    DenseReference,
    amplitude,
    default_time_horizon,
    epstein_sum,
    find_critical_gamma,
    find_optimal_time,
    green_integral,
    log_law_intercept,
    scaling_function_root,
    solve_spectrum,
    subcritical_scaling,
    verify_failure_bounds,
    verify_transition_bounds,
)
from qwsearch.cli import main as cli_main
from qwsearch.evolution import spectral_coefficients

PRINTED_INTEGRALS = {
    (1, 3): 0.253, (1, 4): 0.155, (1, 5): 0.116, (1, 6): 0.0931,
    (1, 7): 0.0781, (1, 8): 0.0674, (1, 9): 0.0593, (1, 10): 0.0530,
    (2, 5): 0.0184, (2, 6): 0.0105, (2, 7): 0.00697, (2, 8): 0.00504,
    (2, 9): 0.00383, (2, 10): 0.00301,
}
PRINTED_C = {(2, 2): 0.00664, (2, 3): 0.0265}


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_integral_table():
    from qwsearch.constants import _green_integral_err
    _green_integral_err.cache_clear()
    start = time.monotonic()
    computed = {key: green_integral(*key) for key in PRINTED_INTEGRALS}
    elapsed = time.monotonic() - start
    mismatched = {key: computed[key] for key, ref in PRINTED_INTEGRALS.items()
                  if round_sig(computed[key]) != ref}
    ok = not mismatched and elapsed < 60.0
    _report(1, ok, f"integral table: {14 - len(mismatched)}/14 printed values, "
                   f"{elapsed:.1f}s; mismatches={mismatched}")
    assert elapsed < 60.0
    assert not mismatched, (
        f"computed values disagree with the printed table: {mismatched} "
        f"(the (2,5) entry is independently verified at 0.0193; see README)")


def test_criterion_02_printed_constants():
    a = log_law_intercept()
    a_ok = abs(a - 0.0488) <= 0.0005
    mism = {key: epstein_sum(*key) for key, ref in PRINTED_C.items()
            if round_sig(epstein_sum(*key)) != ref}
    ok = a_ok and not mism
    _report(2, ok, f"intercept={a:.5f} (ok={a_ok}); lattice-sum mismatches={mism}")
    assert a_ok
    assert not mism, (
        f"lattice sums disagree with printed values: {mism} "
        f"(defining sums give 0.003867 and 0.010607; see README)")


def test_criterion_03_oracle_equivalence():
    worst_amp = worst_eig = worst_w = worst_s = 0.0
    for label in ORACLE_FAMILIES:
        rng = np.random.default_rng(1234 + zlib.crc32(label.encode()))
        center = scan_center(label)
        n = family(label).num_vertices
        horizon = default_time_horizon(n)
        for _ in range(10):
            gamma = float(rng.uniform(center / 4.0, 4.0 * center))
            w = int(rng.integers(0, n))
            ref = DenseReference(family(label), gamma, w)
            spec = solved(label, gamma)
            for _ in range(2):
                t = float(rng.uniform(0.0, horizon))
                worst_amp = max(worst_amp, abs(ref.amplitude(t) - amplitude(spec, t)))
            d_e, d_w, d_s = cluster_weights(ref.eigenvalues, ref.w_overlaps_sq(),
                                            ref.s_overlaps_sq())
            s_e, s_w, s_s = spectral_clusters(label, gamma)
            assert len(d_e) == len(s_e)
            worst_eig = max(worst_eig, float(np.max(np.abs(d_e - s_e))))
            worst_w = max(worst_w, float(np.max(np.abs(d_w - s_w))))
            worst_s = max(worst_s, float(np.max(np.abs(d_s - s_s))))
    worst = max(worst_amp, worst_eig, worst_w, worst_s)
    ok = worst < 1e-8
    _report(3, ok, f"oracle equivalence over {len(ORACLE_FAMILIES)} families x 20 pairs: "
                   f"worst deltas amp={worst_amp:.2e} eig={worst_eig:.2e} "
                   f"w={worst_w:.2e} s={worst_s:.2e}")
    assert ok


def test_criterion_04_exact_identities():
    combos = 0
    worst = 0.0
    for label in IDENTITY_FAMILIES:
        ls = levels(label)
        for factor in IDENTITY_GAMMA_FACTORS:
            gamma = factor * scan_center(label)
            spec = solved(label, gamma)
            combos += 1
            worst = max(worst,
                        abs(spec.sum_rule() + 1.0),
                        abs(spec.w_weights.sum() - 1.0),
                        abs(spec.s_weights.sum() - 1.0))
            assert int(np.sum(spec.energies < 0.0)) == 1
            poles = gamma * ls.energies
            for i in range(len(poles) - 1):
                assert poles[i] < spec.energies[i + 1] < poles[i + 1]
    ok = combos >= 50 and worst < 1e-9
    _report(4, ok, f"{combos} (family, gamma) combos; worst identity residual {worst:.2e}")
    assert combos >= 50
    assert worst < 1e-9


def test_criterion_05_complete_graph():
    n = 1024
    ls = levels("complete:1024")
    _, _, gap = ground_and_gap(ls, 1.0 / n)
    gap_ok = abs(gap - 0.0625) <= 0.05 * 0.0625
    spec = solved("complete:1024", 1.0 / n)
    p = abs(amplitude(spec, math.pi * math.sqrt(n) / 2.0)) ** 2
    p_ok = p >= 0.9
    gc = critical("complete:1024")
    gc_ok = abs(gc * n - 1.0) <= 0.02
    ok = gap_ok and p_ok and gc_ok
    _report(5, ok, f"gap={gap:.6f} (2/sqrt(N)={0.0625}), p(pi sqrt(N)/2)={p:.4f}, "
                   f"gamma_c*N={gc * n:.4f}")
    assert gap_ok and p_ok and gc_ok


def test_criterion_06_hypercube():
    gc = critical("hypercube:10")
    ls = levels("hypercube:10")
    _, _, gap = ground_and_gap(ls, gc)
    gap_ok = abs(gap - 0.0625) <= 0.10 * 0.0625
    spec = solved("hypercube:10", gc)
    w0, s0 = float(spec.w_weights[0]), float(spec.s_weights[0])
    overlap_ok = 0.3 <= w0 <= 0.7 and 0.3 <= s0 <= 0.7
    ok = gap_ok and overlap_ok
    _report(6, ok, f"gamma_c={gc:.6f}, min gap={gap:.6f} "
                   f"({gap / 0.0625:.4f} of 2/sqrt(N); band 0.9..1.1), "
                   f"|<w|psi0>|^2={w0:.3f}, |<s|psi0>|^2={s0:.3f}")
    assert overlap_ok
    assert gap_ok, (
        f"minimum gap {gap:.6f} sits {(1 - gap / 0.0625) * 100:.1f}% below "
        f"2/sqrt(N); the dense oracle confirms the value (see README)")


def test_criterion_07_secular_structure_16():
    spec = solved("lattice:2:4", 1.0)
    ls = levels("lattice:2:4")
    roots_ok = spec.num_roots == 5 and spec.irrelevant_count == 11
    degeneracies = dict(zip(ls.energies.tolist(), ls.multiplicities.tolist()))
    poles_ok = (degeneracies.get(2.0) == 4 and degeneracies.get(4.0) == 6
                and degeneracies.get(6.0) == 4)
    ok = roots_ok and poles_ok
    _report(7, ok, f"{spec.num_roots} relevant roots, {spec.irrelevant_count} orthogonal; "
                   f"pole degeneracies {degeneracies}")
    assert ok


def test_criterion_08_d5_scaling():
    start = time.monotonic()
    i1, i2 = green_integral(1, 5), green_integral(2, 5)
    results = []
    for side in (4, 6, 8):
        label = f"lattice:5:{side}"
        n = side**5
        gc = find_critical_gamma(family(label))
        spec = solve_spectrum(levels(label), gc)
        t_star, p_star = find_optimal_time(spec, default_time_horizon(n))
        results.append((n, t_star, p_star))
    elapsed = time.monotonic() - start
    exponent = float(np.polyfit(np.log([r[0] for r in results]),
                                np.log([r[1] for r in results]), 1)[0])
    exp_ok = abs(exponent - 0.50) <= 0.07
    predicted = i1 * i1 / i2
    p_large = results[-1][2]
    p_ok = abs(p_large - predicted) / predicted <= 0.25
    time_ok = elapsed < 600.0
    ok = exp_ok and p_ok and time_ok
    _report(8, ok, f"t* exponent={exponent:.3f}, p*(N=32768)={p_large:.4f} vs "
                   f"I1^2/I2={predicted:.4f}, {elapsed:.1f}s")
    assert exp_ok and p_ok and time_ok


def test_criterion_09_d4_marginal():
    i1 = green_integral(1, 4)
    x = 32.0 * math.pi**2 * i1 * i1
    gap_scale_ref = 2.0 * i1 * math.sqrt(32.0 * math.pi**2)
    p_band_ok = True
    gap_band_ok = True
    details = []
    for side in (6, 8, 10):
        label = f"lattice:4:{side}"
        n = side**4
        gc = find_critical_gamma(family(label))
        spec = solve_spectrum(levels(label), gc)
        _, p_star = find_optimal_time(spec, default_time_horizon(n))
        p_scaled = p_star * math.log(n)
        gap_scaled = float(spec.energies[1] - spec.energies[0]) * math.sqrt(n * math.log(n))
        p_band_ok &= 0.2 * x <= p_scaled <= 5.0 * x
        gap_band_ok &= gap_scale_ref / 2.0 <= gap_scaled <= gap_scale_ref * 2.0
        details.append(f"L={side}: p*lnN={p_scaled:.2f}, gap*sqrt(NlnN)={gap_scaled:.2f}")
    ok = p_band_ok and gap_band_ok
    _report(9, ok, f"band center {x:.2f} (factor 5), gap scale {gap_scale_ref:.2f} "
                   f"(factor 2); " + "; ".join(details))
    assert p_band_ok and gap_band_ok


def test_criterion_10_low_dim_failure():
    report3 = subcritical_scaling(3, [6, 8, 10, 12])
    ps = [r.p_star for r in report3.records]
    dec_ok = all(a > b for a, b in zip(ps, ps[1:]))
    ceil3_ok = all(c.passed for c in report3.checks
                   if c.bound_id.startswith("amp-ceiling-zero-offset"))
    report2 = subcritical_scaling(2, [16, 32, 64])
    ceil2_ok = all(c.passed for c in report2.checks
                   if c.bound_id.startswith("amp-ceiling-zero-offset"))
    x0 = abs(scaling_function_root(0.0, 2))
    runtime_ok = True
    for rec in report2.records:
        floor = 0.5 * rec.num_vertices / (4.0 * math.pi * x0 * math.log(rec.num_vertices))
        runtime_ok &= rec.runtime_metric >= floor
    ok = dec_ok and ceil3_ok and ceil2_ok and runtime_ok
    _report(10, ok, f"d=3 p*={['%.4f' % p for p in ps]} decreasing={dec_ok}, "
                    f"ceilings d3={ceil3_ok} d2={ceil2_ok}, runtime floor={runtime_ok}")
    assert dec_ok and ceil3_ok and ceil2_ok and runtime_ok


def test_criterion_11_bound_suites():
    matrix = {2: 32, 3: 10, 4: 6, 5: 4}
    failures = []
    for d, side in matrix.items():
        g = family(f"lattice:{d}:{side}")
        if d > 2:
            ref = green_integral(1, d)
        else:
            ref = math.log(float(side * side)) / (4.0 * math.pi) + log_law_intercept()
        for factor in (0.5, 2.0):
            for verify in (verify_transition_bounds, verify_failure_bounds):
                report = verify(g, factor * ref)
                if not report.all_pass():
                    failures.append((d, factor, verify.__name__,
                                     [c for c in report.checks if not c.passed]))
    ok = not failures
    _report(11, ok, f"4 dims x 2 couplings x 2 suites; failures={failures}")
    assert ok, failures


def test_criterion_12_figures_determinism(tmp_path):
    out = tmp_path / "figs"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["figures", "--output-dir", str(out)]) == 0
        first = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        assert cli_main(["figures", "--output-dir", str(out)]) == 0
        second = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    ok = first == second and len(first) >= 16
    _report(12, ok, f"{len(first)} artifacts byte-identical across two runs")
    assert ok
