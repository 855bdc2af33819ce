"""Experiments: coupling scans, critical-point location, bound suites, scaling studies.

The search transition lives at a critical coupling gamma_c where the uniform
state migrates between the two lowest eigenstates and the gap is minimal.
For lattices with d > 2 the asymptotic critical value is green_integral(1, d);
for d = 2 it is ln(N)/(4 pi) + A.  Experiments always locate gamma_c by gap
minimization and use the analytic values only to center scan windows, so
their outcomes do not depend on quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import brent_root
from .constants import (
    NoRootError,
    green_integral,
    inverse_energy_sum,
    log_law_intercept,
    scaling_function_root,
)
from .evolution import (
    OPTIMAL_TIME_GRID,
    _grid_optimum,
    amplitudes,
    default_time_horizon,
    find_optimal_time,
)
from .graphs import GraphFamily, LevelSpectrum, level_spectrum
from .secular import _solve_brackets, lowest_two, solve_spectrum

# Bounds away from the critical point assume the coupling clears the critical
# window, whose width shrinks like N^(-1/2); the margin must dominate it.
MARGIN_REL = 0.1
MARGIN_SQRT = 5.0
# Inequalities derived "up to small terms" get this slack; d=2 comparisons,
# where every correction is only logarithmically suppressed, get a factor 2.
SLACK_SMALL_TERMS = 1.5
SLACK_D2 = 2.0

COARSE_SCAN_POINTS = 61


@dataclass(frozen=True)
class ScanRecord:
    gamma: float
    e0: float
    e1: float
    gap: float
    overlap_s_psi0: float
    overlap_s_psi1: float
    overlap_w_psi0: float
    overlap_w_psi1: float


@dataclass(frozen=True)
class ScalingRecord:
    num_vertices: int
    gamma_used: float
    gap: float
    t_star: float
    p_star: float
    runtime_metric: float      # t_star / p_star, the repetition cost


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    applicable: bool = True


@dataclass(frozen=True)
class BoundReport:
    graph: str
    gamma: float
    gamma_reference: float
    margin: float
    side: str                  # "above" or "below"
    checks: list[BoundCheck] = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


@dataclass(frozen=True)
class PredictionRecord:
    num_vertices: int
    gamma_used: float
    e0_measured: float
    e0_predicted: float
    e1_measured: float
    e1_predicted: float
    fprime0_measured: float
    fprime_predicted: float
    p_star: float
    p_predicted: float
    t_star: float
    t_predicted: float
    window_half_width: float   # measured half-max width of p*(gamma); NaN if unresolved


@dataclass(frozen=True)
class SubcriticalReport:
    dim: int
    x0_at_zero: float
    records: list[ScalingRecord]
    checks: list[BoundCheck]


def coupling_scan_center(spectrum: LevelSpectrum) -> float:
    """Finite-size estimate (1/N) sum_{k != 0} 1/E_k of the critical coupling."""
    e = spectrum.energies[1:]
    m = spectrum.multiplicities[1:].astype(float)
    return float(np.sum(m / e)) / spectrum.num_vertices


def critical_reference(graph: GraphFamily) -> float:
    """Asymptotic critical coupling used by the bound suites (lattices only)."""
    if graph.kind != "lattice":
        raise ValueError("analytic critical couplings are defined for lattice families")
    if graph.dim > 2:
        return green_integral(1, graph.dim)
    if graph.dim == 2:
        return math.log(graph.num_vertices) / (4.0 * math.pi) + log_law_intercept()
    raise ValueError("no finite critical coupling in one dimension")


def _record(n: int, gamma: float, e0: float, e1: float, fp0: float, fp1: float) -> ScanRecord:
    return ScanRecord(
        gamma=float(gamma),
        e0=e0,
        e1=e1,
        gap=e1 - e0,
        overlap_s_psi0=1.0 / (n * e0 * e0 * fp0),
        overlap_s_psi1=1.0 / (n * e1 * e1 * fp1),
        overlap_w_psi0=1.0 / fp0,
        overlap_w_psi1=1.0 / fp1,
    )


def _two_level_grid(spectrum: LevelSpectrum, grid: np.ndarray) -> np.ndarray:
    """Rows (e0, e1, fprime0, fprime1) at each coupling, from one kernel call."""
    roots, fprimes = _solve_brackets(spectrum, np.repeat(grid, 2), np.tile([0, 1], len(grid)))
    return np.hstack([roots.reshape(-1, 2), fprimes.reshape(-1, 2)])


def _gap_slope(e0, e1, fp0, fp1):
    """gamma * d(E1 - E0)/dgamma, by Hellmann-Feynman dE_a/dgamma = (E_a + R_a)/gamma."""
    return e1 + 1.0 / fp1 - e0 - 1.0 / fp0


def scan_gamma(graph: GraphFamily, gamma_lo: float, gamma_hi: float,
               num_points: int) -> list[ScanRecord]:
    """Gap and two-level overlaps on a uniform coupling grid."""
    if not 0.0 < gamma_lo < gamma_hi < math.inf:
        raise ValueError(f"need 0 < gamma_lo < gamma_hi < inf, got {gamma_lo}, {gamma_hi}")
    if num_points < 2:
        raise ValueError(f"need at least 2 scan points, got {num_points}")
    grid = np.linspace(gamma_lo, gamma_hi, num_points)
    rows = _two_level_grid(level_spectrum(graph), grid).tolist()
    return [_record(graph.num_vertices, g, *row) for g, row in zip(grid, rows)]


def find_critical_gamma(graph: GraphFamily) -> float:
    """Gap-minimizing coupling, the root of the gap derivative.

    A 61-point scan on [center/3, 3*center] gives the gap and, by
    Hellmann-Feynman, its derivative; Brent's method then solves
    E1 + R1 - E0 - R0 = 0 in the grid cell beside the smallest gap where
    the derivative turns from negative to positive.  Without such a cell
    the gap minimum is not inside the window, and the grid argmin is
    returned.
    """
    spectrum = level_spectrum(graph)
    center = coupling_scan_center(spectrum)
    grid = np.linspace(center / 3.0, 3.0 * center, COARSE_SCAN_POINTS)
    e0, e1, fp0, fp1 = _two_level_grid(spectrum, grid).T
    slope = _gap_slope(e0, e1, fp0, fp1)
    i = int(np.argmin(e1 - e0))
    for j in (i - 1, i):
        if 0 <= j < len(grid) - 1 and slope[j] < 0.0 <= slope[j + 1]:
            return brent_root(lambda g: _gap_slope(*lowest_two(spectrum, g)),
                              float(grid[j]), float(grid[j + 1]),
                              float(slope[j]), float(slope[j + 1]))
    return float(grid[i])


def _margin(gamma_ref: float, num_vertices: int) -> float:
    return max(MARGIN_REL * gamma_ref, MARGIN_SQRT * gamma_ref / math.sqrt(num_vertices))


def _require_clear_of_critical(graph: GraphFamily, gamma: float):
    gamma_ref = critical_reference(graph)
    margin = _margin(gamma_ref, graph.num_vertices)
    if abs(gamma - gamma_ref) < margin:
        raise ValueError(
            f"gamma={gamma} is within the critical margin {margin:.3g} of "
            f"{gamma_ref:.6g}; the away-from-critical bounds do not apply"
        )
    return gamma_ref, margin


def verify_transition_bounds(graph: GraphFamily, gamma: float) -> BoundReport:
    """Check the away-from-critical eigenstate bounds on a lattice family.

    Above the critical coupling the ground state pins to the uniform state
    with |E_0| < gamma/(N (gamma - gamma_ref)); below it the same holds for
    the first excited state with the roles of the couplings swapped.  The
    overlap deficits are checked both through the exact quadratic-resolvent
    inequality (no slack) and through the closed form obtained by inserting
    the energy bound (slack squared).
    """
    gamma_ref, margin = _require_clear_of_critical(graph, gamma)
    d = graph.dim
    n = graph.num_vertices
    slack = SLACK_D2 if d == 2 else SLACK_SMALL_TERMS
    spectrum = level_spectrum(graph)
    rec = _record(n, gamma, *lowest_two(spectrum, gamma))
    e0, e1, s0, s1 = rec.e0, rec.e1, rec.overlap_s_psi0, rec.overlap_s_psi1
    s2_sum = inverse_energy_sum(2, d, graph.side) * n      # sum_{k != 0} E_k^-2
    checks = []
    if gamma > gamma_ref:
        branch = "above"
        checks.append(_check("ground-energy", abs(e0),
                             gamma / (n * (gamma - gamma_ref)), slack))
        checks.append(_check("ground-s-deficit-exact", 1.0 - s0,
                             e0 * e0 * s2_sum / gamma**2, 1.0))
        checks.append(_check("ground-s-deficit-closed", 1.0 - s0,
                             s2_sum / (n * n * (gamma - gamma_ref) ** 2), slack * slack))
    else:
        branch = "below"
        level1 = gamma * spectrum.energies[1]
        squeeze = 1.0 / (1.0 - e1 / level1) ** 2
        checks.append(_check("excited-energy", e1,
                             gamma / (n * (gamma_ref - gamma)), slack))
        checks.append(_check("excited-s-deficit-exact", 1.0 - s1,
                             e1 * e1 * s2_sum * squeeze / gamma**2, 1.0))
        checks.append(_check("excited-s-deficit-closed", 1.0 - s1,
                             s2_sum / (n * n * (gamma_ref - gamma) ** 2), slack * slack))
    return BoundReport(graph=graph.label(), gamma=float(gamma), gamma_reference=gamma_ref,
                       margin=margin, side=branch, checks=checks)


def _check(bound_id: str, lhs: float, rhs: float, slack: float,
           applicable: bool = True) -> BoundCheck:
    return BoundCheck(bound_id=bound_id, lhs=float(lhs), rhs=float(slack * rhs),
                      slack=float(slack), passed=bool(lhs <= slack * rhs),
                      applicable=applicable)


def _d4_energy_floor(gamma: float, i1: float) -> float:
    """Solve (pi^2 e / (256 g^2)) ln(1 + 16 g / e) = i1/g - 1 for the ground-energy floor.

    In u = e/g it reads pi^2 u ln(1 + 16/u) = 256 (i1 - g).  The left side
    rises from 0 at u = 0 to 16 pi^2 ln 2 = 109 at u = 16, above 256 i1 = 40
    at d = 4, so [0, 16] brackets the root whatever g is.
    """
    target = 256.0 * (i1 - gamma)

    def f(u: float) -> float:
        return math.pi**2 * u * math.log1p(16.0 / u) - target

    return gamma * brent_root(f, 0.0, 16.0, -target, f(16.0))


def verify_failure_bounds(graph: GraphFamily, gamma: float) -> BoundReport:
    """Check the amplitude ceilings that make the walk fail off-criticality.

    The unconditional ceiling max_t |amp| <= 2 sqrt(N) |E_0| is checked on
    both sides.  Above the critical coupling the closed form follows from
    the ground-energy bound; below it, dimension-specific resolvent bounds
    put a floor under |E_0| that caps the amplitude.
    """
    gamma_ref, margin = _require_clear_of_critical(graph, gamma)
    d = graph.dim
    n = graph.num_vertices
    slack = SLACK_D2 if d == 2 else SLACK_SMALL_TERMS
    spec = solve_spectrum(level_spectrum(graph), gamma)
    max_amp = float(np.max(np.abs(amplitudes(spec, default_time_horizon(n), OPTIMAL_TIME_GRID))))
    e0 = spec.energies[0]
    sqrt_n = math.sqrt(n)
    checks = [_check("amp-global", max_amp, 2.0 * sqrt_n * abs(e0), 1.0)]
    if gamma > gamma_ref:
        branch = "above"
        checks.append(_check("amp-above-closed", max_amp,
                             2.0 * gamma / (sqrt_n * (gamma - gamma_ref)), slack))
    else:
        branch = "below"
        if d > 4:
            i2 = green_integral(2, d)
            rhs = 2.0 * i2 / (gamma * (gamma_ref - gamma)) / sqrt_n
        elif d == 4:
            rhs = 2.0 / (sqrt_n * _d4_energy_floor(gamma, gamma_ref))
        elif d == 3:
            rhs = 2.0 * math.pi**4 / (1024.0 * gamma * (gamma_ref - gamma) ** 2) / sqrt_n
        else:
            rhs = 8.0 * (abs(e0) + math.pi**2 * gamma) / (math.pi * sqrt_n)
        checks.append(_check("amp-below-closed", max_amp, rhs, slack))
    return BoundReport(graph=graph.label(), gamma=float(gamma), gamma_reference=gamma_ref,
                       margin=margin, side=branch, checks=checks)


def _p_star_at(spectrum: LevelSpectrum, gamma: float, horizon: float) -> float:
    spec = solve_spectrum(spectrum, gamma)
    return find_optimal_time(spec, horizon)[1]


def _window_half_width(spectrum: LevelSpectrum, gc: float, p_peak: float,
                       horizon: float) -> float:
    """Half-width of the coupling window where p* stays above half its peak."""
    rel = np.linspace(0.85, 1.15, 13)
    ps = [p_peak if r == 1.0 else _p_star_at(spectrum, r * gc, horizon) for r in rel]
    half = p_peak / 2.0
    lo_cross = hi_cross = math.nan
    for k in range(len(rel) - 1):
        below, above = ps[k] < half, ps[k + 1] < half
        if below != above:
            frac = (half - ps[k]) / (ps[k + 1] - ps[k])
            x = (rel[k] + frac * (rel[k + 1] - rel[k])) * gc
            if rel[k] < 1.0:
                lo_cross = x
            else:
                hi_cross = x
    if math.isnan(lo_cross) or math.isnan(hi_cross):
        return math.nan
    return (hi_cross - lo_cross) / 2.0


def critical_predictions(d: int, sides: list[int],
                         measure_window: bool = True) -> list[PredictionRecord]:
    """Asymptotic two-level predictions against the exact solver at measured gamma_c.

    Valid for d >= 4.  Predictions: the ground and first-excited energies
    -+ I1/sqrt(I2 N), the weight F' ~ 2 I2 / I1^2, the sine-law probability
    ceiling I1^2/I2 at time (pi/2) sqrt(I2 N)/I1.  In d = 4 the role of I2
    is played by ln(N)/(32 pi^2).
    """
    if d < 4:
        raise ValueError(f"two-level critical predictions need d >= 4, got {d}")
    i1 = green_integral(1, d)
    records = []
    for side in sides:
        graph = GraphFamily.lattice(d, side)
        n = graph.num_vertices
        i2 = math.log(n) / (32.0 * math.pi**2) if d == 4 else green_integral(2, d)
        spectrum = level_spectrum(graph)
        gc = find_critical_gamma(graph)
        spec = solve_spectrum(spectrum, gc)
        horizon = default_time_horizon(n)
        t_star, p_star = find_optimal_time(spec, horizon)
        e_pred = i1 / math.sqrt(i2 * n)
        width = _window_half_width(spectrum, gc, p_star, horizon) if measure_window else math.nan
        records.append(PredictionRecord(
            num_vertices=n,
            gamma_used=gc,
            e0_measured=float(spec.energies[0]),
            e0_predicted=-e_pred,
            e1_measured=float(spec.energies[1]),
            e1_predicted=e_pred,
            fprime0_measured=float(spec.fprimes[0]),
            fprime_predicted=2.0 * i2 / i1**2,
            p_star=p_star,
            p_predicted=i1**2 / i2,
            t_star=t_star,
            t_predicted=(math.pi / 2.0) * math.sqrt(i2 * n) / i1,
            window_half_width=width,
        ))
    return records


def _amplitude_ceiling(d: int, n: int, gamma_ref: float, x: float) -> float:
    """Ceiling on max_t |amp| for d in {2, 3} from a root x of the rescaled secular function."""
    if d == 3:
        return 8.0 * math.pi**2 * gamma_ref * abs(x) * n ** (-1.0 / 6.0)
    return 4.0 * math.pi * abs(x) * math.log(n) / math.sqrt(n)


def subcritical_scaling(d: int, sides: list[int]) -> SubcriticalReport:
    """Failure study for d in {2, 3}: records at measured gamma_c plus ceiling checks.

    The amplitude ceiling uses the root of the rescaled secular function,
    both at zero offset and at the offset implied by the measured critical
    coupling; where the latter is out of range the check is reported as not
    applicable rather than failed.  The repetition cost t*/p* is checked
    against the generic lower bound sqrt(N)/max|amp|.
    """
    if d not in (2, 3):
        raise ValueError(f"subcritical scaling is defined for d in {{2, 3}}, got {d}")
    x0 = scaling_function_root(0.0, d)
    records: list[ScalingRecord] = []
    checks: list[BoundCheck] = []
    for side in sides:
        graph = GraphFamily.lattice(d, side)
        n = graph.num_vertices
        gc = find_critical_gamma(graph)
        spec = solve_spectrum(level_spectrum(graph), gc)
        horizon = default_time_horizon(n)
        amps = amplitudes(spec, horizon, OPTIMAL_TIME_GRID)
        max_amp = float(np.max(np.abs(amps)))
        t_star, p_star = _grid_optimum(spec, horizon, amps)
        records.append(ScalingRecord(
            num_vertices=n, gamma_used=gc, gap=float(spec.energies[1] - spec.energies[0]),
            t_star=t_star, p_star=p_star, runtime_metric=t_star / p_star,
        ))
        gamma_ref = critical_reference(graph)
        a_meas = (gc - gamma_ref) * n ** (1.0 / 3.0) if d == 3 else gc - gamma_ref
        checks.append(_check(f"amp-ceiling-zero-offset:N={n}", max_amp,
                             _amplitude_ceiling(d, n, gamma_ref, x0), 1.0))
        try:
            x0a = scaling_function_root(a_meas, d)
        except NoRootError:
            checks.append(BoundCheck(
                bound_id=f"amp-ceiling-measured-offset:N={n}", lhs=max_amp,
                rhs=math.nan, slack=1.0, passed=False, applicable=False))
        else:
            checks.append(_check(f"amp-ceiling-measured-offset:N={n}", max_amp,
                                 _amplitude_ceiling(d, n, gamma_ref, x0a), 1.0))
        checks.append(_check(f"runtime-floor:N={n}", math.sqrt(n) / max_amp,
                             t_star / p_star, 1.0))
    return SubcriticalReport(dim=d, x0_at_zero=x0, records=records, checks=checks)
