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

from ._util import brent_root, step_out_root
from .constants import NoRootError, green_integral, log_law_intercept, scaling_function_root
from .evolution import default_time_horizon, find_optimal_time
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
    window_half_width: float   # half the distance between the p*(gamma) = p_star/2 roots, or NaN


@dataclass(frozen=True)
class SubcriticalReport:
    dim: int
    x0_at_zero: float
    records: list[ScalingRecord]
    checks: list[BoundCheck]


def coupling_scan_center(spectrum: LevelSpectrum) -> float:
    """Finite-size estimate (1/N) sum_{k != 0} 1/E_k of the critical coupling."""
    return spectrum.s1


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


def scan_gamma(graph: GraphFamily, gamma_lo: float, gamma_hi: float,
               num_points: int) -> list[ScanRecord]:
    """Gap and two-level overlaps on a uniform coupling grid."""
    if not 0.0 < gamma_lo < gamma_hi < math.inf:
        raise ValueError(f"need 0 < gamma_lo < gamma_hi < inf, got {gamma_lo}, {gamma_hi}")
    if num_points < 2:
        raise ValueError(f"need at least 2 scan points, got {num_points}")
    grid = np.linspace(gamma_lo, gamma_hi, num_points)
    roots, fprimes = _solve_brackets(level_spectrum(graph), np.repeat(grid, 2),
                                     np.tile([0, 1], num_points))
    return [_record(graph.num_vertices, g, e0, e1, fp0, fp1) for g, (e0, e1), (fp0, fp1)
            in zip(grid, roots.reshape(-1, 2).tolist(), fprimes.reshape(-1, 2).tolist())]


def _first_step(num_vertices: int, gamma: float) -> float:
    """First step of a coupling search from gamma, 2% of gamma past the N^(-1/2) window."""
    return (1.0 / math.sqrt(num_vertices) + 0.02) * gamma


def find_critical_gamma(graph: GraphFamily) -> float:
    """Gap-minimizing coupling, the root of the gap derivative.

    From the scan center S1 the search steps downhill, by _first_step and
    then doubling, until the derivative turns, and Brent's method solves it
    in that step.  It stops at S1/3 or 3*S1: where the derivative keeps its
    sign up to there, the gap minimum lies beyond, and that end returns.
    """
    spectrum = level_spectrum(graph)
    center = coupling_scan_center(spectrum)

    def slope(gamma: float) -> float:
        # gamma * d(E1 - E0)/dgamma, by Hellmann-Feynman dE_a/dgamma = (E_a + R_a)/gamma
        e0, e1, fp0, fp1 = lowest_two(spectrum, gamma)
        return e1 + 1.0 / fp1 - e0 - 1.0 / fp0

    s = slope(center)
    end = 3.0 * center if s < 0.0 else center / 3.0
    step = math.copysign(_first_step(graph.num_vertices, center), end - center)
    root = step_out_root(slope, center, s, step, end)
    return end if root is None else root


def _margin(gamma_ref: float, num_vertices: int) -> float:
    return max(MARGIN_REL * gamma_ref, MARGIN_SQRT * gamma_ref / math.sqrt(num_vertices))


def _bound_report(graph: GraphFamily, gamma: float, suite) -> BoundReport:
    """The frame of a bound suite at gamma: gamma_ref, the critical margin, the side
    and the slack; suite(gamma_ref, slack) gives the checks.  Inside the margin the
    away-from-critical bounds do not apply, and this raises ValueError."""
    gamma_ref = critical_reference(graph)
    margin = _margin(gamma_ref, graph.num_vertices)
    if abs(gamma - gamma_ref) < margin:
        raise ValueError(f"gamma={gamma} is within the critical margin {margin:.3g} of "
                         f"{gamma_ref:.6g}; the away-from-critical bounds do not apply")
    slack = SLACK_D2 if graph.dim == 2 else SLACK_SMALL_TERMS
    return BoundReport(graph=graph.label(), gamma=float(gamma), gamma_reference=gamma_ref,
                       margin=margin, side="above" if gamma > gamma_ref else "below",
                       checks=suite(gamma_ref, slack))


def bound_suites(graph: GraphFamily) -> list[BoundReport]:
    """Both bound suites at 0.5 and 2 times gamma_ref, where they clear the critical
    margin: below N = 100 the 0.5x couplings do not, and below N = 25 neither does."""
    gamma_ref = critical_reference(graph)
    margin = _margin(gamma_ref, graph.num_vertices)
    return [verify(graph, gamma)
            for verify in (verify_transition_bounds, verify_failure_bounds)
            for gamma in (0.5 * gamma_ref, 2.0 * gamma_ref)
            if not abs(gamma - gamma_ref) < margin]


def verify_transition_bounds(graph: GraphFamily, gamma: float) -> BoundReport:
    """Check the away-from-critical eigenstate bounds on a lattice family.

    Above the critical coupling the ground state pins to the uniform state
    with |E_0| < gamma/(N (gamma - gamma_ref)); below it the same holds for
    the first excited state with the roles of the couplings swapped.  The
    overlap deficits are checked both through the exact quadratic-resolvent
    inequality (no slack) and through the closed form obtained by inserting
    the energy bound (slack squared).
    """

    def checks(gamma_ref: float, slack: float) -> list[BoundCheck]:
        n = graph.num_vertices
        spectrum = level_spectrum(graph)
        rec = _record(n, gamma, *lowest_two(spectrum, gamma))
        s2_sum = spectrum.s2 * n  # sum_{k != 0} E_k^-2
        dist = abs(gamma - gamma_ref)
        if gamma > gamma_ref:
            state, e, s, squeeze = "ground", abs(rec.e0), rec.overlap_s_psi0, 1.0
        else:
            state, e, s = "excited", rec.e1, rec.overlap_s_psi1
            squeeze = 1.0 / (1.0 - e / (gamma * spectrum.energies[1])) ** 2
        return [_check(f"{state}-energy", e, gamma / (n * dist), slack),
                _check(f"{state}-s-deficit-exact", 1.0 - s,
                       e * e * s2_sum * squeeze / gamma**2, 1.0),
                _check(f"{state}-s-deficit-closed", 1.0 - s,
                       s2_sum / (n * n * dist**2), slack * slack)]

    return _bound_report(graph, gamma, checks)


def _check(bound_id: str, lhs: float, rhs: float, slack: float,
           applicable: bool = True) -> BoundCheck:
    return BoundCheck(bound_id=bound_id, lhs=float(lhs), rhs=float(slack * rhs),
                      slack=float(slack), passed=bool(lhs <= slack * rhs), applicable=applicable)


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
    put a floor under |E_0| that caps the amplitude.  max_t |amp| is
    sqrt(p*) from find_optimal_time, the refined peak on [0, 4 sqrt(N)].
    """

    def checks(gamma_ref: float, slack: float) -> list[BoundCheck]:
        d = graph.dim
        sqrt_n = math.sqrt(graph.num_vertices)
        spec, _, p_star = _optimum(level_spectrum(graph), gamma)
        max_amp = math.sqrt(p_star)
        e0 = spec.energies[0]
        amp_global = _check("amp-global", max_amp, 2.0 * sqrt_n * abs(e0), 1.0)
        if gamma > gamma_ref:
            return [amp_global, _check("amp-above-closed", max_amp,
                                       2.0 * gamma / (sqrt_n * (gamma - gamma_ref)), slack)]
        if d > 4:
            rhs = 2.0 * green_integral(2, d) / (gamma * (gamma_ref - gamma)) / sqrt_n
        elif d == 4:
            rhs = 2.0 / (sqrt_n * _d4_energy_floor(gamma, gamma_ref))
        elif d == 3:
            rhs = 2.0 * math.pi**4 / (1024.0 * gamma * (gamma_ref - gamma) ** 2) / sqrt_n
        else:
            rhs = 8.0 * (abs(e0) + math.pi**2 * gamma) / (math.pi * sqrt_n)
        return [amp_global, _check("amp-below-closed", max_amp, rhs, slack)]

    return _bound_report(graph, gamma, checks)


def _optimum(spectrum: LevelSpectrum, gamma: float):
    """(spec, t*, p*): the spectrum at gamma and its peak on [0, default_time_horizon(N)]."""
    spec = solve_spectrum(spectrum, gamma)
    return (spec, *find_optimal_time(spec, default_time_horizon(spectrum.num_vertices)))


def _half_max_crossings(spectrum: LevelSpectrum, gc: float, p_peak: float):
    """(below, above): the roots of p*(gamma) = p_peak/2 either side of gc, stepped
    out from gc by _first_step; NaN on a side where p* stays above p_peak/2 to 15%."""
    def excess(gamma: float) -> float:
        return _optimum(spectrum, gamma)[2] - p_peak / 2.0

    step = _first_step(spectrum.num_vertices, gc)
    crossings = (step_out_root(excess, gc, p_peak / 2.0, side * step, (1.0 + 0.15 * side) * gc)
                 for side in (-1.0, 1.0))
    return tuple(math.nan if x is None else x for x in crossings)


def critical_predictions(d: int, sides: list[int]) -> list[PredictionRecord]:
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
        spec, t_star, p_star = _optimum(spectrum, gc)
        e_pred = i1 / math.sqrt(i2 * n)
        below, above = _half_max_crossings(spectrum, gc, p_star)
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
            window_half_width=(above - below) / 2.0,
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
        spec, t_star, p_star = _optimum(level_spectrum(graph), gc)
        max_amp = math.sqrt(p_star)
        records.append(ScalingRecord(
            num_vertices=n, gamma_used=gc, gap=float(spec.energies[1] - spec.energies[0]),
            t_star=t_star, p_star=p_star, runtime_metric=t_star / p_star,
        ))
        gamma_ref = critical_reference(graph)
        a_meas = (gc - gamma_ref) * n ** (1.0 / 3.0) if d == 3 else gc - gamma_ref
        checks.append(_check(f"amp-ceiling-zero-offset:N={n}", max_amp,
                             _amplitude_ceiling(d, n, gamma_ref, x0), 1.0))
        try:
            x0a, applicable = scaling_function_root(a_meas, d), True
        except NoRootError:
            x0a, applicable = math.nan, False     # the ceiling is NaN, and lhs <= NaN fails
        checks.append(_check(f"amp-ceiling-measured-offset:N={n}", max_amp,
                             _amplitude_ceiling(d, n, gamma_ref, x0a), 1.0, applicable))
        checks.append(_check(f"runtime-floor:N={n}", math.sqrt(n) / max_amp,
                             t_star / p_star, 1.0))
    return SubcriticalReport(dim=d, x0_at_zero=x0, records=records, checks=checks)
