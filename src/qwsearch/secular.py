"""Rank-one spectral solver for H = -gamma*L - |w><w|.

The eigenvalues of H coupled to the marked vertex solve F(E) = 1 with

    F(E) = (1/N) * sum_k 1 / (gamma*E_k - E),

the diagonal resolvent of -gamma*L at the marked vertex, here accumulated
over distinct levels with multiplicities.  F is strictly increasing between
consecutive poles, so there is exactly one root below zero (the ground
state) and one root strictly inside each open interval between adjacent
distinct scaled levels.  Eigenvectors of H orthogonal to the marked vertex
sit exactly at the poles and are only counted, never constructed.

Per-root weights follow from the resolvent: F'(E_a) normalizes the
eigenvector, R_a = |<w|psi_a>|^2 = 1/F'(E_a), and
|<s|psi_a>|^2 = 1/(N E_a^2 F'(E_a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _EPS, compensated_sum
from .graphs import LevelSpectrum

# Most float64 entries one row block of _solve_block holds (512 KB).
_BLOCK = 1 << 16
# Steps a root may take before the kernel reports non-convergence.
_MAX_ITER = 64


class SecularPoleError(ValueError):
    """Evaluation point coincides with a pole gamma*level at machine scale."""


class BracketError(RuntimeError):
    """The secular kernel did not converge in a root bracket."""


@dataclass(frozen=True)
class SecularSpectrum:
    """Relevant eigenvalues of H with the weights needed for time evolution."""

    gamma: float
    num_vertices: int
    energies: np.ndarray      # roots E_a, ascending; exactly one is negative
    fprimes: np.ndarray       # F'(E_a)
    w_weights: np.ndarray     # R_a = |<w|psi_a>|^2 = 1/F'(E_a)
    s_weights: np.ndarray     # |<s|psi_a>|^2 = 1/(N E_a^2 F'(E_a))
    irrelevant_count: int     # eigenvectors of H orthogonal to the marked vertex

    @property
    def num_roots(self) -> int:
        return len(self.energies)

    def sum_rule(self) -> float:
        """sum_a 1/(E_a F'(E_a)); equals -1 exactly."""
        return compensated_sum(1.0 / (self.energies * self.fprimes))


def _exact_sum(spectrum: LevelSpectrum, gamma: float, energy: float, power: int) -> float:
    """(1/N) sum_k m_k / (gamma*E_k - E)^power, summed exactly."""
    poles = gamma * spectrum.energies
    diffs = poles - energy
    i = int(np.argmin(np.abs(diffs)))
    if abs(diffs[i]) <= 4.0 * _EPS * max(1.0, abs(poles[i])):
        raise SecularPoleError(
            f"E={energy!r} is within machine scale of the pole at {poles[i]!r}"
        )
    return compensated_sum(spectrum.multiplicities / diffs ** power) / spectrum.num_vertices


def secular_value(spectrum: LevelSpectrum, gamma: float, energy: float) -> float:
    """F(E); strictly increasing on every pole-free interval, -> 0 as E -> +-inf.

    This exact sum is the reference evaluation.
    """
    return _exact_sum(spectrum, gamma, energy, 1)


def secular_derivative(spectrum: LevelSpectrum, gamma: float, energy: float) -> float:
    """F'(E); positive everywhere and at least 1/(N E^2) from the level at 0."""
    return _exact_sum(spectrum, gamma, energy, 2)


def _solve_brackets(spectrum: LevelSpectrum, gamma, brackets) -> tuple[np.ndarray, np.ndarray]:
    """Roots of F(E) = 1 and F' there, one per bracket index.

    gamma is one coupling for every row or one coupling per row.  Bracket 0
    is (-inf, 0); bracket i > 0 is (gamma*E_{i-1}, gamma*E_i).  No row's
    arithmetic depends on the other rows, so a root comes out the same
    whichever brackets and couplings are solved with it.  Levels with a far
    field (K > graphs.FAR_FIELD_LEVELS) step each row on Python floats
    (_solve_row), the one path that sums it; all others go to _solve_block in
    blocks of at most _BLOCK entries.  Both paths do the same IEEE operations
    in the same order, so they return bitwise-equal roots.
    """
    brackets = np.asarray(brackets, dtype=int)
    gammas = np.full(brackets.shape, gamma, dtype=float)
    for g in gammas.tolist() if np.ndim(gamma) else [gamma]:    # the first row outside is named
        _coupling(g)
    roots = np.empty(len(brackets))
    fprimes = np.empty(len(brackets))
    if spectrum.far_moments:
        work = np.empty((3, spectrum.num_levels))
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(brackets)):
                roots[i], fprimes[i] = _solve_row(spectrum, float(gammas[i]), int(brackets[i]), work)
        return roots, fprimes
    rows = max(1, min(len(brackets), _BLOCK // spectrum.num_levels))
    # One allocation serves every block (delta and two workspaces): arrays freed
    # block by block let malloc hand its heap top back, to be page-faulted in again.
    work = np.empty((3, rows, spectrum.num_levels))
    for i in range(0, len(brackets), rows):
        block = slice(i, i + rows)
        roots[block], fprimes[block] = _solve_block(spectrum, gammas[block], brackets[block], work)
    return roots, fprimes


def _coupling(gamma) -> float:
    """gamma as a float, refused where the kernel's squares and reciprocals would leave float64."""
    if not 1e-100 <= gamma <= 1e100:
        raise ValueError(f"gamma must lie in [1e-100, 1e100], got {gamma}")
    return float(gamma)


def _pole_distances(gamma, levels, origins, out):
    """gamma*(levels - origin) into out; gamma and origin are scalars or columns."""
    np.subtract(levels, origins, out=out)
    out *= gamma
    return out


def _ground_fits(spectrum):
    """(c, p/gamma) of three one-pole fits c/(p - x) to the rest of F at the ground root.

    R(x) = sum_{k>=1} w_k/(gamma*E_k - x) is a Stieltjes function of x < 0,
    and Jensen's inequality bounds it by one-pole fits: from below by the
    fits to s1, s2 (c = s1^2/s2, p = gamma*s1/s2) and to W = 1 - 1/N, m1
    (c = W, p = gamma*m1/W), from above by the fit to W, s1 (c = W,
    p = gamma*W/s1).  With R replaced by a fit, F = 1 is
    x**2 + (c - p + 1/N)*x = p/N; its negative root lies above the ground
    root for a lower fit and under it for the upper one.
    """
    s1, s2, total = spectrum.s1, spectrum.s2, 1.0 - float(spectrum.weights[0])
    return (s1 * s1 / s2, total, total), (s1 / s2, spectrum.m1 / total, total / s1)


def _bracket_error(levels, bracket: int, gamma: float, tau, h) -> BracketError:
    """Non-convergence in one row, named by its coupling, bracket, poles, last tau and |H|."""
    poles = (-np.inf, 0.0) if bracket == 0 else (gamma * levels[bracket - 1], gamma * levels[bracket])
    return BracketError(
        f"secular kernel did not converge in {_MAX_ITER} steps at gamma={gamma!r}: "
        f"bracket {bracket} ({float(poles[0])!r}, {float(poles[1])!r}), last tau={float(tau)!r} "
        f"with |H|={abs(float(h))!r}"
    )


def _signed_root(a, b, m, sign):
    """The root of a*x**2 + b*x = m (m > 0) whose sign is `sign`, free of cancellation.

    With a > 0 the two roots have opposite signs; with a < 0 both have the
    sign of b, and this is the one nearer zero.
    """
    b = sign * b
    s = np.sqrt(b * b + 4.0 * a * m)
    return sign * np.where(b >= 0.0, 2.0 * m / (b + s), (s - b) / (2.0 * a))


def _div(a: float, b: float) -> float:
    """a / b on Python floats; numpy's inf or nan, under the caller's errstate, where b is 0."""
    return a / b if b else float(np.divide(a, b))


def _float_signed_root(a: float, b: float, m: float, sign: float) -> float:
    """_signed_root on Python floats, nan where the square root's argument is negative."""
    b = sign * b
    disc = b * b + 4.0 * a * m
    s = math.sqrt(disc) if disc >= 0.0 else math.nan
    return sign * (_div(2.0 * m, b + s) if b >= 0.0 else _div(s - b, 2.0 * a))


def _level_passes(weights, delta, tau, inv, terms):
    """R - 1, R' and sum_k |w_k/(delta_k - tau)| per row, from passes over the levels
    in the workspaces inv and terms; tau is a scalar (one row: float64 sums) or a column."""
    np.subtract(delta, tau, out=inv)
    np.reciprocal(inv, out=inv)
    np.multiply(weights, inv, out=terms)
    return (np.add.reduce(terms, -1) - 1.0, np.add.reduce(np.multiply(terms, inv, out=inv), -1),
            np.add.reduce(np.abs(terms, out=terms), -1))


def _stops(tau, h, nxt, spread, own_term):
    """Per row, on arrays or floats: a row stops once |H| is within its rounding
    bound or the step is down to the last bits of tau."""
    size = abs(tau)
    return ((abs(h) <= 8.0 * _EPS * (size * (spread + 1.0) + own_term))
            | (abs(nxt - tau) <= 4.0 * _EPS * size))


def _solve_block(spectrum, gamma, brackets, work):
    """One row block of _solve_brackets; gamma holds each row's coupling, and
    work holds three arrays of at least the block's rows.

    weights are the multiplicities over N.  Each root is an offset tau from
    its nearer pole gamma*E_o, and the other poles sit at
    delta_k = gamma*(E_k - E_o).  Subtracting before scaling keeps every pole
    distance within two roundings, and the own-pole term of F is exactly
    -m_o/(N tau), so F(tau) = 1 is H(tau) = tau*(R(tau) - 1) - m_o/N = 0 with
    R the rest of F.  Each step goes to the root, on tau's side of the pole,
    of the model that keeps the own pole exact and R linear about tau:
    R'*x**2 + (R - 1 - R'*tau)*x - m_o/N = 0 (Bunch, Nielsen & Sorensen 1978;
    Li 1994).  An inner root starts from the model that keeps both bracketing
    poles exact and freezes the rest of F at its value at the interval
    midpoint; the ground root starts between the roots of one-pole models
    that bound R from above and from below (_ground_fits).  Steps that leave
    the sign bracket of tau are replaced by bisection, save one onto the end
    that is not the own pole while the sign bracket reaches it: a root can lie
    on an interval midpoint, or within half an ulp of -1/N.  Once H(tau) is within
    its rounding bound, the root of the model built at tau is returned, a
    step beyond tau at no extra pass over the levels.
    """
    levels, weights = spectrum.energies, spectrum.weights
    rows = np.arange(len(brackets))
    own = brackets.copy()
    inner = brackets > 0
    delta, inv, terms = work[:, :len(rows)]
    # The sign of F - 1 at each interval midpoint names the nearer pole.
    centre = 0.5 * (levels[own[inner] - 1] + levels[own[inner]])
    dist = _pole_distances(gamma[inner, None], levels, centre[:, None], inv[:len(centre)])
    f_mid = np.divide(weights, dist, out=dist).sum(axis=1)
    own[inner] -= f_mid >= 1.0
    _pole_distances(gamma[:, None], levels, levels[own, None], delta)
    # tau lies between the own pole and the interval midpoint; the ground
    # root lies in (-1, -1/N) because F(-1) < 1 < F(-1/N).
    other = np.where(own < brackets, brackets, np.maximum(brackets - 1, 0))
    half = 0.5 * delta[rows, other]
    delta[rows, own] = np.inf       # the own-pole term is kept exact, outside the sums
    lo = np.where(inner, np.minimum(half, 0.0), -1.0)
    hi = np.where(inner, np.maximum(half, 0.0), -weights[0])
    end = np.where(inner, half, hi)     # the bracket end that is not the own pole
    sign = np.where(hi > 0.0, 1.0, -1.0)     # the sign of tau, fixed per row
    own_term = weights[own]
    nxt = np.empty(len(own))
    out_tau = np.empty(len(own))
    out_fp = np.empty(len(own))
    # Two workspaces take each step's arrays in place.  They shrink with delta
    # when rows finish, not every step: at small K each numpy call counts.
    live = rows
    with np.errstate(divide="ignore", invalid="ignore"):
        # Two-pole model -m_o/(N x) + m_x/(N (D - x)) + C = 1, with C matching
        # F at the midpoint x = D/2, as a*x**2 + b*x = m_o/N.
        a_o, a_x, d = own_term[inner], weights[other[inner]], 2.0 * half[inner]
        c1 = f_mid - 1.0 + 2.0 * (a_o - a_x) / d
        nxt[inner] = _signed_root(-c1 / d, c1 + (a_o + a_x) / d, a_o, sign[inner])
        # Ground root: start at the geometric mean of the upper fit's root
        # and the lower of the other two.
        w0, (c, p) = weights[0], _ground_fits(spectrum)
        c, p = np.array(c)[:, None], np.array(p)[:, None] * gamma[~inner]
        fit = _signed_root(1.0, c - p + w0, w0 * p, -1.0)
        nxt[~inner] = -np.sqrt(fit[2] * fit[:2].min(axis=0))
        nxt = np.where((lo < nxt) & (nxt < hi) | (nxt == end), nxt, 0.5 * (lo + hi))
        for _ in range(_MAX_ITER):
            tau = nxt
            r1, rp, spread = _level_passes(weights, delta, tau[:, None], inv, terms)
            h = tau * r1 - own_term
            nxt = _signed_root(rp, r1 - rp * tau, own_term, sign)
            done = _stops(tau, h, nxt, spread, own_term)
            above = sign * h >= 0.0
            hi = np.where(above, tau, hi)
            lo = np.where(above, lo, tau)
            inside = (lo < nxt) & (nxt < hi) | (nxt == end) & (lo <= end) & (end <= hi)
            if done.any():
                # A finished row whose model root leaves the bracket keeps tau.
                x = np.where(inside, nxt, tau)[done]
                out_tau[live[done]] = x
                out_fp[live[done]] = rp[done] + own_term[done] / x ** 2
                if done.all():
                    return gamma * levels[own] + out_tau, out_fp
                keep = np.flatnonzero(~done)
                live, own_term, sign, lo, hi, end, tau, h, nxt, inside = (
                    a[keep] for a in (live, own_term, sign, lo, hi, end, tau, h, nxt, inside))
                # The kept rows go into a workspace, which becomes delta: a
                # fresh copy would take a fourth block.
                np.take(delta, keep, axis=0, out=inv[:len(keep)], mode="clip")
                delta, inv, terms = inv[:len(keep)], delta[:len(keep)], terms[:len(keep)]
            nxt = np.where(inside, nxt, 0.5 * (lo + hi))
    raise _bracket_error(levels, int(brackets[live[0]]), float(gamma[live[0]]), tau[0], h[0])


def _far_sums(spectrum, gamma: float, x: float):
    """R and R' of the levels from far_start on at E = gamma*x, |x| <= far_radius.

    Each far term w_k/(gamma (E_k - x)) is sum_j w_k x^j / (gamma E_k^(j+1)), so
    R = sum_j x^j mu_j / gamma and R' = sum_j (j+1) x^j mu_(j+1) / gamma^2, by
    Horner over the level moments mu_j (graphs.FAR_TERMS bounds the remainders).
    """
    mu = spectrum.far_moments
    value = slope = 0.0
    for j in range(len(mu) - 2, -1, -1):
        value = value * x + mu[j]
        slope = slope * x + (j + 1) * mu[j + 1]
    return value / gamma, slope / (gamma * gamma)


def _solve_row(spectrum, gamma: float, bracket: int, work):
    """One root and its F' on Python floats; work holds three rows of K floats.

    _solve_block's algorithm with each of its operations on the row done as
    the same IEEE operation in the same order, so the root and F' are bitwise
    equal; the passes over the levels are the same numpy calls on one row.
    Levels with a far field (more than graphs.FAR_FIELD_LEVELS), whose roots
    only this path solves, split at far_start: in a bracket below it, at a
    point x = E/gamma with |x| <= far_radius, the passes run over the levels
    below far_start and _far_sums adds the rest, R also to the spread of the
    stopping bound.  Elsewhere they run over all levels, whose pole distances
    from far_start on are formed the first time they are needed.
    """
    levels, weights = spectrum.energies, spectrum.weights
    delta, inv, terms = work
    size = len(levels)
    cut = spectrum.far_start if bracket < spectrum.far_start else size
    radius = spectrum.far_radius
    own = bracket
    if bracket > 0:
        centre = 0.5 * (float(levels[bracket - 1]) + float(levels[bracket]))
        upto = cut if abs(centre) <= radius else size
        dist = _pole_distances(gamma, levels[:upto], centre, inv[:upto])
        f_mid = float(np.add.reduce(np.divide(weights[:upto], dist, out=dist)))
        if upto < size:
            f_mid += _far_sums(spectrum, gamma, centre)[0]
        own -= f_mid >= 1.0
    origin = float(levels[own])
    _pole_distances(gamma, levels[:cut], origin, delta[:cut])
    formed = cut    # delta holds the pole distances of the levels below this
    own_term = float(weights[own])
    if bracket > 0:
        other = bracket if own < bracket else bracket - 1
        half = 0.5 * delta.item(other)
        lo, hi, end = min(half, 0.0), max(half, 0.0), half
        sign = 1.0 if hi > 0.0 else -1.0
        a_x, d = float(weights[other]), 2.0 * half
        c1 = f_mid - 1.0 + _div(2.0 * (own_term - a_x), d)
        nxt = _float_signed_root(_div(-c1, d), c1 + _div(own_term + a_x, d), own_term, sign)
    else:
        lo, hi, end, sign = -1.0, -own_term, -own_term, -1.0
        fit = [_float_signed_root(1.0, c - p * gamma + own_term, own_term * (p * gamma), -1.0)
               for c, p in zip(*_ground_fits(spectrum))]
        nxt = -math.sqrt(fit[2] * min(fit[:2]))     # both fits' roots are negative
    delta[own] = np.inf
    nxt = nxt if lo < nxt < hi or nxt == end else 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        tau = nxt
        if cut < size and abs(at := origin + tau / gamma) <= radius:
            r1, rp, spread = map(float, _level_passes(
                weights[:cut], delta[:cut], tau, inv[:cut], terms[:cut]))
            far, far_slope = _far_sums(spectrum, gamma, at)
            r1, rp, spread = r1 + far, rp + far_slope, spread + far
        else:
            if formed < size:
                _pole_distances(gamma, levels[formed:], origin, delta[formed:])
                formed = size
            r1, rp, spread = map(float, _level_passes(weights, delta, tau, inv, terms))
        h = tau * r1 - own_term
        nxt = _float_signed_root(rp, r1 - rp * tau, own_term, sign)
        done = _stops(tau, h, nxt, spread, own_term)
        lo, hi = (lo, tau) if sign * h >= 0.0 else (tau, hi)
        inside = lo < nxt < hi or nxt == end and lo <= end <= hi
        if done:
            x = nxt if inside else tau
            return gamma * origin + x, rp + _div(own_term, x * x)
        nxt = nxt if inside else 0.5 * (lo + hi)
    raise _bracket_error(levels, bracket, gamma, tau, h)


def solve_spectrum(spectrum: LevelSpectrum, gamma: float) -> SecularSpectrum:
    """All relevant eigenvalues of H = -gamma*L - |w><w| with their weights.

    Produces one root per bracket: (-inf, 0) plus each open interval between
    consecutive distinct scaled levels.  Roots with vanishing weight are
    retained; completeness and the sum rule need the full relevant set.
    """
    n = spectrum.num_vertices
    roots, fprimes = _solve_brackets(spectrum, gamma, np.arange(spectrum.num_levels))
    w = 1.0 / fprimes
    s = 1.0 / (n * roots**2 * fprimes)
    for arr in (roots, fprimes, w, s):
        arr.setflags(write=False)
    return SecularSpectrum(
        gamma=float(gamma),
        num_vertices=n,
        energies=roots,
        fprimes=fprimes,
        w_weights=w,
        s_weights=s,
        irrelevant_count=n - len(roots),
    )


def lowest_two(spectrum: LevelSpectrum, gamma: float):
    """Ground and first-excited relevant roots with their F' values.

    Returns (e0, e1, fprime0, fprime1) without solving the full spectrum;
    gamma scans only need the two lowest states.  Both roots step on Python
    floats (_solve_row): at S1 on a 2-vCPU host they took 85-99 us there and
    292-322 us on the block path (about 50 numpy calls a step), K = 44 and 145.
    """
    gamma, work = _coupling(gamma), np.empty((3, spectrum.num_levels))
    with np.errstate(divide="ignore", invalid="ignore"):
        (e0, fp0), (e1, fp1) = (_solve_row(spectrum, gamma, b, work) for b in (0, 1))
    return e0, e1, fp0, fp1
