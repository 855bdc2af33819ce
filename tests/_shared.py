"""Shared fixtures and independent oracles for the test suite.

Heavy objects (level spectra, critical couplings, dense references) are
cached per argument tuple so the acceptance run and the module tests reuse
one computation.  Oracles that validate the spectral path are built here
from scratch and never call the code path they check.
"""

from __future__ import annotations

import decimal
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

import qwsearch.analysis
import qwsearch.graphs
import qwsearch.secular
from qwsearch import (
    BracketError,
    DenseReference,
    DivergenceError,
    GraphFamily,
    NoRootError,
    coupling_scan_center,
    find_critical_gamma,
    inverse_energy_sum,
    level_spectrum,
    lowest_two,
    solve_spectrum,
)
from qwsearch.evolution import DEFAULT_ORACLE_CAP
from qwsearch.cli import parse_graph_spec

# Test matrix for oracle equivalence and the exact-identity sweep.
ORACLE_FAMILIES = (
    "complete:256", "hypercube:8", "lattice:2:16",
    "lattice:3:8", "lattice:4:6", "lattice:5:4",
)
IDENTITY_FAMILIES = (
    "complete:64", "complete:256", "complete:1024",
    "hypercube:6", "hypercube:8", "hypercube:10",
    "lattice:2:8", "lattice:2:16", "lattice:3:6",
    "lattice:3:8", "lattice:4:4", "lattice:5:4",
)
IDENTITY_GAMMA_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
# Family labels for the hypothesis properties, up to the largest lattice
# side per dimension with N <= 4096.
_MAX_SIDE = {1: 4096, 2: 64, 3: 16, 4: 8, 5: 5}
RANDOM_FAMILIES = st.one_of(
    st.integers(2, 2048).map(lambda n: f"complete:{n}"),
    st.integers(1, 12).map(lambda bits: f"hypercube:{bits}"),
    st.sampled_from(sorted(_MAX_SIDE)).flatmap(
        lambda d: st.integers(2, _MAX_SIDE[d]).map(lambda side: f"lattice:{d}:{side}")),
)


def _counting(monkeypatch, modules, name, calls, keep=lambda *args: True):
    real = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)


def _peak_bytes(fn, *args) -> int:
    """Most bytes fn(*args) held allocated at once, as tracemalloc counts them
    (numpy reports its array buffers to it)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def steps_to_converge(levels, gamma: float, bracket: int) -> int:
    """Steps the secular kernel takes on the root in `bracket`: the least
    _MAX_ITER at which it converges there, found by patching the step limit."""
    limit = qwsearch.secular._MAX_ITER
    with pytest.MonkeyPatch.context() as patch:
        for steps in range(1, limit + 1):
            patch.setattr(qwsearch.secular, "_MAX_ITER", steps)
            try:
                qwsearch.secular._solve_brackets(levels, gamma, [bracket])
            except BracketError:
                if steps == limit:
                    raise
            else:
                return steps


def rootless_measured_offsets(monkeypatch):
    """Make scaling_function_root raise NoRootError at every offset a != 0 inside
    analysis: no tier-1 lattice's measured offset leaves the function's range, so
    this is how the not-applicable ceiling row of subcritical_scaling is reached."""
    real = qwsearch.analysis.scaling_function_root

    def root(a, d):
        if a != 0.0:
            raise NoRootError(f"no root at a={a}")
        return real(a, d)

    monkeypatch.setattr(qwsearch.analysis, "scaling_function_root", root)


@functools.lru_cache(maxsize=None)
def family(label: str) -> GraphFamily:
    return parse_graph_spec(label)


@functools.lru_cache(maxsize=None)
def levels(label: str):
    return level_spectrum(family(label))


@functools.lru_cache(maxsize=None)
def levels_without_far_field(label: str):
    """The levels of `label` built with the far field switched off, so that the
    secular kernel passes over every level at every step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qwsearch.graphs, "FAR_FIELD_LEVELS", math.inf)
        return level_spectrum.__wrapped__(family(label))


@functools.lru_cache(maxsize=None)
def scan_center(label: str) -> float:
    return coupling_scan_center(levels(label))


@functools.lru_cache(maxsize=None)
def critical(label: str) -> float:
    return find_critical_gamma(family(label))


@functools.lru_cache(maxsize=None)
def solved(label: str, gamma: float):
    return solve_spectrum(levels(label), gamma)


@functools.lru_cache(maxsize=None)
def dense(label: str, gamma: float, w_index: int = 0) -> DenseReference:
    return DenseReference(family(label), gamma, w_index)


def ground_and_gap(spectrum, gamma: float):
    """(E_0, E_1, E_1 - E_0) for the two lowest relevant roots."""
    e0, e1, _, _ = lowest_two(spectrum, gamma)
    return e0, e1, e1 - e0


def dense_oracle(graph: GraphFamily, gamma: float, w_index: int, t: float,
                 cap: int = DEFAULT_ORACLE_CAP) -> complex:
    """Brute-force amplitude via full diagonalization; any marked vertex index."""
    return DenseReference(graph, gamma, w_index, cap=cap).amplitude(t)


def grid_amplitudes_reference(spec, t_max: float, num_points: int) -> np.ndarray:
    """Amplitudes on linspace(0, t_max, num_points) as one plain exp(-i outer(t, E)) @ c.

    Forms the coefficients -1/(sqrt(N) E_a F'(E_a)) itself and evaluates
    every phase directly, so it shares no code with evolution.amplitudes.
    """
    times = np.linspace(0.0, float(t_max), num_points)
    coeffs = -1.0 / (math.sqrt(spec.num_vertices) * spec.energies * spec.fprimes)
    return np.exp(-1j * np.outer(times, spec.energies)) @ coeffs


def cluster_weights(energies: np.ndarray, w: np.ndarray, s: np.ndarray, tol: float = 1e-7):
    """Aggregate overlap weights over near-degenerate eigenvalue clusters.

    Basis rotations inside a degenerate level scramble per-vector overlaps;
    only the per-cluster sums are well defined comparands.
    """
    order = np.argsort(energies)
    e, w, s = np.asarray(energies)[order], np.asarray(w)[order], np.asarray(s)[order]
    cuts = np.flatnonzero(np.diff(e) > tol) + 1
    groups = np.split(np.arange(len(e)), cuts)
    return (np.array([e[g].mean() for g in groups]),
            np.array([w[g].sum() for g in groups]),
            np.array([s[g].sum() for g in groups]))


def spectral_clusters(label: str, gamma: float, tol: float = 1e-7):
    """Full eigen-data of H from the spectral path: roots plus counted poles."""
    ls = levels(label)
    spec = solved(label, gamma)
    pole_energies = np.repeat(gamma * ls.energies, ls.multiplicities - 1)
    e = np.concatenate([spec.energies, pole_energies])
    w = np.concatenate([spec.w_weights, np.zeros(len(pole_energies))])
    s = np.concatenate([spec.s_weights, np.zeros(len(pole_energies))])
    return cluster_weights(e, w, s, tol)


# ---------------------------------------------------------------------------
# Momentum-space lattice oracles (never reuse qwsearch.graphs.level_spectrum)
# ---------------------------------------------------------------------------

def momentum_axis(side: int) -> np.ndarray:
    """Integer mode numbers along one lattice direction.

    Odd side L: 0, +-1, ..., +-(L-1)/2.  Even side L: 0, +-1, ...,
    +-(L-2)/2, +L/2.  Either way there are exactly L values containing 0 once.
    """
    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    return np.arange(-((side - 1) // 2), side // 2 + 1, dtype=np.int64)


def momentum_grid(dim: int, side: int) -> np.ndarray:
    """All side**dim integer momentum vectors, shape (side**dim, dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    axis = momentum_axis(side)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def dispersion(modes, dim: int, side: int) -> float:
    """Lattice eigenvalue 2*(d - sum_j cos(2 pi m_j / L)) of -L at mode vector m."""
    m = np.asarray(modes, dtype=float)
    if m.shape[-1] != dim:
        raise ValueError(f"mode vector has {m.shape[-1]} components, expected {dim}")
    return float(2.0 * (dim - np.sum(np.cos(2.0 * np.pi * m / side), axis=-1)))


def dispersion_values(dim: int, side: int) -> np.ndarray:
    """Dispersion over the full momentum grid without materializing the grid."""
    axis_cos = np.cos(2.0 * np.pi * momentum_axis(side) / side)
    acc = np.zeros(1)
    for _ in range(dim):
        acc = (acc[:, None] + axis_cos[None, :]).ravel()
    return 2.0 * (dim - acc)


def green_integral_bruteforce(j: int, d: int, side: int) -> float:
    """Finite-lattice estimate of green_integral; converges as the side grows."""
    if d <= 2 * j:
        raise DivergenceError(f"finite sums do not converge to an integral for d={d} <= 2j={2*j}")
    if side < 4:
        raise ValueError(f"side must be >= 4 for a meaningful estimate, got {side}")
    return inverse_energy_sum(j, d, side)


def theta_integral_mp(d: int, kernel, breaks=()) -> mpmath.mpf:
    """30-digit int_0^inf (theta(u)^d - 1) kernel(u) du, theta(u) = sum_n e^(-u n^2),
    so that theta(u)^d - 1 is the sum of e^(-u m^2) over the nonzero m in Z^d.

    theta is mpmath's jtheta(3, 0, e^-u), in its Poisson form sqrt(pi/u)
    jtheta(3, 0, e^(-pi^2/u)) below u = pi.  Tanh-sinh quadrature runs in
    t = sqrt(u), which takes the u^(-1/2) endpoint behaviour of d = 3 out,
    split at pi and at `breaks`; at 50 digits the values move by below 2e-30.
    """
    with mpmath.workdps(30):
        def integrand(t):
            u = t * t
            if u >= mpmath.pi:
                theta = mpmath.jtheta(3, 0, mpmath.exp(-u))
            else:
                theta = mpmath.sqrt(mpmath.pi) / t * mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi**2 / u))
            return 2 * t * (theta**d - 1) * kernel(u)

        splits = sorted({mpmath.pi, *map(mpmath.mpf, breaks)})
        return mpmath.quad(integrand, [0, *map(mpmath.sqrt, splits), mpmath.inf])


def epstein_sum_mp(j: int, d: int) -> mpmath.mpf:
    """30-digit epstein_sum: (2 pi)^-2j / (j-1)! int_0^inf u^(j-1) (theta(u)^d - 1) du."""
    with mpmath.workdps(30):
        integral = theta_integral_mp(d, lambda u: u ** (j - 1))
        return integral / (mpmath.factorial(j - 1) * (2 * mpmath.pi) ** (2 * j))


def scaling_function_mp(x, dim: int) -> mpmath.mpf:
    """30-digit scaling_function, from sum' x/(m^2 (m^2 - x)) = int_0^inf (theta(u)^dim - 1) expm1(x u) du."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        integral = theta_integral_mp(dim, lambda u: mpmath.expm1(x * u), [-1 / x])
        return (integral - 1 / x) / (4 * mpmath.pi**2)


# ---------------------------------------------------------------------------
# Independent dense builders (never reuse qwsearch.graphs.neg_laplacian)
# ---------------------------------------------------------------------------

def dense_neg_laplacian_reference(label: str) -> np.ndarray:
    """-L = D - A assembled by explicit edge loops, for cross-checking."""
    g = family(label)
    n = g.num_vertices
    mat = np.zeros((n, n))
    if g.kind == "complete":
        for i in range(n):
            for k in range(n):
                if i != k:
                    mat[i, k] -= 1.0
            mat[i, i] = n - 1.0
        return mat
    if g.kind == "hypercube":
        for i in range(n):
            for b in range(g.num_bits):
                mat[i, i ^ (1 << b)] -= 1.0
            mat[i, i] = g.num_bits
        return mat
    side, dim = g.side, g.dim
    for i in range(n):
        digits = []
        rest = i
        for _ in range(dim):
            digits.append(rest % side)
            rest //= side
        for axis in range(dim):
            for step in (1, -1):
                nb = list(digits)
                nb[axis] = (nb[axis] + step) % side
                k = 0
                for a in reversed(nb):
                    k = k * side + a
                mat[i, k] -= 1.0
        mat[i, i] = 2.0 * dim
    return mat


def group_close(values: np.ndarray, tol: float):
    """(distinct value, multiplicity) pairs from a sorted float array."""
    values = np.sort(np.asarray(values, dtype=float))
    cuts = np.flatnonzero(np.diff(values) > tol) + 1
    groups = np.split(values, cuts)
    return [(float(g.mean()), len(g)) for g in groups]


# ---------------------------------------------------------------------------
# Extended-precision secular oracle (never uses qwsearch.secular)
# ---------------------------------------------------------------------------

def mp_secular_solution(levels, gamma: float, dps: int = 40, count: int | None = None):
    """Every root of F(E) = 1 with its weight 1/F'(E), at `dps` digits; with
    `count`, only the lowest `count` roots.

    F(E) = (1/N) sum_k m_k / (gamma E_k - E) is built from the level energies
    and multiplicities alone, with the poles gamma*E_k formed exactly.  Each
    bracket, (-2, 0) for the ground root (F(-2) <= 1/2) and then every open
    interval between adjacent poles, is bisected until its width is 1e-4 of
    the distance to the nearer pole; Newton then converges quadratically to
    within 1e-30 of that distance, or to the working precision of E.  A
    Newton step that leaves the bisection bracket is held at its end: a root
    can lie within rounding of a bisection point (on `complete:3` at the scan
    center it is the midpoint 1/3), and Newton from inside then overshoots
    it.  Only a pole may not be reached.  The arithmetic is the standard
    library's decimal (C-backed; mpmath runs in pure Python without gmpy2).
    Returns (roots, weights) as lists of mpf.
    """
    D = decimal.Decimal
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    g = D(float(gamma))
    poles = [exact.multiply(g, D(float(e))) for e in levels.energies]
    mults = [D(int(m)) for m in levels.multiplicities]
    n = D(int(levels.num_vertices))
    with decimal.localcontext(decimal.Context(prec=dps)):

        def f_and_fprime(e):
            f = fp = D(0)
            for p, m in zip(poles, mults):
                t = m / (p - e)
                f += t
                fp += t / (p - e)
            return f / n - 1, fp / n

        def f_minus_one(e):     # F - 1 alone, in the same order, for the bisection
            return sum(m / (p - e) for p, m in zip(poles, mults)) / n - 1

        floor = D(10) ** (4 - dps)
        brackets = ([(D(-2), poles[0])] + list(zip(poles[:-1], poles[1:])))[:count]
        roots, weights = [], []
        for i, (a, b) in enumerate(brackets):
            lo, hi = a, b
            # The ground bracket's lower end is not a pole.
            while hi - lo > D("1e-4") * (b - hi if i == 0 else min(lo - a, b - hi)):
                mid = (lo + hi) / 2
                if f_minus_one(mid) >= 0:
                    hi = mid
                else:
                    lo = mid
            e = (lo + hi) / 2
            for _ in range(20):
                f, fp = f_and_fprime(e)
                step = f / fp
                e = min(max(e - step, lo), hi)
                if e == b or i > 0 and e == a:
                    raise ArithmeticError(f"bracket {i}: Newton reached the pole {e}")
                if abs(step) <= max(D("1e-30") * min(e - a, b - e), floor * abs(e)):
                    break
            else:
                raise ArithmeticError(f"bracket {i}: Newton did not settle")
            roots.append(e)
            weights.append(1 / f_and_fprime(e)[1])
    with mpmath.workdps(dps):
        return [mpmath.mpf(str(x)) for x in roots], [mpmath.mpf(str(x)) for x in weights]


@functools.lru_cache(maxsize=None)
def mp_solved(label: str, gamma: float):
    return mp_secular_solution(levels(label), gamma)


def round_sig(x: float, digits: int = 3) -> float:
    if x == 0.0:
        return 0.0
    k = math.floor(math.log10(abs(x)))
    return round(x, -k + digits - 1)
