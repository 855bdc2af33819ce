"""Success amplitude <w|exp(-iHt)|s> from a solved spectrum, plus a dense oracle.

The spectral form of the amplitude is

    <w|exp(-iHt)|s> = -(1/sqrt(N)) * sum_a exp(-i E_a t) / (E_a F'(E_a)),

a sum over the relevant roots only.  At t=0 it reduces to <w|s> = 1/sqrt(N),
which is the sum rule sum_a 1/(E_a F'(E_a)) = -1 in disguise.

The dense oracle builds the full N x N Hamiltonian, diagonalizes it, and
evolves the uniform state directly.  It shares no machinery with the
spectral path and is the trusted reference for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import brent_root
from .graphs import GraphFamily, neg_laplacian
from .secular import SecularSpectrum

DEFAULT_ORACLE_CAP = 4096
OPTIMAL_TIME_GRID = 2048
# Most complex entries the two phase tables of one amplitudes() chunk hold (4 MB).
AMPLITUDE_BLOCK = 1 << 18


@dataclass(frozen=True)
class EvolutionTrace:
    gamma: float
    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray


def spectral_coefficients(spec: SecularSpectrum) -> np.ndarray:
    """Per-root amplitude coefficients -1/(sqrt(N) E_a F'(E_a))."""
    return -1.0 / (np.sqrt(spec.num_vertices) * spec.energies * spec.fprimes)


def amplitudes(spec: SecularSpectrum, t_max: float, num_points: int) -> np.ndarray:
    """Success amplitudes on the grid t_k = linspace(0, t_max, n)[k], n = num_points.

    With B = ceil(sqrt(n)), point k = b*B + j has the phase
    exp(-i E t_{bB}) * exp(-i E t_j), so the grid is one matrix product of
    a ceil(n/B) x K and a B x K exponential table: about 2 sqrt(n) K
    exponentials in place of n K.  Each term is the product of two directly
    evaluated exponentials, so the error does not grow with the grid.  Roots
    are taken in chunks so that both tables hold at most AMPLITUDE_BLOCK
    entries together.
    """
    num_points = int(num_points)
    if num_points < 1:
        raise ValueError(f"need at least 1 time point, got {num_points}")
    times = np.linspace(0.0, float(t_max), num_points)
    block = math.isqrt(num_points - 1) + 1
    giant, baby = times[::block], times[:block]
    coeffs = spectral_coefficients(spec)
    cols = max(1, AMPLITUDE_BLOCK // (len(giant) + block))
    amps = np.zeros((len(giant), block), dtype=complex)
    for i in range(0, spec.num_roots, cols):
        e = spec.energies[i:i + cols]
        giant_terms = np.exp(-1j * np.outer(giant, e)) * coeffs[i:i + cols]
        amps += giant_terms @ np.exp(-1j * np.outer(baby, e)).T
    return amps.reshape(-1)[:num_points]


def amplitude(spec: SecularSpectrum, t: float) -> complex:
    """Success amplitude at time t (units of the inverse oracle strength), summed directly."""
    return complex(np.exp(-1j * spec.energies * t) @ spectral_coefficients(spec))


def trace(spec: SecularSpectrum, t_max: float, num_points: int) -> EvolutionTrace:
    """Amplitude and probability on a uniform time grid including both endpoints."""
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if num_points < 2:
        raise ValueError(f"need at least 2 time points, got {num_points}")
    times = np.linspace(0.0, float(t_max), int(num_points))
    amps = amplitudes(spec, t_max, num_points)
    probs = np.abs(amps) ** 2
    for arr in (times, amps, probs):
        arr.setflags(write=False)
    return EvolutionTrace(gamma=spec.gamma, times=times, amplitudes=amps, probabilities=probs)


def find_optimal_time(spec: SecularSpectrum, t_max: float, grid_points: int = OPTIMAL_TIME_GRID):
    """Best measurement time on [0, t_max]: grid scan, then a root of d|amp|^2/dt.

    Brent's method solves the slope in the grid cell beside the best grid
    point when the slope turns from positive to negative across it;
    otherwise (a peak at t_max, say) the grid point stands.  Returns
    (t_star, p_star) with p_star at least the best grid probability.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    return _grid_optimum(spec, t_max, amplitudes(spec, t_max, grid_points))


def _grid_optimum(spec: SecularSpectrum, t_max: float, amps: np.ndarray):
    """find_optimal_time from the amplitudes already evaluated on its grid."""
    times = np.linspace(0.0, float(t_max), len(amps))
    probs = np.abs(amps) ** 2
    i = int(np.argmax(probs))
    t_star, p_star = float(times[i]), float(probs[i])
    coeffs = spectral_coefficients(spec)

    def slope(t: float) -> float:
        # Re(conj(a) a') = d|a|^2/dt / 2 with a' = -i sum_a E_a c_a exp(-i E_a t)
        terms = np.exp(-1j * spec.energies * t) * coeffs
        return float((np.conj(terms.sum()) * (spec.energies @ terms)).imag)

    s = slope(t_star)
    j = i if s > 0.0 else i - 1
    if 0 <= j < len(times) - 1:
        lo, hi = float(times[j]), float(times[j + 1])
        s_lo, s_hi = (s, slope(hi)) if j == i else (slope(lo), s)
        if s_lo > 0.0 > s_hi:
            t = brent_root(slope, lo, hi, s_lo, s_hi)
            p = abs(amplitude(spec, t)) ** 2
            if p > p_star:
                t_star, p_star = t, p
    return t_star, p_star


class DenseReference:
    """Fully diagonalized N x N Hamiltonian H = -gamma*L - |w><w|.

    Holds the eigen-decomposition so repeated evolution times reuse one
    factorization.  Intended for tests and validation runs only.
    """

    def __init__(self, graph: GraphFamily, gamma: float, w_index: int = 0,
                 cap: int = DEFAULT_ORACLE_CAP):
        n = graph.num_vertices
        if n > cap:
            raise ValueError(f"N={n} exceeds the dense-oracle cap {cap}")
        if not 0 <= w_index < n:
            raise ValueError(f"w_index {w_index} out of range for N={n}")
        h = gamma * neg_laplacian(graph)
        h[w_index, w_index] -= 1.0
        eigvals, eigvecs = np.linalg.eigh(h)
        self.graph = graph
        self.gamma = float(gamma)
        self.w_index = int(w_index)
        self.eigenvalues = eigvals
        self._w_row = eigvecs[w_index, :].copy()
        self._s_row = eigvecs.sum(axis=0) / np.sqrt(n)

    def amplitude(self, t: float) -> complex:
        return complex(np.sum(self._w_row * self._s_row * np.exp(-1j * self.eigenvalues * t)))

    def w_overlaps_sq(self) -> np.ndarray:
        return self._w_row**2

    def s_overlaps_sq(self) -> np.ndarray:
        return self._s_row**2


def default_time_horizon(num_vertices: int) -> float:
    """Search window 4*sqrt(N); every built-in family peaks within it."""
    return 4.0 * np.sqrt(num_vertices)
