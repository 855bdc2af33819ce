"""Graph families for quantum-walk search and their compressed Laplacian spectra.

Three vertex-transitive families are supported: the complete graph on N
vertices, the n-bit hypercube (N = 2^n), and the d-dimensional periodic
lattice of side L (N = L^d).  All spectra refer to -L with L = A - D, the
positive-semidefinite walk generator.  Because every family is
vertex-transitive with a uniform-magnitude eigenbasis, each eigenvector has
squared overlap exactly 1/N with any single vertex; that single number plus
the distinct eigenvalues and their multiplicities is all downstream spectral
computation needs.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from ._util import _EPS

# Two levels are one when their energies differ by at most this fraction of the
# bandwidth 2 edges d.  Against 30-digit lattice levels, in units of eps*4d, equal
# levels differ by at most 1.00 in the build's order (at lattice:4:100) and 0.8 in
# dispersion_values' order, and distinct ones by at least 2.4e5 (at 2:2048): 16
# merges every rounding tie and no two distinct levels (hypercube levels are 2 apart).
LEVEL_GROUP_TOL = 16 * np.finfo(float).eps
# Most axis-index multisets C(L/2 + d, d) a lattice level build may list: at its
# peak of about 41 bytes each (5.4 MB for the 131841 of lattice:2:1024), 2^24 is
# about 0.7 GB, far above the largest builds in use, 4:100 and 2:2048 (5.3e5).
MAX_LEVEL_MULTISETS = 1 << 24
# Above this many levels the secular kernel sums the levels from a cut on by
# their moments.  It is the most levels at which secular._solve_block can run
# (2^16 // 13108 = 4 rows = secular._NARROW), so the far field meets only the
# row path, and the two paths stay bitwise equal wherever both can run.
FAR_FIELD_LEVELS = 13107
# The cut E_c is the first level at or above 1/16 of the top one, and the far
# levels' series in x = E/gamma serves |x| <= rho E_c, rho = FAR_RADIUS.  With
# |x/E_k| <= r <= rho, J terms leave out at most r^J (1+r)/(1-r) of a far term
# and (J+1) r^J c^2 of its derivative, c = (1+rho)/(1-rho): FAR_TERMS = 21 puts
# both under eps/8 at r = rho, and higher levels need fewer terms.
FAR_CUT, FAR_RADIUS = 1 / 16, 1 / 8
_FAR_GROWTH = 8.0 * ((1 + FAR_RADIUS) / (1 - FAR_RADIUS))**2 / _EPS
FAR_TERMS = next(j for j in range(1, 100) if (j + 1) * FAR_RADIUS**j * _FAR_GROWTH <= 1.0)


@dataclass(frozen=True)
class GraphFamily:
    """One of complete:N, hypercube:n, or lattice:d:L."""

    kind: str
    num_vertices: int
    num_bits: int | None = None
    dim: int | None = None
    side: int | None = None

    def __post_init__(self):
        if self.kind not in _SPEC_FIELDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.num_vertices > 2**63 - 1:     # the level multiplicities are int64
            raise ValueError(f"{self.label()} has N = {self.num_vertices} > 2**63 - 1")

    @classmethod
    def complete(cls, num_vertices: int) -> "GraphFamily":
        if num_vertices < 2:
            raise ValueError(f"complete graph needs N >= 2, got {num_vertices}")
        return cls(kind="complete", num_vertices=int(num_vertices))

    @classmethod
    def hypercube(cls, num_bits: int) -> "GraphFamily":
        if num_bits < 1:
            raise ValueError(f"hypercube needs n >= 1 bits, got {num_bits}")
        if num_bits >= 63:  # refused before 2^n is formed: a huge n takes gigabytes
            raise ValueError(f"hypercube:{num_bits} has N = 2**{num_bits} > 2**63 - 1")
        return cls(kind="hypercube", num_vertices=2**int(num_bits), num_bits=int(num_bits))

    @classmethod
    def lattice(cls, dim: int, side: int) -> "GraphFamily":
        if dim < 1:
            raise ValueError(f"lattice needs dim >= 1, got {dim}")
        if side < 2:
            raise ValueError(f"lattice needs side >= 2, got {side}")
        if (bits := int(dim) * (int(side).bit_length() - 1)) >= 63:  # N >= 2^bits, as above
            raise ValueError(f"lattice:{dim}:{side} has N >= 2**{bits} > 2**63 - 1")
        return cls(kind="lattice", num_vertices=int(side) ** int(dim), dim=int(dim), side=int(side))

    def label(self) -> str:
        return ":".join([self.kind, *(str(getattr(self, f)) for f in _SPEC_FIELDS[self.kind])])


class GraphSpecError(ValueError):
    pass


# The integer fields label() writes after each family name, which names the
# constructor that takes them in this order.  Each one, like each integer flag of
# the CLI, is INTEGER_TEXT: no "_", "+", whitespace or non-ASCII digit, unlike int().
_SPEC_FIELDS = {"complete": ("num_vertices",), "hypercube": ("num_bits",),
                "lattice": ("dim", "side")}
INTEGER_TEXT = re.compile("-?[0-9]+")


def parse_graph_spec(text: str) -> GraphFamily:
    """Parse complete:<N> | hypercube:<n> | lattice:<d>:<L>, the inverse of label()."""
    kind, *parts = text.split(":")
    if kind not in _SPEC_FIELDS:
        raise GraphSpecError(f"unknown family {kind!r} at position 0 of {text!r}")
    want = len(_SPEC_FIELDS[kind])
    if len(parts) != want:
        raise GraphSpecError(f"{kind} takes {('one field', 'two fields')[want - 1]}, got {text!r}")
    for pos, part in enumerate(parts, 1):
        if not INTEGER_TEXT.fullmatch(part):
            raise GraphSpecError(f"expected an integer at position {pos} of {text!r}")
    return getattr(GraphFamily, kind)(*map(int, parts))


@dataclass(frozen=True)
class LevelSpectrum:
    """Distinct eigenvalues of -L with multiplicities; every eigenvector overlaps the
    marked vertex with squared magnitude 1/num_vertices.

    The secular kernel's coupling-free inputs come with the levels: the weights
    w_k = m_k/N and, over k >= 1, the moments s1 = sum w_k/E_k (the scan
    center), s2 = sum w_k/E_k^2 and m1 = sum w_k E_k = tr(-L)/N, the vertex
    degree, which the builder passes in.  Above FAR_FIELD_LEVELS levels,
    far_moments holds mu_j = sum w_k/E_k^(j+1) over the levels from far_start
    on, j = 0..FAR_TERMS, and far_radius is FAR_RADIUS times the level at
    far_start; elsewhere far_start is K and far_moments empty.
    """

    energies: np.ndarray
    multiplicities: np.ndarray
    num_vertices: int
    weights: np.ndarray
    s1: float
    s2: float
    m1: float
    far_start: int
    far_radius: float
    far_moments: tuple

    @property
    def num_levels(self) -> int:
        return len(self.energies)


def _freeze(energies: np.ndarray, multiplicities: np.ndarray, num_vertices: int,
            degree: int) -> LevelSpectrum:
    energies = np.asarray(energies, dtype=float)
    multiplicities = np.asarray(multiplicities, dtype=np.int64)
    if energies[0] != 0.0 or multiplicities[0] != 1:
        raise AssertionError("lowest level must be the simple uniform mode at 0")
    if np.any(np.diff(energies) <= 0):
        raise AssertionError("levels must be strictly increasing")
    if int(multiplicities.sum()) != num_vertices:
        raise AssertionError("multiplicities must sum to N")
    weights = multiplicities / num_vertices
    terms = multiplicities[1:] / energies[1:]
    s1 = float(np.sum(terms)) / num_vertices
    terms /= energies[1:]
    s2 = float(np.sum(terms)) / num_vertices
    far_start, far_radius, moments = len(energies), 0.0, []
    if len(energies) > FAR_FIELD_LEVELS:
        far_start = int(np.searchsorted(energies, FAR_CUT * energies[-1]))
        far_radius = FAR_RADIUS * float(energies[far_start])
        # The far terms reuse the tail of the moment workspace.  Term j >= 2
        # counts only while j r^(j-1) c^2 > eps/8, r = far_radius/E_k, so each
        # moment sums a shorter prefix of the far levels (half the work).
        inverse = 1.0 / energies[far_start:]
        far = np.multiply(weights[far_start:], inverse, out=terms[far_start - 1:])
        for j in range(FAR_TERMS + 1):
            if j > 1:
                top = far_radius * (j * _FAR_GROWTH) ** (1 / (j - 1))
                far = far[:np.searchsorted(energies[far_start:], top)]
                inverse = inverse[:len(far)]
            moments.append(float(np.sum(far)))
            far *= inverse
    for arr in (energies, multiplicities, weights):
        arr.setflags(write=False)
    return LevelSpectrum(energies=energies, multiplicities=multiplicities,
                         num_vertices=int(num_vertices), weights=weights, s1=s1, s2=s2,
                         m1=float(degree), far_start=far_start,
                         far_radius=far_radius, far_moments=tuple(moments))


# One entry: a computation asks for one graph's levels from several layers, and
# keeping only the last graph holds nothing across computations.  The arrays are
# read-only (_freeze), so every caller may share the one object.
@functools.lru_cache(maxsize=1)
def level_spectrum(graph: GraphFamily) -> LevelSpectrum:
    """Compressed spectrum of -L for any supported family; the last graph's is kept."""
    n = graph.num_vertices
    if graph.kind == "complete":
        # L + N*I is N times the projector on the uniform state, so -L has
        # the simple eigenvalue 0 and the (N-1)-fold eigenvalue N.
        return _freeze([0.0, float(n)], [1, n - 1], n, n - 1)
    # The hypercube is n rings of side 2 with one edge each and a lattice d rings
    # of side L with two, so a level is edges (d - sum of axis cosines).  It depends
    # on the multiset of axis indices m_1 <= ... <= m_d in 0..L/2, not their order,
    # so each multiset is listed once (C(L/2 + d, d) entries) with the count of its
    # ordered tuples: the multinomial, grown by k / (run length of the new last
    # index) in uint64 (k times a count reaches 1.44e19 at hypercube:62), times 2
    # per index with -m != m.  Kept ordered by last index, the multisets that index b
    # extends are a prefix.  Cosines are summed before forming edges (d - sum) so
    # lattice:2:4 stays integer; one sort then merges sums within tolerance.
    dim, side, edges = ((graph.num_bits, 2, 1) if graph.kind == "hypercube"
                        else (graph.dim, graph.side, 2))
    count = math.comb(side // 2 + dim, dim)
    if count > MAX_LEVEL_MULTISETS:
        raise ValueError(f"{graph.label()} needs {count} axis-index multisets, above "
                         f"the level-build cap of {MAX_LEVEL_MULTISETS}")
    half = np.arange(side // 2 + 1)
    axis_cos = np.cos(2.0 * np.pi * half / side)
    axis_count = np.where((half == 0) | (2 * half == side), 1, 2).astype(np.uint64)
    tol = LEVEL_GROUP_TOL * 2.0 * edges * dim
    sums, mult = np.zeros(1), np.ones(1, dtype=np.uint64)
    last, run = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint64)
    for k in range(1, dim + 1):
        prefix = np.searchsorted(last, half, side="right")
        parent = np.arange(prefix.sum()) - np.repeat(np.cumsum(prefix) - prefix, prefix)
        index = np.repeat(half, prefix)
        run = np.where(last[parent] == index, run[parent] + 1, 1)
        mult, sums = mult[parent] * k // run, sums[parent]
        del parent  # freed before the last two gathers
        mult *= axis_count[index]
        sums += axis_cos[index]
        last = index
    del last, run, index  # freed before the sort and its copies
    order = np.argsort(-sums)
    sums = sums[order]
    mult = mult[order].view(np.int64)  # a view: a float-by-uint64 product would copy
    del order
    # sums[0] = d exactly is the uniform mode, the one level at 0, which stays
    # apart even when 2(1 - cos(2 pi / L)) falls under the tolerance
    starts = np.flatnonzero(np.r_[True, True, np.diff(edges * (dim - sums))[1:] > tol])
    merged = np.add.reduceat(mult, starts)
    sums *= mult
    del mult
    sums = np.add.reduceat(sums, starts) / merged
    del starts  # freed, and the energies formed in place, before the level moments
    np.subtract(dim, sums, out=sums)
    sums *= edges
    return _freeze(sums, merged, n, edges * dim)


def neg_laplacian(graph: GraphFamily) -> np.ndarray:
    """Dense -L = D - A.  Side-2 lattice rings carry double edges so that the
    dense matrix agrees with the dispersion relation."""
    n = graph.num_vertices
    if graph.kind == "complete":
        return float(n) * np.eye(n) - np.ones((n, n))
    # Both product families: vertex idx has the row-major digit idx // stride % side
    # on each axis.  The hypercube is n rings of side 2 with one edge each.
    dim, side, steps = ((graph.num_bits, 2, (1,)) if graph.kind == "hypercube"
                        else (graph.dim, graph.side, (1, -1)))
    idx = np.arange(n)
    a = np.zeros((n, n))
    for j in range(dim):
        stride = side ** (dim - 1 - j)
        digit = idx // stride % side
        for step in steps:
            a[idx, idx + ((digit + step) % side - digit) * stride] += 1.0
    return len(steps) * dim * np.eye(n) - a
