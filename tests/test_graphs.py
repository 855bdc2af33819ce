import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _shared import (
    _peak_bytes,
    dense_neg_laplacian_reference,
    dispersion,
    dispersion_values,
    family,
    group_close,
    levels,
    momentum_axis,
    momentum_grid,
)

import qwsearch.graphs
from qwsearch import GraphFamily, level_spectrum, neg_laplacian
from qwsearch.graphs import LEVEL_GROUP_TOL, parse_graph_spec


def test_dispersion_zero_mode():
    assert dispersion([0, 0, 0], 3, 10) == 0.0


def test_dispersion_corner_and_edge():
    assert dispersion([2, 2], 2, 4) == pytest.approx(8.0, abs=1e-14)
    assert dispersion([1, 0], 2, 4) == pytest.approx(2.0, abs=1e-14)


def test_dispersion_range():
    for d, side in ((1, 5), (2, 6), (3, 4)):
        vals = dispersion_values(d, side)
        assert vals.min() >= -1e-12
        assert vals.max() <= 4.0 * d + 1e-12


def test_momentum_axis_odd_and_even():
    assert set(momentum_axis(3).tolist()) == {0, 1, -1}
    assert set(momentum_axis(4).tolist()) == {0, 1, -1, 2}
    assert set(momentum_axis(5).tolist()) == {0, 1, -1, 2, -2}
    assert set(momentum_axis(6).tolist()) == {0, 1, -1, 2, -2, 3}


def test_momentum_grid_counts_and_zero():
    for d, side in ((1, 3), (1, 4), (2, 4), (3, 3), (2, 5)):
        grid = momentum_grid(d, side)
        assert grid.shape == (side**d, d)
        assert len(np.unique(grid, axis=0)) == side**d
        zero_rows = np.all(grid == 0, axis=1)
        assert int(zero_rows.sum()) == 1


def test_momentum_grid_rejects_small_side():
    with pytest.raises(ValueError):
        momentum_grid(2, 1)


def test_level_spectrum_complete_4():
    ls = level_spectrum(GraphFamily.complete(4))
    assert ls.energies.tolist() == [0.0, 4.0]
    assert ls.multiplicities.tolist() == [1, 3]
    assert 1.0 / ls.num_vertices == pytest.approx(0.25)


def test_level_spectrum_lattice_2_4():
    ls = level_spectrum(GraphFamily.lattice(2, 4))
    assert ls.energies.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert ls.multiplicities.tolist() == [1, 4, 6, 4, 1]


def test_level_spectrum_hypercube_3_vs_dense():
    # independent oracle: diagonalize the explicit 8x8 matrix
    mat = dense_neg_laplacian_reference("hypercube:3")
    eigs = np.linalg.eigvalsh(mat)
    expected = group_close(eigs, 1e-9)
    ls = level_spectrum(GraphFamily.hypercube(3))
    assert len(expected) == ls.num_levels == 4
    for (e_ref, m_ref), e, m in zip(expected, ls.energies, ls.multiplicities):
        assert e == pytest.approx(e_ref, abs=1e-9)
        assert m == m_ref


@pytest.mark.parametrize("label", [
    "complete:2", "complete:17", "complete:256",
    "hypercube:1", "hypercube:4", "hypercube:8",
    "lattice:1:2", "lattice:1:7", "lattice:2:5", "lattice:2:16",
    "lattice:3:4", "lattice:4:3", "lattice:5:4",
])
def test_multiplicities_sum_to_n(label):
    ls = levels(label)
    assert int(ls.multiplicities.sum()) == ls.num_vertices
    assert ls.energies[0] == 0.0
    assert ls.multiplicities[0] == 1
    assert np.all(np.diff(ls.energies) > 0)


@pytest.mark.parametrize("label,max_degree", [
    ("complete:12", 11), ("hypercube:5", 5), ("lattice:3:5", 6), ("lattice:2:4", 4),
])
def test_energies_within_laplacian_bound(label, max_degree):
    assert levels(label).energies[-1] <= 2.0 * max_degree + 1e-9


@pytest.mark.parametrize("dim,side", [(1, 4), (2, 4), (2, 6), (3, 4), (4, 2)])
def test_bipartite_symmetry_even_side(dim, side):
    ls = level_spectrum(GraphFamily.lattice(dim, side))
    mirrored = sorted(4.0 * dim - e for e in ls.energies)
    assert np.allclose(mirrored, ls.energies, atol=1e-9)
    assert ls.multiplicities.tolist() == ls.multiplicities.tolist()[::-1]


@pytest.mark.parametrize("dim,side", [(1, 5), (2, 4), (2, 7), (3, 4)])
def test_levels_are_dispersion_image(dim, side):
    ls = level_spectrum(GraphFamily.lattice(dim, side))
    grid = momentum_grid(dim, side)
    sampled = sorted({round(dispersion(m, dim, side), 7) for m in grid})
    assert len(sampled) == ls.num_levels
    assert np.allclose(sampled, ls.energies, atol=1e-6)


def _sorted_split_levels(dim, side):
    """Brute force: sort all N dispersion values, split at the level tolerance."""
    values = np.sort(dispersion_values(dim, side))
    split = np.diff(values) > LEVEL_GROUP_TOL * 4.0 * dim
    split[0] = True   # the uniform mode, the one value at exactly 0, is its own level
    starts = np.flatnonzero(np.r_[True, split])
    counts = np.diff(np.r_[starts, len(values)])
    return np.add.reduceat(values, starts) / counts, counts


@pytest.mark.parametrize("dim,side", [
    (1, 2), (2, 2), (3, 2), (4, 2), (7, 2), (10, 2),
    (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (6, 4), (8, 4),
    (5, 8), (4, 16), (2, 64), (3, 32), (5, 16), (4, 32), (3, 64), (2, 256),
    (2, 1024), (3, 128), (1, 99346), (1, 150000),
])
def test_level_spectrum_matches_sorted_dispersion(dim, side):
    energies, counts = _sorted_split_levels(dim, side)
    ls = level_spectrum(GraphFamily.lattice(dim, side))
    assert ls.multiplicities.tolist() == counts.tolist()
    assert np.max(np.abs(ls.energies - energies)) <= 1e-12


def test_lattice_level_build_peak():
    # about five arrays of C(L/2 + d, d) entries are alive at once; keeping the
    # parent index through the last gathers, the sort order through the merge,
    # or the unweighted sums beside the weighted ones makes it six
    graph = GraphFamily.lattice(2, 1024)
    entries = math.comb(1024 // 2 + 2, 2)
    level_spectrum.cache_clear()
    assert _peak_bytes(level_spectrum, graph) < 5.5 * 8 * entries


@pytest.mark.parametrize("label, degree", [
    ("complete:2", 1), ("complete:1024", 1023), ("hypercube:1", 1), ("hypercube:62", 62),
    ("lattice:1:3", 2), ("lattice:3:10", 6), ("lattice:62:2", 124), ("lattice:2:1024", 4),
])
def test_m1_is_the_vertex_degree(label, degree):
    # m1 = sum_k w_k E_k = tr(-L)/N, the degree (side-2 rings count their double
    # edge); the level sum agrees with it to 2 ulp, the energies' own rounding
    ls = levels(label)
    assert ls.m1 == degree
    if ls.num_vertices <= 1024:
        assert np.all(np.diag(neg_laplacian(family(label))) == degree)
    level_sum = math.fsum(m * e for m, e in zip(ls.multiplicities.tolist(), ls.energies.tolist()))
    assert abs(level_sum / ls.num_vertices - degree) <= 2 * np.spacing(float(degree))


def test_side_two_levels_are_the_binomial_closed_form():
    # the hypercube is n rings of side 2 with one edge each, lattice:n:2 with two
    for n in range(1, 63):
        for graph, step in ((GraphFamily.hypercube(n), 2.0), (GraphFamily.lattice(n, 2), 4.0)):
            ls = level_spectrum.__wrapped__(graph)
            assert ls.energies.tolist() == [step * r for r in range(n + 1)], graph
            assert ls.multiplicities.tolist() == [math.comb(n, r) for r in range(n + 1)], graph


def _fold_reference(dim, side):
    """The level build's fold in Python ints: each multiset of axis indices with
    the count of its ordered tuples, and the largest k * count the fold forms."""
    entries, largest = [((), 1, 0)], 0      # (multiset, count, run of its last index)
    for k in range(1, dim + 1):
        grown = []
        for indices, count, run in entries:
            for b in range(indices[-1] if indices else 0, side // 2 + 1):
                run_b = run + 1 if indices and indices[-1] == b else 1
                largest = max(largest, k * count)
                signs = 1 if b == 0 or 2 * b == side else 2
                grown.append((indices + (b,), k * count // run_b * signs, run_b))
        entries = grown
    return [(indices, count) for indices, count, _ in entries], largest


def test_fold_counts_are_exact_where_k_times_a_count_passes_int64():
    # Below d = 2L, k * count <= d N / L < 2N < 2^64.  These are the 164 families
    # of sides 2-9 with d >= 2L and N <= 2^63 - 1; at lattice:62:2 the fold forms
    # k * count above 2^63.
    families = [(d, side) for side in range(2, 10) for d in range(2 * side, 64)
                if side**d <= 2**63 - 1]
    assert len(families) == 164
    largest = 0
    for dim, side in families:
        entries, top = _fold_reference(dim, side)
        largest = max(largest, top)
        ls = level_spectrum.__wrapped__(GraphFamily.lattice(dim, side))
        level_of = np.searchsorted((ls.energies[1:] + ls.energies[:-1]) / 2, [
            2 * (dim - math.fsum(math.cos(2 * math.pi * b / side) for b in indices))
            for indices, _ in entries])
        counts = [0] * ls.num_levels
        for level, (_, count) in zip(level_of, entries):
            counts[level] += count
        assert sum(counts) == side**dim
        assert ls.multiplicities.tolist() == counts, (dim, side)
    assert 2**63 < largest < 2**64


@pytest.mark.parametrize("dim,side", [(1, 7), (2, 8), (3, 5), (4, 4)])
def test_level_build_cap_boundary(monkeypatch, dim, side):
    # the build lists each multiset of axis indices 0..L/2 once; a count equal
    # to the cap builds, and one above it is refused, naming graph, count and cap
    graph = GraphFamily.lattice(dim, side)
    count = len(list(itertools.combinations_with_replacement(range(side // 2 + 1), dim)))
    monkeypatch.setattr(qwsearch.graphs, "MAX_LEVEL_MULTISETS", count)
    assert level_spectrum.__wrapped__(graph).num_vertices == side**dim
    monkeypatch.setattr(qwsearch.graphs, "MAX_LEVEL_MULTISETS", count - 1)
    with pytest.raises(ValueError, match=f"{graph.label()} needs {count} .* cap of {count - 1}"):
        level_spectrum.__wrapped__(graph)


def _distinct_levels(dim, side, dps=30):
    """Distinct sums of dim per-axis energies, told apart at 30 digits."""
    with mpmath.workdps(dps):
        axis = [2 * (1 - mpmath.cos(2 * mpmath.pi * m / side)) for m in range(side // 2 + 1)]
        sums = sorted(mpmath.fsum(c) for c in itertools.combinations_with_replacement(axis, dim))
        # exact identities such as cos(pi/2) + cos(pi/2) = cos(0) + cos(pi) agree to ~1e-30
        tie = mpmath.mpf(10) ** (10 - dps)
        return sums[:1] + [b for a, b in zip(sums, sums[1:]) if b - a > tie]


@pytest.mark.parametrize("dim,side", [(2, 512), (3, 64), (4, 32), (5, 16), (6, 8),
                                      (2, 1024), (1, 99346)])
def test_level_count_matches_extended_precision(dim, side):
    exact = _distinct_levels(dim, side)
    ls = level_spectrum(GraphFamily.lattice(dim, side))
    assert ls.num_levels == len(exact)
    with mpmath.workdps(30):
        worst = max(abs(mpmath.mpf(e) - x) for e, x in zip(ls.energies.tolist(), exact))
    assert worst <= 4 * np.finfo(float).eps * 4 * dim


@st.composite
def _lattices(draw, max_vertices=200_000):
    dim = draw(st.integers(1, 6))
    return dim, draw(st.integers(2, int(max_vertices ** (1.0 / dim))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_lattices())
def test_level_spectrum_matches_sorted_dispersion_property(lattice):
    energies, counts = _sorted_split_levels(*lattice)
    ls = level_spectrum(GraphFamily.lattice(*lattice))
    assert ls.multiplicities.tolist() == counts.tolist()
    assert np.max(np.abs(ls.energies - energies)) <= 1e-12


@pytest.mark.parametrize("label", [
    "complete:5", "complete:64", "hypercube:3", "hypercube:6",
    "lattice:1:2", "lattice:2:3", "lattice:2:4", "lattice:2:16",
    "lattice:3:2", "lattice:3:8", "lattice:4:6", "lattice:5:4",
])
def test_dense_matches_level_spectrum(label):
    ls = levels(label)
    eigs = np.linalg.eigvalsh(neg_laplacian(family(label)))
    grouped = group_close(eigs, 1e-7)
    assert len(grouped) == ls.num_levels
    for (e_ref, m_ref), e, m in zip(grouped, ls.energies, ls.multiplicities):
        assert abs(e - e_ref) < 1e-9
        assert m == m_ref


@pytest.mark.parametrize("label", [
    "complete:5", "hypercube:1", "hypercube:3", "hypercube:6", "lattice:1:2", "lattice:1:3",
    "lattice:2:4", "lattice:2:5", "lattice:3:2", "lattice:3:3",
])
def test_neg_laplacian_matches_reference_builder(label):
    assert np.array_equal(neg_laplacian(family(label)), dense_neg_laplacian_reference(label))


def test_family_validation():
    with pytest.raises(ValueError):
        GraphFamily.complete(1)
    with pytest.raises(ValueError):
        GraphFamily.hypercube(0)
    with pytest.raises(ValueError):
        GraphFamily.lattice(0, 4)
    with pytest.raises(ValueError):
        GraphFamily.lattice(2, 1)


def test_family_rejects_unknown_kind():
    with pytest.raises(ValueError, match="'ring'"):
        GraphFamily(kind="ring", num_vertices=5)


def test_labels_round_trip():
    assert GraphFamily.complete(10).label() == "complete:10"
    assert GraphFamily.hypercube(4).label() == "hypercube:4"
    assert GraphFamily.lattice(4, 6).label() == "lattice:4:6"
    assert GraphFamily.lattice(4, 6).num_vertices == 1296


@pytest.mark.parametrize("energies, multiplicities, num_vertices, message", [
    ([1.0, 2.0], [1, 3], 4, "lowest level"),
    ([0.0, 2.0], [2, 2], 4, "lowest level"),
    ([0.0, 2.0, 2.0], [1, 1, 2], 4, "strictly increasing"),
    ([0.0, 2.0], [1, 2], 4, "sum to N"),
])
def test_freeze_checks_the_level_invariants(energies, multiplicities, num_vertices, message):
    with pytest.raises(AssertionError, match=message):
        qwsearch.graphs._freeze(energies, multiplicities, num_vertices, degree=2)


def test_spectrum_is_immutable():
    # every caller shares the memoized levels, so no caller may write to them
    for label in ("complete:8", "hypercube:3", "lattice:2:4"):
        ls = levels(label)
        with pytest.raises(ValueError):
            ls.energies[0] = 5.0
        with pytest.raises(ValueError):
            ls.multiplicities[-1] = 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.integers(2, 2**63 - 1).map(GraphFamily.complete),
    st.integers(1, 62).map(GraphFamily.hypercube),
    st.tuples(st.integers(1, 6), st.integers(2, 1000)).map(lambda t: GraphFamily.lattice(*t)),
))
def test_graph_spec_round_trip(graph):
    assert parse_graph_spec(graph.label()) == graph
