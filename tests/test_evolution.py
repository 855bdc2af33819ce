import math
import zlib

import mpmath
import numpy as np
import pytest

from _shared import (
    ORACLE_FAMILIES,
    cluster_weights,
    dense,
    dense_oracle,
    family,
    grid_amplitudes_reference,
    scan_center,
    solved,
    spectral_clusters,
)

import qwsearch.evolution
from qwsearch import (
    DenseReference,
    GraphFamily,
    amplitude,
    amplitudes,
    default_time_horizon,
    find_optimal_time,
    green_integral,
    trace,
)
from qwsearch.evolution import OPTIMAL_TIME_GRID, _grid_optimum, spectral_coefficients


def test_amplitude_at_zero_is_root_n():
    for label, gamma in (("lattice:2:4", 1.0), ("complete:256", 1.0 / 256), ("hypercube:6", 0.2)):
        spec = solved(label, gamma)
        a0 = amplitude(spec, 0.0)
        n = family(label).num_vertices
        assert a0.imag == pytest.approx(0.0, abs=1e-12)
        assert a0.real == pytest.approx(1.0 / math.sqrt(n), abs=1e-9)


def test_complete_graph_rotation():
    spec = solved("complete:1024", 1.0 / 1024.0)
    t = math.pi * 32.0 / 2.0
    assert abs(amplitude(spec, t)) >= 0.95
    tr = trace(spec, math.pi * 32.0, 512)
    peak = tr.times[int(np.argmax(tr.probabilities))]
    assert tr.probabilities.max() >= 0.9
    assert abs(peak - t) <= 0.05 * t


def test_amplitude_matches_dense_16():
    spec = solved("lattice:2:4", 1.0)
    ref = dense("lattice:2:4", 1.0, 0)
    assert abs(amplitude(spec, 1.0) - ref.amplitude(1.0)) < 1e-10


@pytest.mark.parametrize("num_points", [2, 3, 2025, 2053, 4097, 100003])
def test_amplitude_grid_matches_direct_sum(monkeypatch, num_points):
    spec = solved("lattice:2:16", 1.0)
    t_max = 300.0
    # Shrink the working-memory bound so the roots split into uneven chunks of 7.
    block = math.isqrt(num_points - 1) + 1
    table_rows = block + math.ceil(num_points / block)
    monkeypatch.setattr(qwsearch.evolution, "AMPLITUDE_BLOCK", 7 * table_rows + 3)
    assert spec.num_roots > 7 and spec.num_roots % 7 != 0
    amps = amplitudes(spec, t_max, num_points)
    times = np.linspace(0.0, t_max, num_points)
    assert amps.shape == (num_points,)
    assert abs(amps[0] * math.sqrt(spec.num_vertices) - 1.0) <= 1e-12
    for t, a in zip(times.tolist(), amps.tolist()):
        assert abs(a - amplitude(spec, t)) <= 1e-14
    tr = trace(spec, t_max, num_points)
    assert np.array_equal(tr.times, times)
    assert tr.times[0] == 0.0 and tr.times[-1] == t_max
    assert np.array_equal(tr.amplitudes, amps)


def test_trace_grid_and_endpoints():
    spec = solved("lattice:2:4", 1.0)
    tr = trace(spec, 7.0, 2)
    assert tr.times.tolist() == [0.0, 7.0]
    tr = trace(spec, 5.0, 11)
    assert np.allclose(np.diff(tr.times), 0.5, atol=1e-12)
    assert tr.probabilities[0] == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert np.all(tr.probabilities >= 0.0)
    assert np.all(tr.probabilities <= 1.0 + 1e-12)


def test_trace_validation():
    spec = solved("lattice:2:4", 1.0)
    with pytest.raises(ValueError):
        trace(spec, 0.0, 16)
    with pytest.raises(ValueError):
        trace(spec, 2.0, 1)
    for t_max in (math.nan, math.inf):
        with pytest.raises(ValueError):
            trace(spec, t_max, 16)
        with pytest.raises(ValueError):
            find_optimal_time(spec, t_max)


def test_optimal_time_complete():
    spec = solved("complete:1024", 1.0 / 1024.0)
    t_star, p_star = find_optimal_time(spec, 2.0 * math.pi * 32.0)
    assert abs(t_star - math.pi * 16.0) <= 0.05 * math.pi * 16.0
    assert p_star >= 0.99


def test_optimal_time_floor():
    for label, gamma in (("lattice:2:16", 2.0), ("lattice:3:6", 0.05)):
        spec = solved(label, gamma)
        _, p_star = find_optimal_time(spec, 10.0)
        assert p_star >= 1.0 / family(label).num_vertices - 1e-12


def test_optimal_probability_dominates_grid():
    spec = solved("lattice:3:8", 0.25)
    horizon = default_time_horizon(512)
    t_star, p_star = find_optimal_time(spec, horizon)
    probs = np.abs(grid_amplitudes_reference(spec, horizon, OPTIMAL_TIME_GRID)) ** 2
    assert p_star >= probs.max() - 1e-15


@pytest.mark.parametrize("label", ("lattice:5:8", "lattice:2:32", "lattice:4:16",
                                   "lattice:2:64", "lattice:3:32"))
def test_optimal_time_matches_plain_grid(label):
    horizon = default_time_horizon(family(label).num_vertices)
    for factor in (0.5, 1.0, 2.0):
        spec = solved(label, factor * scan_center(label))
        ref = grid_amplitudes_reference(spec, horizon, OPTIMAL_TIME_GRID)
        t_ref, p_ref = _grid_optimum(spec, horizon, ref)
        t_star, p_star = find_optimal_time(spec, horizon)
        assert t_star == pytest.approx(t_ref, rel=1e-12)
        assert p_star == pytest.approx(p_ref, rel=1e-12)


@pytest.mark.parametrize("label", ("complete:1024", "hypercube:10", "lattice:5:4",
                                   "lattice:3:10", "lattice:2:32"))
def test_optimal_time_is_stationary_point(label):
    # t* against the 40-digit zero of d|amp|^2/dt = 2 Im(conj(a) sum_a E_a c_a e^(-i E_a t)),
    # with the float64 roots and coefficients taken as exact
    horizon = default_time_horizon(family(label).num_vertices)
    for factor in (0.25, 1.0, 4.0):
        spec = solved(label, factor * scan_center(label))
        t_star, p_star = find_optimal_time(spec, horizon)
        with mpmath.workdps(40):
            terms = [(mpmath.mpf(float(e)), mpmath.mpf(float(c)))
                     for e, c in zip(spec.energies, spectral_coefficients(spec))]

            def amp(t):
                return mpmath.fsum(c * mpmath.expj(-e * t) for e, c in terms)

            def slope(t):
                deriv = mpmath.fsum(e * c * mpmath.expj(-e * t) for e, c in terms)
                return mpmath.im(mpmath.conj(amp(t)) * deriv)

            t_ref = mpmath.findroot(slope, (t_star * (1 - 1e-6), t_star * (1 + 1e-6)))
            p_ref = float(abs(amp(t_ref)) ** 2)
        assert t_star == pytest.approx(float(t_ref), rel=1e-12)
        assert p_star == pytest.approx(p_ref, rel=1e-12)


def test_dense_oracle_time_zero():
    assert dense_oracle(GraphFamily.lattice(2, 4), 1.0, 0, 0.0) == pytest.approx(0.25, abs=1e-12)


def test_dense_oracle_complete_64_offset_vertex():
    amp = dense_oracle(GraphFamily.complete(64), 1.0 / 64.0, 7, math.pi * 8.0 / 2.0)
    assert abs(amp) >= 0.9


def test_dense_oracle_validation():
    with pytest.raises(ValueError):
        dense_oracle(GraphFamily.complete(64), 0.1, 64, 1.0)
    with pytest.raises(ValueError):
        dense_oracle(GraphFamily.complete(8192), 0.1, 0, 1.0, cap=4096)


def test_dense_oracle_marked_vertex_equivalence():
    rng = np.random.default_rng(11)
    gamma = scan_center("hypercube:8")
    spec = solved("hypercube:8", gamma)
    for w in (0, 17, 255):
        ref = DenseReference(family("hypercube:8"), gamma, w)
        t = float(rng.uniform(0.0, 64.0))
        assert abs(ref.amplitude(t) - amplitude(spec, t)) < 1e-8


@pytest.mark.parametrize("label", ORACLE_FAMILIES)
def test_oracle_equivalence_random_draws(label):
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    center = scan_center(label)
    n = family(label).num_vertices
    horizon = default_time_horizon(n)
    for _ in range(3):
        gamma = float(rng.uniform(center / 4.0, 4.0 * center))
        w = int(rng.integers(0, n))
        ref = DenseReference(family(label), gamma, w)
        spec = solved(label, gamma)
        for _ in range(2):
            t = float(rng.uniform(0.0, horizon))
            assert abs(ref.amplitude(t) - amplitude(spec, t)) < 1e-8
        d_e, d_w, d_s = cluster_weights(ref.eigenvalues, ref.w_overlaps_sq(), ref.s_overlaps_sq())
        s_e, s_w, s_s = spectral_clusters(label, gamma)
        assert len(d_e) == len(s_e)
        assert np.max(np.abs(d_e - s_e)) < 1e-8
        assert np.max(np.abs(d_w - s_w)) < 1e-8
        assert np.max(np.abs(d_s - s_s)) < 1e-8


def test_unitarity_and_time_reversal():
    spec = solved("lattice:3:8", 0.25)
    for t in np.linspace(0.0, 90.0, 37):
        a = amplitude(spec, float(t))
        assert abs(a) ** 2 <= 1.0 + 1e-12
        # the spectral sum extends to negative times as the conjugate
        assert amplitude(spec, -float(t)) == pytest.approx(a.conjugate(), abs=1e-14)


def test_amplitude_derivative_bound():
    # |d amp/dt| <= sum_a R_a / sqrt(N) = 1/sqrt(N), so |amp| <= (1 + t)/sqrt(N)
    for label, gamma_factor in (("lattice:2:16", 1.0), ("lattice:4:6", 1.0), ("hypercube:8", 1.0)):
        gamma = gamma_factor * scan_center(label)
        spec = solved(label, gamma)
        n = family(label).num_vertices
        for t in np.linspace(0.0, default_time_horizon(n), 257):
            assert abs(amplitude(spec, float(t))) <= (1.0 + t) / math.sqrt(n) + 1e-12


def test_global_ground_energy_bound():
    # |amp(t)| <= 2 sqrt(N) |E_0| at every time
    for label, factor in (("lattice:3:8", 2.0), ("lattice:2:16", 2.0)):
        gamma = factor * scan_center(label)
        spec = solved(label, gamma)
        n = family(label).num_vertices
        ceiling = 2.0 * math.sqrt(n) * abs(spec.energies[0])
        for t in np.linspace(0.0, default_time_horizon(n), 257):
            assert abs(amplitude(spec, float(t))) <= ceiling + 1e-12


def test_high_dim_sine_law():
    # d=5 at the asymptotic critical coupling follows the two-level sine law
    i1, i2 = green_integral(1, 5), green_integral(2, 5)
    spec = solved("lattice:5:4", i1)
    t_max = math.pi * math.sqrt(i2 * 1024.0) / i1
    tr = trace(spec, t_max, 2048)
    predicted = i1 * i1 / i2
    assert abs(tr.probabilities.max() - predicted) / predicted < 0.25


def test_marginal_dim_log_law():
    # d=4: success probability within a factor 2 of 32 pi^2 I^2 / ln N
    i1 = green_integral(1, 4)
    spec = solved("lattice:4:6", i1)
    _, p_star = find_optimal_time(spec, default_time_horizon(1296))
    predicted = 32.0 * math.pi**2 * i1 * i1 / math.log(1296.0)
    assert 0.5 <= p_star / predicted <= 2.0
