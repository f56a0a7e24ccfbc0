"""Tests for the truncated Gaussian Fourier field and its chaos measures.

Moment oracles are computed in-test: the field covariance is the explicit
cosine sum, the mean chaos mass is 2pi by construction of the normalization,
and the second moment of the mass reduces to a single quadrature of
exp(beta^2 C(delta)) over the circle.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuechaos import (
    GaussianDraw,
    GridMeasure,
    RngStream,
    chaos_mass_block,
    chaos_measure,
    field_coeffs_from_traces,
    field_partial_sum,
    field_variance,
    gaussian_block,
    gaussian_draw,
    integrate_measure,
    sample_cue,
    sobolev_norm,
    trace_powers,
    uniform_grid,
)

TWO_PI = 2.0 * math.pi


def test_gaussian_draw_reproducible():
    a = gaussian_draw(6, RngStream(3, 1))
    b = gaussian_draw(6, RngStream(3, 1))
    assert a.k == 6
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, gaussian_draw(6, RngStream(3, 2)).z)


def test_gaussian_draw_standard_complex_law():
    # E|Z|^2 = 1 and E Z^2 = 0 for a standard complex normal
    draws = np.array([gaussian_draw(4, RngStream(12, i)).z for i in range(4000)])
    abs_sq = np.abs(draws) ** 2
    for j in range(4):
        col = abs_sq[:, j]
        stderr = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 1.0) <= 4.0 * stderr
        sq = draws[:, j] ** 2
        assert abs(sq.mean()) <= 4.0 * np.abs(sq).std(ddof=1) / math.sqrt(sq.size)


def test_chaos_block_matches_draws_one_at_a_time():
    # 40 draws take three 16-row runs of grid_reduce
    streams = [RngStream(29, i) for i in range(40)]
    block = gaussian_block(12, streams)
    assert block.z.shape == (40, 12)
    for grid in (None, uniform_grid(25) + 0.4):
        masses = chaos_mass_block(block, 1.1, grid)
        assert masses.shape == (40,)
        for i, stream in enumerate(streams):
            draw = gaussian_draw(12, stream)
            assert np.array_equal(block.z[i], draw.z)
            assert masses[i] == chaos_measure(draw, 1.1, grid).total_mass
    one = gaussian_draw(12, streams[3])
    assert chaos_mass_block(one, 0.6) == chaos_measure(one, 0.6).total_mass
    with pytest.raises(ValueError, match="below Nyquist"):
        chaos_mass_block(block, 1.0, uniform_grid(24))
    with pytest.raises(ValueError, match="one draw"):
        chaos_measure(block, 1.0)


def test_field_variance_harmonic_sum():
    for k in (1, 2, 7, 50):
        assert_allclose(field_variance(k), 0.5 * sum(1.0 / j for j in range(1, k + 1)), rtol=1e-14)


def test_field_partial_sum_matches_direct_formula():
    draw = gaussian_draw(5, RngStream(8, 0))
    theta = 1.234
    direct = sum(
        (draw.z[j - 1] * np.exp(1j * j * theta)).real / math.sqrt(j) for j in range(1, 6)
    )
    assert_allclose(field_partial_sum(draw, theta), direct, rtol=1e-13)


def test_field_partial_sum_scalar_vs_array():
    draw = gaussian_draw(9, RngStream(2, 5))
    grid = uniform_grid(32)
    vec = field_partial_sum(draw, grid)
    assert vec.shape == grid.shape
    for t, v in zip(grid[:5], vec[:5]):
        assert_allclose(field_partial_sum(draw, float(t)), v, rtol=1e-13)


def test_field_covariance_oracle():
    # E[X(t) X(t')] = (1/2) sum_{j<=k} cos(j (t - t')) / j
    k, t, tp = 6, 0.7, 2.9
    samples = 20000
    prods = np.empty(samples)
    for i in range(samples):
        draw = gaussian_draw(k, RngStream(44, i))
        prods[i] = field_partial_sum(draw, t) * field_partial_sum(draw, tp)
    target = 0.5 * sum(math.cos(j * (t - tp)) / j for j in range(1, k + 1))
    stderr = prods.std(ddof=1) / math.sqrt(samples)
    assert abs(prods.mean() - target) <= 4.0 * stderr


def test_chaos_measure_node_values():
    draw = gaussian_draw(4, RngStream(7, 3))
    # the unshifted grid and one shifted by half a step
    for grid in (uniform_grid(64), uniform_grid(64) + 0.5 * TWO_PI / 64):
        measure = chaos_measure(draw, 0.8, grid)
        field = field_partial_sum(draw, grid)
        expected = np.exp(0.8 * field - 0.32 * field_variance(4)) * (TWO_PI / 64)
        assert_allclose(measure.masses, expected, rtol=1e-13)
        assert_allclose(measure.total_mass, expected.sum(), rtol=1e-13)


def test_chaos_measure_grid_nyquist_guard():
    draw = gaussian_draw(40, RngStream(0, 0))
    with pytest.raises(ValueError):
        chaos_measure(draw, 1.0, uniform_grid(64))  # needs >= 81 nodes
    assert chaos_measure(draw, 1.0, uniform_grid(81)).masses.size == 81


def test_chaos_mean_mass_is_2pi():
    masses = np.empty(3000)
    for i in range(masses.size):
        masses[i] = chaos_measure(gaussian_draw(8, RngStream(19, i)), 1.0).total_mass
    stderr = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - TWO_PI) <= 3.0 * stderr


def test_chaos_second_moment_quadrature_oracle():
    # E[M^2] = 2pi \int exp(beta^2 C(delta)) ddelta with C the cosine sum
    k, beta = 6, 0.7
    deltas = (np.arange(4096) + 0.5) * (TWO_PI / 4096)
    cov = 0.5 * sum(np.cos(j * deltas) / j for j in range(1, k + 1))
    target = TWO_PI * np.sum(np.exp(beta * beta * cov)) * (TWO_PI / 4096)
    masses = np.empty(4000)
    for i in range(masses.size):
        masses[i] = chaos_measure(gaussian_draw(k, RngStream(29, i)), beta).total_mass
    sq = masses**2
    stderr = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - target) <= 3.0 * stderr


def test_grid_measure_validation():
    grid = uniform_grid(8)
    with pytest.raises(ValueError):
        GridMeasure(grid, -np.ones(8))
    with pytest.raises(ValueError):
        GridMeasure(grid, np.ones(5))


def test_integrate_measure_forms():
    measure = chaos_measure(gaussian_draw(4, RngStream(1, 1)), 0.5, uniform_grid(128))
    total = integrate_measure(measure, 1.0)
    assert_allclose(total, measure.total_mass, rtol=1e-13)
    assert_allclose(integrate_measure(measure, lambda t: np.ones_like(t)), total, rtol=1e-13)
    weights = np.cos(measure.grid)
    assert_allclose(integrate_measure(measure, weights), np.sum(weights * measure.masses), rtol=1e-13)
    with pytest.raises(ValueError):
        integrate_measure(measure, np.ones(5))


def test_field_coeffs_from_traces_definition():
    smp = sample_cue(10, RngStream(6, 2))
    tr = trace_powers(smp, 5)
    coeffs = field_coeffs_from_traces(tr)
    assert coeffs.shape == (5,)
    for j in range(1, 6):
        assert_allclose(coeffs[j - 1], -tr.traces[j - 1] / (2.0 * j), rtol=1e-14)


def test_sobolev_norm_hand_example():
    # 2 * sum (1 + j^2)^s |c_j|^2 over the conjugate pair of coefficients
    coeffs = np.array([1.0 + 1.0j, 0.5])
    s = -0.5
    expected = 2.0 * (2.0**s * 2.0 + 5.0**s * 0.25)
    assert_allclose(sobolev_norm(coeffs, s), expected, rtol=1e-14)
    assert sobolev_norm(np.zeros(3), 1.0) == 0.0


def test_gaussian_draw_validation():
    with pytest.raises(ValueError):
        gaussian_draw(0, RngStream(0, 0))
    with pytest.raises(ValueError):
        GaussianDraw(3, np.zeros(2, dtype=complex))


def test_sobolev_norm_named_cases():
    # single coefficient c_1 = 1 at s = 0 counts the conjugate pair: 2
    assert sobolev_norm([1.0], 0.0) == 2.0
    # c_j = 1/(2 sqrt j), s = -0.1 against a direct summation oracle
    k, s = 40, -0.1
    coeffs = np.array([1.0 / (2.0 * math.sqrt(j)) for j in range(1, k + 1)])
    direct = 2.0 * sum(
        (1.0 + j * j) ** s / (4.0 * j) for j in range(1, k + 1)
    )
    assert_allclose(sobolev_norm(coeffs, s), direct, rtol=1e-14)


def test_chaos_mass_statistics_invariant_under_grid_rotation():
    # the field law is rotation invariant, so total-mass statistics must not
    # depend on where the sampling grid sits; independent draw sets per grid.
    k, beta, m, draws = 8, 0.9, 64, 500
    grids = (uniform_grid(m), uniform_grid(m) + 0.7)
    means, variances = [], []
    for offset, grid in enumerate(grids):
        masses = np.array(
            [
                chaos_measure(gaussian_draw(k, RngStream(77, offset * draws + i)), beta, grid).total_mass
                for i in range(draws)
            ]
        )
        means.append(masses.mean())
        variances.append(masses.var(ddof=1))
    gap = abs(means[0] - means[1])
    stderr = math.sqrt(variances[0] / draws + variances[1] / draws)
    assert gap < 4.0 * stderr


def test_chaos_mean_mass_constant_in_truncation():
    # Kahane normalization: E total mass is exactly 2pi at every level k
    beta, draws = 1.0, 600
    for k in (2, 8, 32):
        masses = np.array(
            [
                chaos_measure(gaussian_draw(k, RngStream(31 + k, i)), beta).total_mass
                for i in range(draws)
            ]
        )
        stderr = masses.std(ddof=1) / math.sqrt(draws)
        assert abs(masses.mean() - TWO_PI) < 4.0 * stderr


def test_truncated_f_exponent_variance_matches_chaos_field():
    # feeding independent Gaussians T_j = sqrt(j) Z_j into the truncated
    # functional makes log f Gaussian with variance
    # (alpha^2 + beta^2) * (1/2) sum_{j<=k} 1/j  -- the chaos exponent
    # variance at gamma = sqrt(alpha^2 + beta^2).
    from cuechaos import ExponentPair, TraceVector, f_truncated

    p = ExponentPair(0.7, 0.6)
    k, draws, theta = 12, 4000, 1.1
    roots = np.sqrt(np.arange(1, k + 1))
    logs = np.empty(draws)
    for i in range(draws):
        z = gaussian_draw(k, RngStream(55, i)).z
        traces = TraceVector(k, roots * z)
        logs[i] = math.log(f_truncated(traces, theta, p, k))
    target = (p.alpha**2 + p.beta**2) * field_variance(k)
    sample_var = logs.var(ddof=1)
    stderr = sample_var * math.sqrt(2.0 / (draws - 1))
    assert abs(sample_var - target) < 4.0 * stderr
