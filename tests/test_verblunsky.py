"""Tests for the Verblunsky-coefficient backend.

Oracles used here:
  - the CMV matrix built from the same coefficients (Cantero, Moral &
    Velazquez), whose eigenangles go through the EigenSample path: pointwise
    log|p_n|, Im log p_n and traces must agree
  - the Ginibre-QR backend, in law: two-sample KS distances at n = 8
  - the telescoping moment E|p_n|^2 = n + 1
  - for a block of draws, the same draws one at a time: the block draw, its
    traces and f at one angle run the same arithmetic and must agree
    bitwise; the block total mass reads |p_n| off the grid by FFT instead
    of the recursion on grid values, and must agree with integrate_f

Tolerances, fixed before any run: 1e-9 absolute against the CMV oracle; the
two-sample KS critical value c(1e-3) sqrt(2/S), c(a) = sqrt(ln(2/a)/2), with
S = 20 000 draws a side; 3 standard errors for the moment; relative 1e-13
between the FFT and the recursion total masses.
"""

import math

import numpy as np
import pytest

from cuechaos import (
    ExponentPair,
    RngStream,
    SingularityError,
    VerblunskySample,
    charpoly_log,
    f_block,
    f_value,
    integrate_f,
    ks_distance,
    mc_map,
    mc_map_blocks,
    sample_cue,
    sample_verblunsky_block,
    total_mass_block,
    trace_powers,
    uniform_grid,
)

from cmv_oracle import eigen_oracle

TWO_PI = 2.0 * math.pi
ORACLE_ATOL = 1e-9
FFT_MASS_RTOL = 1e-13
LAW_DRAWS = 20_000
KS_BOUND = math.sqrt(math.log(2.0 / 1e-3) / 2.0) * math.sqrt(2.0 / LAW_DRAWS)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
def test_charpoly_matches_cmv_eigenangles(n):
    rng = np.random.default_rng(1000 + n)
    for draw in range(5):
        sample = sample_cue(n, RngStream(41, 10 * n + draw), "verblunsky")
        oracle = eigen_oracle(sample)
        for theta in rng.uniform(0.0, TWO_PI, 8):
            got = charpoly_log(sample, theta)
            want = charpoly_log(oracle, theta)
            assert abs(got[0] - want[0]) <= ORACLE_ATOL
            assert abs(got[1] - want[1]) <= ORACLE_ATOL
        grid = uniform_grid(max(64, 4 * n))
        logabs, imlog = sample.log_charpoly(grid)
        want_abs, want_im = oracle.log_charpoly(grid)
        assert np.max(np.abs(logabs - want_abs)) <= ORACLE_ATOL
        assert np.max(np.abs(imlog - want_im)) <= ORACLE_ATOL


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
def test_traces_match_cmv_eigenangles(n):
    for draw in range(5):
        sample = sample_cue(n, RngStream(43, 10 * n + draw), "verblunsky")
        got = trace_powers(sample, 16).traces
        want = trace_powers(eigen_oracle(sample), 16).traces
        assert np.max(np.abs(got - want)) <= ORACLE_ATOL


def test_branch_is_skipped_without_beta():
    sample = sample_cue(9, RngStream(2, 0), "verblunsky")
    logabs, imlog = sample.log_charpoly(uniform_grid(64), branch=False)
    assert imlog is None and logabs.shape == (64,)
    p = ExponentPair(0.8, 0.0)
    assert f_value(sample, 1.1, p) == math.exp(0.8 * charpoly_log(sample, 1.1)[0])


def test_law_matches_qr_backend_at_one_angle():
    n = 8

    def at_zero(backend):
        def functional(stream):
            return charpoly_log(sample_cue(n, stream, backend), 0.0)

        return functional

    verblunsky, _ = mc_map(at_zero("verblunsky"), LAW_DRAWS, seed=71, dim=2)
    qr, _ = mc_map(at_zero("qr"), LAW_DRAWS, seed=72, dim=2)
    for col in range(2):
        assert ks_distance(verblunsky[:, col], qr[:, col]) < KS_BOUND
    # E|p_n(0)|^2 = n + 1 (the alpha = 2 telescoping product)
    squared = np.exp(2.0 * verblunsky[:, 0])
    stderr = squared.std(ddof=1) / math.sqrt(LAW_DRAWS)
    assert abs(squared.mean() - (n + 1)) <= 3.0 * stderr


def test_large_n_stays_finite():
    n = 4096
    sample = sample_cue(n, RngStream(5, 0), "verblunsky")
    grid = uniform_grid(4 * n)
    logabs, imlog = sample.log_charpoly(grid)
    assert np.all(np.isfinite(logabs)) and np.all(np.isfinite(imlog))
    mass = integrate_f(sample, 1.0, ExponentPair(1.0, 0.5), grid)
    assert np.isfinite(mass) and mass > 0.0


def test_zero_of_p_n_raises_singularity_error():
    # alpha_0 = 1 at n = 1: p_1(theta) = 1 - e^{-i theta} vanishes exactly at 0,
    # and the Verblunsky path does not shift grid nodes
    sample = VerblunskySample(1, np.array([1.0 + 0.0j]))
    with pytest.raises(SingularityError):
        charpoly_log(sample, 0.0)
    with pytest.raises(SingularityError):
        f_value(sample, 0.0, ExponentPair(1.0, 0.5))
    with pytest.raises(SingularityError):
        integrate_f(sample, 1.0, ExponentPair(1.0, 0.0), uniform_grid(8))


def test_invalid_coefficients_rejected():
    VerblunskySample(3, np.array([0.5, -0.9j, 1j]))
    with pytest.raises(ValueError):
        VerblunskySample(3, np.array([1.0, 0.2, 1.0]))  # |alpha_0| = 1
    with pytest.raises(ValueError):
        VerblunskySample(3, np.array([0.1, 1.5j, 1.0]))  # outside the disk
    with pytest.raises(ValueError):
        VerblunskySample(3, np.array([0.1, 0.2, 0.5]))  # last not unimodular
    with pytest.raises(ValueError):
        VerblunskySample(3, np.array([0.1, 1.0]))  # wrong count
    with pytest.raises(ValueError):
        VerblunskySample(0, np.array([]))
    VerblunskySample(3, np.array([[0.5, -0.9j, 1j], [0.0, 0.2, -1.0]]))
    with pytest.raises(ValueError):
        VerblunskySample(3, np.array([[0.5, -0.9j, 1j], [1.0, 0.2, 1.0]]))  # one bad draw


def test_sampler_draw_order_and_reproducibility():
    n = 6
    a = sample_cue(n, RngStream(8, 3), "verblunsky")
    b = sample_cue(n, RngStream(8, 3), "verblunsky")
    assert np.array_equal(a.alphas, b.alphas)
    u = RngStream(8, 3).generator().random(2 * n - 1)
    radii_sq = 1.0 - (1.0 - u[: n - 1]) ** (1.0 / np.arange(n - 1, 0, -1))
    np.testing.assert_allclose(np.abs(a.alphas[:-1]) ** 2, radii_sq, rtol=1e-12)
    np.testing.assert_allclose(np.angle(a.alphas), np.angle(np.exp(TWO_PI * 1j * u[n - 1 :])), atol=1e-12)
    assert abs(abs(a.alphas[-1]) - 1.0) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_block_matches_draws_one_at_a_time(n):
    streams = [RngStream(19, 100 * n + i) for i in range(7)]
    block = sample_verblunsky_block(n, streams)
    draws = [sample_cue(n, stream, "verblunsky") for stream in streams]
    assert block.alphas.shape == (7, n)
    j_max = min(16, n + 3)
    traces = trace_powers(block, j_max).traces
    for p in (ExponentPair(1.0, 0.0), ExponentPair(0.8, -0.7)):
        values = f_block(block, 0.0, p)
        assert values.shape == (7,)
        for i, draw in enumerate(draws):
            assert np.array_equal(block.alphas[i], draw.alphas)
            assert np.array_equal(traces[i], trace_powers(draw, j_max).traces)
            assert values[i] == f_value(draw, 0.0, p)


@pytest.mark.parametrize("n", [1, 2, 17, 128])
def test_block_total_mass_matches_integrate_f(n):
    streams = [RngStream(23, 100 * n + i) for i in range(5)]
    block = sample_verblunsky_block(n, streams)
    p = ExponentPair(0.9, 0.0)
    for grid in (uniform_grid(max(64, 8 * n)), uniform_grid(4 * n + 3) + 0.3):
        masses = total_mass_block(block, p, grid)
        assert masses.shape == (5,)
        for i, stream in enumerate(streams):
            want = integrate_f(sample_cue(n, stream, "verblunsky"), 1.0, p, grid)
            assert abs(masses[i] - want) <= FFT_MASS_RTOL * want


def test_block_total_mass_keeps_the_checks_of_integrate_f():
    block = sample_verblunsky_block(4, [RngStream(1, i) for i in range(3)])
    p = ExponentPair(1.0, 0.0)
    with pytest.raises(ValueError, match="too coarse"):
        total_mass_block(block, p, uniform_grid(15))
    with pytest.raises(ValueError, match="not uniform"):
        total_mass_block(block, p, np.linspace(0.0, 1.0, 64))
    for outside in (ExponentPair(1.0, 0.5), ExponentPair(-0.4, 0.0)):
        with pytest.raises(ValueError, match="beta = 0 and alpha >= 0"):
            total_mass_block(block, outside, uniform_grid(64))
    # p_1(theta) = 1 - e^{-i theta} vanishes at the node theta = 0
    singular = VerblunskySample(1, np.array([[np.exp(0.1j)], [1.0], [1j * np.exp(0.2j)]]))
    with pytest.raises(SingularityError):
        total_mass_block(singular, p, uniform_grid(8))


def test_zero_of_p_n_in_a_block_is_retried():
    # the first stream of sample 3 gets alpha_0 = 1, whose p_1 vanishes on the
    # grid: its block raises, is evaluated index by index, and sample 3 alone
    # moves to its next substream
    p = ExponentPair(1.0, 0.0)
    grid = uniform_grid(8)

    def masses(streams, plant=True):
        alphas = sample_verblunsky_block(1, streams).alphas
        for row, stream in enumerate(streams):
            if plant and stream.stream_id == 3:
                alphas[row] = 1.0
        return total_mass_block(VerblunskySample(1, alphas), p, grid)

    samples = 1100  # one retried sample stays under the 0.1% abort threshold
    values, stats = mc_map_blocks(masses, samples, seed=9)
    clean, clean_stats = mc_map_blocks(lambda s: masses(s, plant=False), samples, seed=9)
    assert stats.retries == 1 and clean_stats.retries == 0
    assert np.array_equal(np.delete(values, 3), np.delete(clean, 3))
    assert values[3] == masses([RngStream(9, 3).substream(1)])[0]
