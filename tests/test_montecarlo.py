"""Tests for the reproducible Monte Carlo engine and the KS statistic.

The worker-invariance checks are bitwise: samples are evaluated and reduced
in index order, so the accepted-but-ignored worker count must not change a
single ulp.
"""

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from cuechaos import (
    MCFailureError,
    RetryableSampleError,
    RngStream,
    as_generator,
    ks_distance,
    mc_map,
    run_mc,
    run_mc_detailed,
)

_INDEX_MASK = (1 << 48) - 1


def _stream_index(stream):
    return stream.stream_id & _INDEX_MASK


def _stream_attempt(stream):
    return stream.stream_id >> 48


def test_stream_reproducible():
    a = RngStream(42, 7).generator().random(5)
    b = RngStream(42, 7).generator().random(5)
    assert np.array_equal(a, b)


def test_streams_distinct_across_ids_and_seeds():
    base = RngStream(42, 0).generator().random(4)
    assert not np.array_equal(base, RngStream(42, 1).generator().random(4))
    assert not np.array_equal(base, RngStream(43, 0).generator().random(4))
    assert not np.array_equal(base, RngStream(42, 0).substream(1).generator().random(4))


def test_substream_ids_disjoint_from_sample_ids():
    # retry streams must never collide with plain sample indices
    s = RngStream(0, 123).substream(3)
    assert _stream_index(s) == 123
    assert _stream_attempt(s) == 3


def test_run_mc_gaussian_mean():
    est = run_mc(lambda s: s.generator().normal(), 4000, seed=1)
    assert abs(est.mean) < 4.0 * est.stderr
    assert est.count == 4000
    assert_allclose(est.stderr, 1.0 / np.sqrt(4000), rtol=0.1)


def test_run_mc_worker_invariance_bitwise():
    def functional(stream):
        g = stream.generator()
        return float(np.sin(g.random()) + g.normal())

    serial = run_mc(functional, 600, seed=9, workers=1)
    threaded = run_mc(functional, 600, seed=9, workers=8)
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr


def test_run_mc_retries_on_flaky_sample():
    def flaky(stream):
        if _stream_index(stream) == 5 and _stream_attempt(stream) == 0:
            raise RetryableSampleError("collision")
        return float(_stream_index(stream))

    est, stats = run_mc_detailed(flaky, 6000, seed=0)
    assert stats.retries == 1
    assert stats.failures == 0
    assert_allclose(est.mean, np.mean(np.arange(6000.0)), rtol=1e-12)

    values, stats = mc_map(lambda s: np.full(3, flaky(s)), 6000, seed=0, dim=3)
    assert values.shape == (6000, 3)
    assert stats.retries == 1
    assert stats.failures == 0
    assert np.array_equal(values[:, 2], np.arange(6000.0))


def test_run_mc_aborts_when_sample_never_succeeds():
    def broken(stream):
        if _stream_index(stream) == 7:
            raise RetryableSampleError("always")
        return 0.0

    with pytest.raises(MCFailureError):
        run_mc_detailed(broken, 100, seed=0)
    with pytest.raises(MCFailureError):
        mc_map(lambda s: np.full(3, broken(s)), 100, seed=0, dim=3)


def test_run_mc_aborts_on_high_retry_rate():
    # 5% of samples needing a retry is no longer a measure-zero accident
    def often_flaky(stream):
        if _stream_index(stream) % 20 == 0 and _stream_attempt(stream) == 0:
            raise RetryableSampleError("too common")
        return 1.0

    with pytest.raises(MCFailureError):
        run_mc_detailed(often_flaky, 2000, seed=0)
    with pytest.raises(MCFailureError):
        mc_map(lambda s: np.full(3, often_flaky(s)), 2000, seed=0, dim=3)


def test_mc_map_shapes_and_index_ranges():
    def functional(stream):
        g = stream.generator()
        return g.normal(size=2)

    values, stats = mc_map(functional, 12, seed=5, dim=2)
    assert values.shape == (12, 2)
    assert stats.retries == 0
    # sample i reads stream (seed, first_index + i), so a shifted range is
    # the tail of a longer run
    tail, _ = mc_map(functional, 7, seed=5, dim=2, first_index=5)
    assert np.array_equal(tail, values[5:])
    scalar, _ = mc_map(lambda s: s.generator().random(), 12, seed=5)
    assert scalar.shape == (12,)
    assert scalar[3] == RngStream(5, 3).generator().random()


def test_as_generator_coercions():
    direct = RngStream(8, 2).generator().random(3)
    assert np.array_equal(as_generator(RngStream(8, 2)).random(3), direct)
    g = np.random.default_rng(0)
    assert as_generator(g) is g
    assert np.array_equal(as_generator(8).random(3), RngStream(8, 0).generator().random(3))
    with pytest.raises(TypeError):
        as_generator("seed")


def test_run_mc_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        run_mc(lambda s: 0.0, 1, seed=0)


def test_unexpected_exception_propagates():
    def bad(stream):
        raise ZeroDivisionError("not retryable")

    with pytest.raises(ZeroDivisionError):
        run_mc(bad, 10, seed=0)


def test_ks_distance_tiny_case_by_hand():
    # F_a jumps at 0 and 1, F_b jumps at 0.5; the sup gap is 1/2
    assert_allclose(ks_distance([0.0, 1.0], [0.5]), 0.5)


def test_ks_distance_identical_samples():
    x = np.linspace(0.0, 1.0, 50)
    assert ks_distance(x, x) == 0.0


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=rng.integers(50, 400))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(50, 400))
        mine = ks_distance(a, b)
        ref = scipy.stats.ks_2samp(a, b).statistic
        assert_allclose(mine, ref, rtol=1e-12)


def test_ks_distance_with_ties_matches_scipy():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 6, 200).astype(float)
    b = rng.integers(0, 6, 150).astype(float)
    assert_allclose(ks_distance(a, b), scipy.stats.ks_2samp(a, b).statistic, rtol=1e-12)


def test_run_mc_constant_functional():
    est = run_mc(lambda stream: 3.25, 50, seed=9)
    assert est.mean == 3.25
    assert est.stderr == 0.0
    assert est.count == 50


def test_run_mc_recovers_gamma_product_mean():
    # E f at theta for n=8, (alpha, beta) = (1, 0.5): the exact value is the
    # Gamma-ratio product validated in the circular-ensemble module tests.
    from cuechaos import ExponentPair, exact_mean_f, f_value, sample_cue

    p = ExponentPair(1.0, 0.5)

    def functional(stream):
        return f_value(sample_cue(8, stream), 0.0, p)

    est = run_mc(functional, 4000, seed=17, workers=2)
    assert abs(est.mean - exact_mean_f(8, p)) < 4.0 * est.stderr


def test_ks_distance_disjoint_supports():
    assert ks_distance([0.0, 1.0, 2.0], [5.0, 6.0]) == 1.0


def test_ks_distance_gaussian_pair_below_critical_value():
    # two-sample KS critical value at level 1e-3 is ~1.95 * sqrt(2/m) = 0.062
    # for m = 2000 per side; a matched pair should sit well below it.
    rng = np.random.default_rng(12)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    assert ks_distance(a, b) < 0.062
