"""Tests for the Verblunsky-coefficient backend.

Oracles used here:
  - the CMV matrix built from the same coefficients (Cantero, Moral &
    Velazquez), whose eigenangles go through the EigenSample path: pointwise
    log|p_n|, Im log p_n and traces must agree
  - the Ginibre-QR backend, in law: two-sample KS distances at n = 8
  - the telescoping moment E|p_n|^2 = n + 1

Tolerances, fixed before any run: 1e-9 absolute against the CMV oracle; the
two-sample KS critical value c(1e-3) sqrt(2/S), c(a) = sqrt(ln(2/a)/2), with
S = 20 000 draws a side; 3 standard errors for the moment.
"""

import math

import numpy as np
import pytest

from cuechaos import (
    EigenSample,
    ExponentPair,
    RngStream,
    SingularityError,
    VerblunskySample,
    charpoly_log,
    f_value,
    integrate_f,
    ks_distance,
    mc_map,
    sample_cue,
    trace_powers,
    uniform_grid,
)

TWO_PI = 2.0 * math.pi
ORACLE_ATOL = 1e-9
LAW_DRAWS = 20_000
KS_BOUND = math.sqrt(math.log(2.0 / 1e-3) / 2.0) * math.sqrt(2.0 / LAW_DRAWS)


def _cmv_matrix(alphas: np.ndarray) -> np.ndarray:
    """C = L M with L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ...
    (direct sums), Theta_k = [[conj a_k, rho_k], [rho_k, -a_k]], and the last
    block the 1 x 1 [conj a_{n-1}]; det(z - C) = Phi_n(z)."""
    n = alphas.size

    def blocks(first: int) -> np.ndarray:
        out = np.zeros((n, n), dtype=complex)
        if first == 1:
            out[0, 0] = 1.0
        for k in range(first, n, 2):
            a = alphas[k]
            if k == n - 1:
                out[k, k] = np.conj(a)
            else:
                rho = math.sqrt(1.0 - abs(a) ** 2)
                out[k : k + 2, k : k + 2] = [[np.conj(a), rho], [rho, -a]]
        return out

    return blocks(0) @ blocks(1)


def _eigen_oracle(sample: VerblunskySample) -> EigenSample:
    cmv = _cmv_matrix(sample.alphas)
    assert np.allclose(cmv @ cmv.conj().T, np.eye(sample.n), atol=1e-12)
    angles = np.mod(np.angle(np.linalg.eigvals(cmv)), TWO_PI)
    return EigenSample(sample.n, np.sort(angles))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
def test_charpoly_matches_cmv_eigenangles(n):
    rng = np.random.default_rng(1000 + n)
    for draw in range(5):
        sample = sample_cue(n, RngStream(41, 10 * n + draw), "verblunsky")
        oracle = _eigen_oracle(sample)
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
        want = trace_powers(_eigen_oracle(sample), 16).traces
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
