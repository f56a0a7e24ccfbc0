"""Tests for circular-ensemble sampling and characteristic-polynomial statistics.

Oracles used here:
  - hand evaluation of the n=1 branch formulas  [TRIVIAL]
  - direct complex product of (1 - e^{i(angle - theta)}) for the modulus
  - 1-d and 2-d quadrature of the joint eigenangle density for small-n moments
  - the telescoping rational product for the (alpha, beta) = (2, 0) moment
  - a frozen multiprecision value of sinh(pi/2)/(pi/2) for n = 1
"""

import math

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from cuechaos import (
    EigenSample,
    ExponentPair,
    RngStream,
    SingularityError,
    charpoly_log,
    exact_mean_f,
    f_truncated,
    f_value,
    integrate_f,
    run_mc_detailed,
    sample_cue,
    trace_powers,
    uniform_grid,
)

TWO_PI = 2.0 * math.pi
SINH_RATIO = 1.4650523833366348776  # sinh(pi/2)/(pi/2), frozen multiprecision


def test_eigen_sample_validation():
    EigenSample(3, np.array([0.1, 0.2, 6.0]))
    with pytest.raises(ValueError):
        EigenSample(3, np.array([0.2, 0.1, 6.0]))  # unsorted
    with pytest.raises(ValueError):
        EigenSample(3, np.array([0.1, 0.1, 6.0]))  # tie
    with pytest.raises(ValueError):
        EigenSample(3, np.array([-0.1, 0.2, 6.0]))  # below range
    with pytest.raises(ValueError):
        EigenSample(2, np.array([0.1, 0.2, 0.3]))  # wrong count


def test_exponent_pair_domain_flags():
    assert ExponentPair(1.0, 0.0).gamma_sq == 1.0
    assert ExponentPair(1.0, 0.9).in_main_domain
    assert not ExponentPair(1.5, 0.0).in_main_domain  # gamma^2 > 2... no: 2.25
    assert not ExponentPair(-0.6, 0.0).in_main_domain  # alpha <= -1/2


def test_sampler_reproducible_and_in_range():
    a = sample_cue(16, RngStream(5, 3))
    b = sample_cue(16, RngStream(5, 3))
    assert np.array_equal(a.angles, b.angles)
    assert a.n == 16
    assert np.all(np.diff(a.angles) > 0)
    assert a.angles[0] >= 0.0 and a.angles[-1] < TWO_PI


def test_sampler_backends_produce_valid_samples():
    smp = sample_cue(12, RngStream(1, 0), "qr")
    assert smp.n == 12
    assert np.all((smp.angles >= 0.0) & (smp.angles < TWO_PI))
    for backend in ("kernel", "nope"):
        with pytest.raises(ValueError):
            sample_cue(4, RngStream(0, 0), backend)


def test_charpoly_log_single_eigenvalue_by_hand():
    # one eigenangle at phi, evaluated at theta: x = (phi - theta) mod 2pi,
    # log|p| = log(2 sin(x/2)) and the branch term is (x - pi)/2
    phi, theta = 2.0, 0.5
    x = phi - theta
    logabs, imlog = charpoly_log(EigenSample(1, np.array([phi])), theta)
    assert_allclose(logabs, math.log(2.0 * math.sin(x / 2.0)), rtol=1e-14)
    assert_allclose(imlog, (x - math.pi) / 2.0, rtol=1e-14)


def test_charpoly_branch_endpoints_n1():
    # x = (angle - theta) mod 2pi; x -> 0+ gives branch -> -pi/2 because
    # 1 - e^{ix} ~ x e^{-i pi/2}, while x -> 2pi- gives +pi/2
    smp = EigenSample(1, np.array([1.0]))
    _, just_below = charpoly_log(smp, 1.0 - 1e-9)  # x small positive
    _, just_above = charpoly_log(smp, 1.0 + 1e-9)  # x just under 2pi
    assert_allclose(just_below, -math.pi / 2.0, atol=1e-8)
    assert_allclose(just_above, math.pi / 2.0, atol=1e-8)


def test_charpoly_branch_jump_is_pi_across_eigenangle():
    smp = sample_cue(8, RngStream(3, 1))
    eps = 1e-9
    for k in (0, 3, 7):
        t = smp.angles[k]
        _, below = charpoly_log(smp, t - eps)
        _, above = charpoly_log(smp, t + eps)
        assert_allclose(above - below, math.pi, atol=1e-6)


def test_charpoly_modulus_matches_direct_product():
    # exp(sum of log|1 - e^{i(angle-theta)}|) vs the direct complex product
    rng = np.random.default_rng(17)
    for n in (2, 8, 33, 64):
        smp = sample_cue(n, RngStream(11, n))
        for theta in rng.uniform(0.0, TWO_PI, 4):
            logabs, _ = charpoly_log(smp, theta)
            direct = np.abs(np.prod(1.0 - np.exp(1j * (smp.angles - theta))))
            assert abs(math.exp(logabs) / direct - 1.0) < 1e-8


def test_charpoly_collision_raises():
    smp = sample_cue(6, RngStream(0, 0))
    with pytest.raises(SingularityError):
        charpoly_log(smp, float(smp.angles[2]))
    with pytest.raises(SingularityError):
        f_value(smp, float(smp.angles[0]) + 5e-13, ExponentPair(1.0, 0.0))


def test_trace_powers_matches_direct_sums():
    smp = sample_cue(9, RngStream(21, 4))
    tr = trace_powers(smp, 6)
    assert tr.j_max == 6
    for j in range(1, 7):
        direct = np.sum(np.exp(1j * j * smp.angles))
        assert abs(tr.traces[j - 1] - direct) < 1e-12


def test_f_value_assembles_from_charpoly_log():
    smp = sample_cue(5, RngStream(2, 2))
    p = ExponentPair(0.7, -0.4)
    logabs, imlog = charpoly_log(smp, 1.3)
    assert_allclose(f_value(smp, 1.3, p), math.exp(0.7 * logabs - 0.4 * imlog), rtol=1e-13)


def test_f_truncated_matches_trace_formula():
    # definitional identity: f^(k) = exp(-sum_{j<=k} Re[(alpha - i beta) T_j e^{-ij theta}]/j)
    smp = sample_cue(6, RngStream(8, 0))
    p = ExponentPair(1.0, 0.5)
    theta, k = 2.1, 12
    tr = trace_powers(smp, k)
    acc = 0.0
    for j in range(1, k + 1):
        t_j = np.sum(np.exp(1j * j * smp.angles))
        acc += ((1.0 - 0.5j) * t_j * np.exp(-1j * j * theta)).real / j
    assert_allclose(f_truncated(tr, theta, p, k), math.exp(-acc), rtol=1e-12)


def test_f_truncated_converges_to_f_value():
    smp = sample_cue(4, RngStream(2, 0))
    theta = 0.5 * float(smp.angles[1] + smp.angles[2])  # mid-gap
    p = ExponentPair(1.0, 0.5)
    exact = f_value(smp, theta, p)
    tr = trace_powers(smp, 4000)
    coarse = abs(f_truncated(tr, theta, p, 200) / exact - 1.0)
    fine = abs(f_truncated(tr, theta, p, 4000) / exact - 1.0)
    assert coarse < 5e-2
    assert fine < 5e-3  # conditional convergence: small but not monotone in k


def test_exact_mean_special_case_alpha2():
    # telescoping oracle: product of Gamma(j)Gamma(j+2)/Gamma(j+1)^2 = n+1
    for n in range(1, 101):
        assert abs(exact_mean_f(n, ExponentPair(2.0, 0.0)) - (n + 1)) < 1e-10 * (n + 1)


def test_exact_mean_n1_frozen_and_trivial():
    assert_allclose(exact_mean_f(1, ExponentPair(0.0, 1.0)), SINH_RATIO, rtol=1e-12)
    assert_allclose(exact_mean_f(1, ExponentPair(2.0, 0.0)), 2.0, rtol=1e-12)
    assert_allclose(exact_mean_f(1, ExponentPair(0.0, 0.0)), 1.0, rtol=1e-13)


def test_exact_mean_n1_quadrature_oracle():
    # (1/2pi) \int (2 sin(x/2))^alpha e^{beta (x - pi)/2} dx on (0, 2pi)
    for alpha, beta in [(0.7, 0.9), (-0.3, 0.4), (1.5, -1.1)]:
        integrand = lambda x: (2.0 * math.sin(x / 2.0)) ** alpha * math.exp(beta * (x - math.pi) / 2.0)
        quad, _ = scipy.integrate.quad(integrand, 0.0, TWO_PI, limit=200)
        assert_allclose(exact_mean_f(1, ExponentPair(alpha, beta)), quad / TWO_PI, rtol=1e-8)


def test_exact_mean_n2_quadrature_oracle():
    # midpoint rule on the two-eigenangle joint density
    m = 1200
    x = (np.arange(m) + 0.5) * (TWO_PI / m)
    t1, t2 = np.meshgrid(x, x, indexing="ij")
    weyl = np.abs(np.exp(1j * t1) - np.exp(1j * t2)) ** 2 / (2.0 * TWO_PI**2)
    for alpha, beta in [(1.0, 0.0), (0.8, 0.6)]:
        per = lambda t: (2.0 * np.sin(t / 2.0)) ** alpha * np.exp(beta * (t - np.pi) / 2.0)
        quad = float(np.sum(weyl * per(t1) * per(t2))) * (TWO_PI / m) ** 2
        assert_allclose(exact_mean_f(2, ExponentPair(alpha, beta)), quad, rtol=1e-4)


def test_exact_mean_rejects_bad_alpha():
    with pytest.raises(ValueError):
        exact_mean_f(4, ExponentPair(-1.0, 0.0))


def test_rotation_invariance_of_mean():
    # the law of f(theta) does not depend on theta
    p = ExponentPair(1.0, 0.0)
    est0, _ = run_mc_detailed(lambda s: f_value(sample_cue(4, s), 0.0, p), 3000, seed=31)
    est1, _ = run_mc_detailed(lambda s: f_value(sample_cue(4, s), 1.0, p), 3000, seed=77)
    gap = abs(est0.mean - est1.mean)
    assert gap <= 3.0 * math.hypot(est0.stderr, est1.stderr)


def test_integrate_f_mean_mass_near_2pi():
    p = ExponentPair(1.0, 0.0)
    est, _ = run_mc_detailed(lambda s: integrate_f(sample_cue(4, s), 1.0, p), 1500, seed=5)
    assert abs(est.mean - TWO_PI) <= 3.0 * est.stderr


def test_integrate_f_accepts_callable_weight():
    smp = sample_cue(4, RngStream(9, 9))
    p = ExponentPair(1.0, 0.0)
    grid = uniform_grid(512)
    whole = integrate_f(smp, lambda t: np.ones_like(t), p, grid)
    const = integrate_f(smp, 1.0, p, grid)
    assert_allclose(whole, const, rtol=1e-13)


def test_integrate_f_shifts_colliding_grid_node():
    # put an eigenangle exactly on a node of the default grid
    grid = uniform_grid(512)
    angles = np.sort(np.array([grid[100], 1.7, 3.1, 5.9]))
    smp = EigenSample(4, angles)
    value = integrate_f(smp, 1.0, ExponentPair(1.0, 0.0), grid)
    assert np.isfinite(value) and value > 0.0


def test_integrate_f_rejects_coarse_grid():
    with pytest.raises(ValueError):
        integrate_f(sample_cue(32, RngStream(0, 0)), 1.0, ExponentPair(1.0, 0.0), uniform_grid(64))
