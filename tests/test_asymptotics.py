"""Tests for determinant asymptotics and the variance kernel.

The leading checks hold the one Fisher-Hartwig prediction to closed forms
written out by hand: the strong Szego sum n V_0 + sum k V_k V_{-k} when no
singularity is present (complex V included), the Barnes-ratio constant for
one singularity, and (g2/2)(log n - log 2 sin(delta/2)) + 2 log fh_constant
for the symmetric two-singularity symbol.
"""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuechaos import (
    DomainError,
    ExponentPair,
    Singularity,
    SymbolSpec,
    fh_constant,
    fh_prediction,
    make_sigma,
    toeplitz_logdet,
    fourier_coeffs,
    uniform_grid,
    variance_integral,
    variance_kernel,
)

TWO_PI = 2.0 * math.pi


def test_fh_prediction_szego_hand_formula():
    # n v_0 + sum_k k v_k v_{-k}
    v = {0: 0.2, 1: 0.3, -1: 0.3, 2: 0.1, -2: 0.05}
    expected = 10 * 0.2 + 1 * 0.09 + 2 * 0.1 * 0.05
    assert_allclose(fh_prediction(SymbolSpec(v, ()), 10).log_value, expected, rtol=1e-14)


def test_fh_prediction_szego_complex_exponent():
    # the formula holds for complex-valued V: here sum k V_k V_{-k} = 0.12i
    pred = fh_prediction(SymbolSpec({1: 0.3, -1: 0.4j}, ()), 8)
    assert_allclose(pred.log_value, 0.12j, rtol=1e-14)


def test_fh_prediction_empty_singularities_matches_szego():
    v = {0: 0.1, 1: 0.25, -1: 0.25, 3: 0.02, -3: 0.02}
    pred = fh_prediction(SymbolSpec(v, ()), 40)
    assert pred.regime == "szego"
    expected = 40 * 0.1 + 1 * 0.25 * 0.25 + 3 * 0.02 * 0.02
    assert_allclose(pred.log_value.real, expected, rtol=1e-13)
    assert abs(pred.log_value.imag) < 1e-13


def test_fh_prediction_single_singularity_closed_form():
    # V = 0, one singularity (a, 0): log D_n = a^2 log n + log of the
    # Barnes ratio, which equals fh_constant(2a, 0); location-independent
    a = 0.35
    n = 200
    for loc in (0.0, 2.2):
        pred = fh_prediction(SymbolSpec({}, (Singularity(loc, a, 0.0),)), n)
        assert pred.regime == "fh_general"
        assert_allclose(pred.log_leading, a * a * math.log(n), rtol=1e-13)
        assert_allclose(pred.constant.real, fh_constant(2.0 * a, 0.0), rtol=1e-12)
        assert abs(pred.constant.imag) < 1e-13


def test_fh_prediction_matches_merging_for_sigma3():
    # two singularities (alpha/2, -i beta/2) at separation delta:
    # (g2/2)(log n - log 2 sin(delta/2)) + 2 log fh_constant(alpha, beta)
    p = ExponentPair(0.7, 0.4)
    n, delta = 100, 0.8
    spec = make_sigma(3, 1.0, 1.0 + delta, p, 0)
    via_fh = fh_prediction(spec, n).log_value
    expected = 0.5 * p.gamma_sq * (
        math.log(n) - math.log(2.0 * math.sin(0.5 * delta))
    ) + 2.0 * math.log(fh_constant(p.alpha, p.beta))
    assert_allclose(via_fh.real, expected, rtol=1e-12)
    assert abs(via_fh.imag) < 1e-10


def test_merging_prediction_hand_formula():
    # the merging-regime formula at alpha = 1, beta = 0, where g2 = 1
    p = ExponentPair(1.0, 0.0)
    n, delta = 64, 0.5
    expected = 0.5 * (math.log(n) - math.log(2.0 * math.sin(delta / 2.0))) + 2.0 * math.log(
        fh_constant(1.0, 0.0)
    )
    via_fh = fh_prediction(make_sigma(3, 1.0, 1.0 + delta, p, 0), n).log_value
    assert_allclose(via_fh.real, expected, rtol=1e-13)
    assert abs(via_fh.imag) < 1e-10


def test_fh_prediction_against_exact_determinant_smooth_plus_jump():
    # one genuinely complex case: trig background plus a root-jump point
    spec = SymbolSpec(
        {1: 0.2, -1: 0.2},
        (Singularity(1.3, 0.25, 0.15),),
    )
    n = 192
    exact = toeplitz_logdet(fourier_coeffs(spec, n - 1), n).log_det
    pred = fh_prediction(spec, n).log_value
    assert abs(cmath.exp(exact - pred) - 1.0) < 0.05


def test_fh_prediction_domain_errors():
    with pytest.raises(DomainError):
        fh_prediction(SymbolSpec({}, (Singularity(0.0, -0.6, 0.0),)), 10)
    with pytest.raises(DomainError):  # beta spread 1.2 >= 1
        fh_prediction(
            SymbolSpec({}, (Singularity(0.0, 0.2, 0.6), Singularity(1.0, 0.2, -0.6))), 10
        )
    with pytest.raises(DomainError):  # G(1 + alpha - beta) pole at 0
        fh_prediction(SymbolSpec({}, (Singularity(0.0, 0.0, 1.0),)), 10)


def test_variance_kernel_definition():
    gamma_sq, k = 1.0, 12
    for delta in (0.3, 1.0, 2.5, 5.0):
        direct = (2.0 * math.sin(delta / 2.0)) ** (-0.5 * gamma_sq) - math.exp(
            0.5 * gamma_sq * sum(math.cos(j * delta) / j for j in range(1, k + 1))
        )
        assert_allclose(variance_kernel(delta, gamma_sq, k), direct, rtol=1e-12)


def test_variance_kernel_vectorized_and_symmetric():
    deltas = np.array([0.4, 1.2, 2.0])
    vals = variance_kernel(deltas, 1.0, 9)
    assert vals.shape == deltas.shape
    assert_allclose(
        variance_kernel(deltas, 1.0, 9), variance_kernel(TWO_PI - deltas, 1.0, 9), rtol=1e-11
    )


def test_variance_kernel_decays_pointwise():
    assert abs(variance_kernel(math.pi, 1.0, 10000)) < 1e-3
    assert abs(variance_kernel(math.pi, 1.0, 10000)) < abs(variance_kernel(math.pi, 1.0, 10))


def test_variance_kernel_domain():
    with pytest.raises(ValueError):
        variance_kernel(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        variance_kernel(TWO_PI, 1.0, 5)
    with pytest.raises(ValueError):
        variance_kernel(1.0, 2.0, 5)


def test_variance_integral_decreases_in_truncation():
    grid = uniform_grid(4096)
    small = variance_integral(1.0, 1.0, 4, grid)
    large = variance_integral(1.0, 1.0, 16, grid)
    assert large < small


def test_variance_integral_diag_bound_and_zero_weight():
    grid = uniform_grid(2048)
    value, bound = variance_integral(1.0, 1.0, 8, grid, return_diag_bound=True)
    assert np.isfinite(value) and bound >= 0.0
    assert variance_integral(0.0, 1.0, 8, grid) == 0.0


def test_variance_integral_accepts_callable_weight():
    grid = uniform_grid(2048)
    const = variance_integral(1.0, 1.0, 8, grid)
    call = variance_integral(lambda t: np.ones_like(t), 1.0, 8, grid)
    assert_allclose(call, const, rtol=1e-12)


def test_fh_prediction_sigma1_diagonal_harmonic_sum():
    # sigma1 at theta = theta' has V_j = -(alpha - i beta) e^{-ij theta}/j, so
    # sum j V_j V_{-j} = (alpha^2 + beta^2) H_k with no n-dependent term.
    p = ExponentPair(0.7, 0.4)
    k = 25
    spec = make_sigma(1, 1.3, 1.3, p, k)
    harmonic = sum(1.0 / j for j in range(1, k + 1))
    expected = (p.alpha**2 + p.beta**2) * harmonic
    for n in (4, 64):
        assert_allclose(fh_prediction(SymbolSpec(spec.v_coeffs, ()), n).log_value, expected, rtol=1e-12)


def test_fh_prediction_exponent_two_ratio_approaches_one():
    # singularity (alpha/2, -i beta/2) with (alpha, beta) = (2, 0) predicts
    # exactly n (fh_constant(2, 0) = 1); the exact mean is n + 1.
    from cuechaos import exact_mean_f

    spec = SymbolSpec({}, (Singularity(0.9, 1.0, 0.0),))
    for n in (10, 500):
        pred = fh_prediction(spec, n)
        assert_allclose(pred.log_value.real, math.log(n), rtol=1e-12)
        assert abs(pred.log_value.imag) < 1e-12
        exact = exact_mean_f(n, ExponentPair(2.0, 0.0))
        assert_allclose(exact, n + 1.0, rtol=1e-12)
        assert abs(math.exp(pred.log_value.real) / exact - 1.0) <= 1.0 / n


def test_fh_prediction_conjugate_pair_constant_is_real():
    # sigma3 carries the conjugate singularity data (alpha/2, -i beta/2) at
    # both angles; the determinant is real, so the constant must be too.
    spec = make_sigma(3, 0.4, 2.1, ExponentPair(0.6, 0.8), 0)
    pred = fh_prediction(spec, 128)
    assert abs(pred.constant.imag) < 1e-10
    assert abs(pred.log_value.imag) < 1e-10


def test_variance_kernel_zero_gamma_vanishes():
    deltas = np.array([0.2, 1.0, math.pi, 5.5])
    assert_allclose(variance_kernel(deltas, 0.0, 30), np.zeros(4), atol=1e-15)


def test_variance_kernel_empty_truncation_closed_form():
    for delta in (0.5, 2.0):
        expected = (2.0 * math.sin(delta / 2.0)) ** (-0.65) - 1.0
        assert_allclose(variance_kernel(delta, 1.3, 0), expected, rtol=1e-12)


def test_variance_kernel_converges_at_generic_angle():
    # sum cos(j delta)/j -> -log(2 sin(delta/2)) makes both terms agree
    assert abs(variance_kernel(1.0, 1.3, 10000)) < 1e-3
    assert abs(variance_kernel(1.0, 1.3, 10000)) < abs(variance_kernel(1.0, 1.3, 10))
