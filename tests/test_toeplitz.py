"""Tests for symbol evaluation, Fourier coefficients, and Toeplitz determinants.

Coefficient oracles: the binomial formula for a pure |z - z0|^{2a} symbol,
the modified-Bessel generating function for e^{c(z + 1/z)}, and the complex
FFT of the symbol on the same nodes.  Determinant oracles: numpy's slogdet
on an explicitly assembled matrix, dense LU (toeplitz_logdet) for the
Levinson sweep (toeplitz_logdets), and the closed form
prod_{j<=n} Gamma(j) Gamma(j+2a) / Gamma(j+a)^2 for a single root.  The
sigma symbol families are checked against hand-expanded closed forms.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from cuechaos import (
    ExponentPair,
    FourierCoeffs,
    RngStream,
    Singularity,
    SingularityError,
    SymbolSpec,
    fourier_coeffs,
    grid_series,
    heine_szego_check,
    make_sigma,
    symbol_eval,
    toeplitz_logdet,
    toeplitz_logdets,
)

TWO_PI = 2.0 * math.pi


def _logdet_oracle(coeffs, n):
    matrix = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            matrix[j, k] = coeffs.get(k - j)
    sign, logabs = np.linalg.slogdet(matrix)
    return sign, logabs


def test_singularity_validation():
    Singularity(1.0, 0.3, -0.25j)
    with pytest.raises(ValueError):
        Singularity(-0.5, 0.3, 0.0)  # location out of [0, 2pi)
    with pytest.raises(ValueError):
        Singularity(7.0, 0.3, 0.0)


def test_symbol_spec_rejects_coincident_singularities():
    with pytest.raises(ValueError):
        SymbolSpec({}, (Singularity(1.0, 0.2, 0.0), Singularity(1.0, 0.3, 0.0)))


def test_symbol_eval_smooth_exponential():
    spec = SymbolSpec({1: 0.3, -1: 0.3}, ())
    phi = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    assert_allclose(symbol_eval(spec, phi), np.exp(0.6 * np.cos(phi)), rtol=1e-13)
    assert_allclose(symbol_eval(spec, 1.0), math.exp(0.6 * math.cos(1.0)), rtol=1e-13)


def test_symbol_eval_pure_root_singularity():
    a = 0.4
    spec = SymbolSpec({}, (Singularity(0.0, a, 0.0),))
    phi = np.linspace(0.1, TWO_PI - 0.1, 25)
    assert_allclose(
        symbol_eval(spec, phi).real, np.abs(2.0 * np.sin(phi / 2.0)) ** (2.0 * a), rtol=1e-12
    )
    assert_allclose(symbol_eval(spec, phi).imag, 0.0, atol=1e-14)


def test_symbol_eval_pure_jump():
    # a real jump exponent gives |f| = 1 and ratio e^{-2 i pi b} across the jump
    b = 0.3
    loc = 2.0
    spec = SymbolSpec({}, (Singularity(loc, 0.0, b),))
    phi = np.array([0.5, 1.9, 2.1, 5.0])
    vals = symbol_eval(spec, phi)
    assert_allclose(np.abs(vals), 1.0, rtol=1e-13)
    ratio = symbol_eval(spec, loc + 1e-9) / symbol_eval(spec, loc - 1e-9)
    assert abs(ratio - cmath.exp(-2j * math.pi * b)) < 1e-7


def test_symbol_eval_negative_alpha_at_singularity_raises():
    spec = SymbolSpec({}, (Singularity(1.0, -0.2, 0.0),))
    with pytest.raises(SingularityError):
        symbol_eval(spec, 1.0)
    assert np.isfinite(symbol_eval(spec, 1.1))


def _sigma2_direct(phi, theta, theta2, alpha, beta, k):
    """Hand-expanded sigma2: truncated trig part at theta, singular factor at
    theta2 with the (alpha/2, -i beta/2) exponent pair."""
    phi = np.mod(np.asarray(phi, dtype=float), TWO_PI)
    trig = np.zeros_like(phi)
    for j in range(1, k + 1):
        trig -= np.real((alpha - 1j * beta) * np.exp(1j * j * (phi - theta))) / j
    dist = np.abs(2.0 * np.sin(0.5 * (phi - theta2))) ** alpha
    side = np.where(phi < theta2, 0.5 * math.pi * beta, -0.5 * math.pi * beta)
    return np.exp(trig) * dist * np.exp(0.5 * beta * (phi - theta2) + side)


def test_sigma1_matches_truncated_product_form():
    theta, theta2, k = 0.7, 2.9, 40
    p = ExponentPair(0.8, 0.5)
    spec = make_sigma(1, theta, theta2, p, k)
    phi = np.linspace(0.0, TWO_PI, 31, endpoint=False) + 0.013
    direct = np.ones_like(phi)
    for t in (theta, theta2):
        acc = np.zeros_like(phi)
        for j in range(1, k + 1):
            acc -= np.real((0.8 - 0.5j) * np.exp(1j * j * (phi - t))) / j
        direct = direct * np.exp(acc)
    vals = symbol_eval(spec, phi)
    assert_allclose(vals.real, direct, rtol=1e-12)
    assert_allclose(vals.imag, 0.0, atol=1e-13)


def test_sigma2_matches_hand_expansion():
    theta, theta2, k = 0.7, 2.9, 25
    p = ExponentPair(0.8, 0.5)
    spec = make_sigma(2, theta, theta2, p, k)
    phi = np.linspace(0.0, TWO_PI, 37, endpoint=False) + 0.029
    assert_allclose(
        symbol_eval(spec, phi), _sigma2_direct(phi, theta, theta2, 0.8, 0.5, k), rtol=1e-12
    )


def test_sigma3_matches_product_of_singular_factors():
    theta, theta2 = 0.7, 2.9
    p = ExponentPair(0.8, 0.5)
    spec = make_sigma(3, theta, theta2, p, 0)
    phi = np.linspace(0.0, TWO_PI, 33, endpoint=False) + 0.017
    direct = np.ones_like(phi, dtype=complex)
    for t in (theta, theta2):
        dist = np.abs(2.0 * np.sin(0.5 * (phi - t))) ** 0.8
        side = np.where(phi < t, 0.5 * math.pi * 0.5, -0.5 * math.pi * 0.5)
        direct = direct * dist * np.exp(0.25 * (phi - t) + side)
    assert_allclose(symbol_eval(spec, phi), direct, rtol=1e-12)


def test_sigma3_requires_distinct_angles():
    with pytest.raises(ValueError):
        make_sigma(3, 1.0, 1.0, ExponentPair(0.5, 0.0), 0)


def test_fourier_coeffs_binomial_oracle():
    # |z - 1|^{2a} has c_k = (-1)^k * binom(2a, a + k)
    a = 0.3
    spec = SymbolSpec({}, (Singularity(0.0, a, 0.0),))
    coeffs = fourier_coeffs(spec, 5)
    for k in range(-5, 6):
        oracle = (-1.0) ** k * scipy.special.binom(2.0 * a, a + k)
        assert abs(coeffs.get(k) - oracle) < 1e-10


def test_fourier_coeffs_bessel_oracle():
    # e^{c(z + 1/z)} has c_k = I_k(2c)
    c = 0.3
    spec = SymbolSpec({1: c, -1: c}, ())
    coeffs = fourier_coeffs(spec, 6)
    for k in range(-6, 7):
        assert abs(coeffs.get(k) - scipy.special.iv(k, 2.0 * c)) < 1e-13


def test_fourier_coeffs_index_conventions():
    # c_k of e^{i phi} is the k=1 indicator
    spec = SymbolSpec({1: 1.0}, ())
    got = fourier_coeffs(SymbolSpec({}, (Singularity(0.0, 0.2, 0.0),)), 2)
    assert isinstance(got, FourierCoeffs)
    assert got.order == 2
    assert got[0] == got.get(0)
    with pytest.raises(IndexError):
        got.get(3)
    del spec


def test_fourier_coeffs_doubling_stability():
    # sigma2 coefficients settle well below 1e-7 between 2^19 and 2^20 nodes
    spec = make_sigma(2, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.3), 200)
    coarse = fourier_coeffs(spec, 64, 1 << 19)
    fine = fourier_coeffs(spec, 64, 1 << 20)
    gap = np.max(np.abs(coarse.values - fine.values))
    assert gap < 1e-7


def test_fourier_coeffs_matches_direct_transform_of_symbol_values():
    # sigma2 with a 200-mode trig part: fourier_coeffs sums V by inverse FFT,
    # the oracle takes symbol_eval on the same midpoint nodes and np.fft.fft
    spec = make_sigma(2, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.3), 200)
    size, order = 1 << 14, 64
    offset = 0.5 * TWO_PI / size  # pi/2 lies on the integer grid, off every midpoint
    values = symbol_eval(spec, np.arange(size) * (TWO_PI / size) + offset)
    transform = np.fft.fft(values) / size
    ks = np.arange(-order, order + 1)
    oracle = np.exp(-1j * ks * offset) * transform[np.mod(ks, size)]
    got = fourier_coeffs(spec, order, size).values
    assert_allclose(got, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


def test_fourier_coeffs_skips_the_exponent_factor_when_v_is_zero(monkeypatch):
    """sigma3 has V = 0: no inverse FFT of V.  The coefficients are those of
    multiplying by exp(grid_series([0], N, offset)) = 1 + 0j and taking a
    complex FFT, to rtol 1e-13 and atol 1e-13 max|c| (the real transform
    rounds differently from the complex one)."""
    import cuechaos.toeplitz

    spec = make_sigma(3, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.2), 0)
    size, order = 1 << 14, 64
    offset = 0.5 * TWO_PI / size  # both singularities lie on the integer grid
    values = symbol_eval(spec, np.arange(size) * (TWO_PI / size) + offset)
    values *= np.exp(grid_series(np.zeros(1), size, offset))
    transform = np.fft.fft(values)
    ks = np.arange(-order, order + 1)
    oracle = np.exp(-1j * ks * offset) * transform[np.mod(ks, size)] / size

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return grid_series(*args, **kwargs)

    monkeypatch.setattr(cuechaos.toeplitz, "grid_series", spy)
    got = fourier_coeffs(spec, order, size).values
    assert calls == []
    assert_allclose(got, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())
    fourier_coeffs(make_sigma(2, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.2), 8), order, size)
    assert len(calls) == 1  # the spy sees a symbol with V != 0


def test_fourier_coeffs_warns_on_risky_quadrature():
    spec = SymbolSpec({}, (Singularity(1.0, -0.3, 0.0),))
    with pytest.warns(UserWarning):
        fourier_coeffs(spec, 4, 1 << 14)


def test_toeplitz_logdet_identity_symbol():
    values = np.zeros(9, dtype=complex)
    values[4] = 1.0  # c_0 = 1, all others 0
    coeffs = FourierCoeffs(order=4, values=values)
    for n in (1, 2, 5):
        assert abs(toeplitz_logdet(coeffs, n).log_det) < 1e-14


def test_toeplitz_logdet_small_sizes_vs_slogdet():
    spec = make_sigma(2, 0.3, 2.0, ExponentPair(0.7, 0.4), 60)
    coeffs = fourier_coeffs(spec, 7, 1 << 16)
    for n in range(1, 9):
        result = toeplitz_logdet(coeffs, n)
        sign, logabs = _logdet_oracle(coeffs, n)
        assert_allclose(result.log_det.real, logabs, rtol=1e-10, atol=1e-12)
        assert abs(cmath.exp(1j * result.log_det.imag) - sign) < 1e-8


def test_toeplitz_logdet_positive_symbol_real():
    spec = SymbolSpec({1: 0.3, -1: 0.3}, ())
    coeffs = fourier_coeffs(spec, 20)
    result = toeplitz_logdet(coeffs, 12)
    assert abs(result.log_det.imag) < 1e-10


def test_toeplitz_logdet_strong_szego_limit_smoke():
    # log D_n for e^{0.6 cos} converges (superexponentially) to 0.3^2 = 0.09
    spec = SymbolSpec({1: 0.3, -1: 0.3}, ())
    coeffs = fourier_coeffs(spec, 20)
    assert abs(toeplitz_logdet(coeffs, 16).log_det.real - 0.09) < 1e-8


def test_toeplitz_logdet_needs_enough_coefficients():
    coeffs = fourier_coeffs(SymbolSpec({1: 0.3, -1: 0.3}, ()), 4)
    with pytest.raises(ValueError):
        toeplitz_logdet(coeffs, 6)
    with pytest.raises(ValueError):
        toeplitz_logdet(fourier_coeffs(SymbolSpec({}, ()), 0), 2000)  # above size cap


def test_determinant_translation_invariance():
    # rotating every marked angle by delta leaves the determinant unchanged
    p = ExponentPair(0.6, 0.3)
    delta = 0.83
    base = make_sigma(3, 0.4, 0.4 + 0.5 * math.pi, p, 0)
    moved = make_sigma(3, 0.4 + delta, 0.4 + delta + 0.5 * math.pi, p, 0)
    n = 32
    d_base = toeplitz_logdet(fourier_coeffs(base, n - 1), n).log_det
    d_moved = toeplitz_logdet(fourier_coeffs(moved, n - 1), n).log_det
    # residual is quadrature noise in the singular-coefficient transform,
    # amplified by the size-32 determinant; observed ~8e-8 at 2^20 nodes
    assert abs(cmath.exp(d_moved - d_base) - 1.0) < 1e-6


def test_heine_szego_check_small_case():
    spec = SymbolSpec({1: 0.2, -1: 0.2}, ())
    estimate, det = heine_szego_check(spec, 3, 4000, RngStream(15, 0))
    assert abs(estimate.mean - det) <= 4.0 * estimate.stderr
    assert det > 0.0


def test_heine_szego_check_stream_contract():
    spec = SymbolSpec({1: 0.2, -1: 0.2}, ())
    with pytest.raises(ValueError):
        heine_szego_check(spec, 3, 100, RngStream(15, 4))
    with pytest.raises(ValueError):
        heine_szego_check(spec, 17, 100, RngStream(15, 0))


def test_sigma3_determinant_real_positive():
    # sigma3 with real (alpha, beta) is the expectation of a positive random
    # variable, so every finite determinant is real positive.
    spec = make_sigma(3, 0.5, 2.3, ExponentPair(0.8, 0.5), 0)
    coeffs = fourier_coeffs(spec, 15)
    for n in (4, 16):
        log_det = toeplitz_logdet(coeffs, n).log_det
        assert abs(log_det.imag) < 1e-8


def test_sigma1_family_determinants_monotone_in_size():
    # real symbol e^L with zero constant coefficient: D_{n-1} <= D_n
    spec = make_sigma(1, 0.3, 1.7, ExponentPair(0.8, 0.5), 40)
    assert 0 not in spec.v_coeffs
    coeffs = fourier_coeffs(spec, 15)
    logs = [toeplitz_logdet(coeffs, n).log_det.real for n in range(1, 17)]
    assert np.all(np.diff(logs) >= -1e-12)


def _complex_transform(spec, order, size, offset):
    """The complex-FFT coefficients on the midpoint nodes: symbol_eval of the
    singular factors times exp(grid_series(V)), then np.fft.fft."""
    nodes = np.arange(size) * (TWO_PI / size) + offset
    values = symbol_eval(SymbolSpec({}, spec.singularities), nodes)
    values = values * np.exp(grid_series(spec.v_dense, size, offset))
    ks = np.arange(-order, order + 1)
    return np.exp(-1j * ks * offset) * np.fft.fft(values)[np.mod(ks, size)] / size


@pytest.mark.parametrize(
    "spec",
    [
        make_sigma(1, 0.3, 1.7, ExponentPair(0.8, 0.5), 200),
        make_sigma(2, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.3), 200),
        make_sigma(3, 0.0, 0.5 * math.pi, ExponentPair(0.8, 0.5), 0),
        SymbolSpec({}, (Singularity(0.5 * math.pi, 0.45, 0.0),)),
    ],
    ids=["sigma1", "sigma2", "sigma3", "single-root"],
)
def test_hermitian_coefficients_match_the_complex_transform(spec):
    """A symbol real on the circle goes through the real log-symbol and one
    rfft: its coefficients are exactly Hermitian, c_{-k} = conj(c_k), and
    equal the complex FFT of the symbol on the same nodes to rtol 1e-13 and
    atol 1e-13 max|c|."""
    size, order = 1 << 14, 64
    offset = 0.5 * TWO_PI / size  # 0 and pi/2 lie on the integer grid, off every midpoint
    got = fourier_coeffs(spec, order, size).values
    np.testing.assert_array_equal(got, got[::-1].conj())
    oracle = _complex_transform(spec, order, size, offset)
    assert_allclose(got, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())


_SWEEP_SYMBOLS = {
    "sigma1": make_sigma(1, 0.3, 1.7, ExponentPair(0.8, 0.5), 40),
    "sigma2": make_sigma(2, 0.7, 2.9, ExponentPair(0.9, 0.0), 200),
    "sigma3-beta0": make_sigma(3, 0.5, 2.3, ExponentPair(0.8, 0.0), 0),
    "sigma3-beta": make_sigma(3, 0.5, 2.3, ExponentPair(0.8, 0.5), 0),
    "single-root": SymbolSpec({}, (Singularity(1.3, 0.45, 0.0),)),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_SYMBOLS))
def test_levinson_sweep_matches_lu(name, monkeypatch):
    """The one Levinson sweep against dense LU at n in {1, 2, 64, 1024},
    within 1e-10 absolute, from one coefficient set; the sweep itself calls
    no LU, and its Im log D_n is exactly 0."""
    import cuechaos.toeplitz

    sizes = [1, 2, 64, 1024]
    coeffs = fourier_coeffs(_SWEEP_SYMBOLS[name], max(sizes) - 1)
    lu = [toeplitz_logdet(coeffs, n).log_det for n in sizes]
    calls = []
    monkeypatch.setattr(cuechaos.toeplitz, "toeplitz_logdet", lambda *a: calls.append(a))
    results = toeplitz_logdets(coeffs, sizes)
    assert calls == []
    assert [r.n for r in results] == sizes
    for result, want in zip(results, lu):
        assert result.log_det.imag == 0.0
        assert abs(result.log_det - want) < 1e-10


def test_levinson_sweep_single_root_closed_form():
    """|z - z0|^{2a} at a = 0.45: log D_n within 1e-6 of
    sum_{j<=n} log[Gamma(j) Gamma(j+2a) / Gamma(j+a)^2] at every n <= 1024
    (the 2^20-node quadrature error, not the sweep, sets the gap)."""
    a = 0.45
    coeffs = fourier_coeffs(_SWEEP_SYMBOLS["single-root"], 1023)
    sizes = list(range(1, 1025))
    got = np.array([r.log_det.real for r in toeplitz_logdets(coeffs, sizes)])
    j = np.arange(1, 1025)
    terms = scipy.special.gammaln(j) + scipy.special.gammaln(j + 2 * a) - 2 * scipy.special.gammaln(j + a)
    assert np.max(np.abs(got - np.cumsum(terms))) < 1e-6


def test_levinson_sweep_falls_back_to_lu():
    """A complex jump (beta_jump 0.2 + 0.1i) and a V with V_{-1} != conj(V_1)
    give non-Hermitian coefficients, a hand-built Hermitian c_0 = 1,
    c_{+-1} = 0.8 is indefinite from n = 3 on, and c_0 = -1 alone is
    negative definite: all go to dense LU for every size, bitwise."""
    jump = fourier_coeffs(SymbolSpec({1: 0.2, -1: 0.2}, (Singularity(1.0, 0.3, 0.2 + 0.1j),)), 63)
    skew_v = fourier_coeffs(SymbolSpec({1: 0.3, -1: 0.1}, ()), 15)
    values = np.zeros(9, dtype=complex)
    values[3:6] = [0.8, 1.0, 0.8]
    indefinite = FourierCoeffs(order=4, values=values)
    negative = FourierCoeffs(order=2, values=[0.0, 0.0, -1.0, 0.0, 0.0])
    cases = ((jump, [64, 1, 2, 16]), (skew_v, [16, 2, 8]), (indefinite, [1, 2, 3, 5]), (negative, [1, 2, 3]))
    for coeffs, sizes in cases:
        results = toeplitz_logdets(coeffs, sizes)
        assert results == [toeplitz_logdet(coeffs, n) for n in sizes]
    assert toeplitz_logdets(indefinite, [3])[0].log_det.imag == pytest.approx(math.pi)


def test_levinson_sweep_checks_sizes_and_order():
    coeffs = fourier_coeffs(SymbolSpec({1: 0.3, -1: 0.3}, ()), 4)
    with pytest.raises(ValueError, match="need coefficients to order 5"):
        toeplitz_logdets(coeffs, [2, 6])
    with pytest.raises(ValueError, match="n capped at 1024"):
        toeplitz_logdets(coeffs, [2, 2000])
    with pytest.raises(ValueError, match="need n >= 1"):
        toeplitz_logdets(coeffs, [0])
    assert toeplitz_logdets(coeffs, []) == []
