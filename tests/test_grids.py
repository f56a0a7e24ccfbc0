"""Tests for the uniform-grid helpers and the two Fourier-series evaluators.

grid_series (one inverse FFT with orders folded mod m) is checked against
trig_series (powers of e^{i theta}) on shifted uniform grids, including
truncations above the grid size.  grid_step must reject grids that are not
uniform, through every quadrature that relies on it.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuechaos import (
    ExponentPair,
    RngStream,
    chaos_measure,
    gaussian_draw,
    grid_series,
    grid_step,
    integrate_f,
    sample_cue,
    trig_series,
    uniform_grid,
    variance_integral,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("k", [5, 8, 37])  # k < m/2, k = m/2, k > m (folding)
@pytest.mark.parametrize("shift", [0.0, 0.5, 0.75])  # in units of the step h
def test_grid_series_matches_trig_series(k, shift):
    m = 16
    offset = shift * TWO_PI / m
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    direct = trig_series(coeffs, offset + uniform_grid(m))
    assert_allclose(
        grid_series(coeffs, m, offset), direct, rtol=1e-12, atol=1e-12 * np.abs(coeffs).sum()
    )


def test_trig_series_scalar_in_scalar_out():
    coeffs = np.array([0.5 - 0.25j, 1.0, 2.0 + 1.0j])
    theta = 0.7
    direct = sum(c * np.exp(1j * j * theta) for j, c in zip((-1, 0, 1), coeffs))
    value = trig_series(coeffs, theta)
    assert isinstance(value, complex)
    assert_allclose(value, direct, rtol=1e-14)


def test_series_reject_even_length_coefficients():
    with pytest.raises(ValueError):
        trig_series(np.ones(4), 0.3)
    with pytest.raises(ValueError):
        grid_series(np.ones(4), 8)


def test_grid_step_accepts_shifted_uniform_grids():
    for m in (1, 7, 1 << 20):
        for shift in (0.0, 0.3, 2.0):
            assert grid_step(uniform_grid(m) + shift) == TWO_PI / m


NON_UNIFORM = np.linspace(0.0, 1.0, 512)  # 512 nodes, spacing 1/511 != 2*pi/512


@pytest.mark.parametrize(
    "quadrature",
    [
        lambda grid: integrate_f(sample_cue(16, RngStream(0, 0)), 1.0, ExponentPair(1.0, 0.0), grid),
        lambda grid: chaos_measure(gaussian_draw(4, RngStream(0, 0)), 1.0, grid),
        lambda grid: variance_integral(1.0, 1.0, 4, grid),
    ],
    ids=["integrate_f", "chaos_measure", "variance_integral"],
)
def test_non_uniform_grid_rejected(quadrature):
    with pytest.raises(ValueError, match="not uniform"):
        quadrature(NON_UNIFORM)
    quadrature(uniform_grid(512) + 0.1)  # a shifted uniform grid stays valid
