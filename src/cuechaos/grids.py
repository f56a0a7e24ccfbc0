"""Uniform angle grids on [0, 2*pi) and finite Fourier series on the circle.

Every mode sum in the package goes through trig_series (arbitrary angles) or
grid_series (a shifted uniform grid, by one inverse FFT).  Both take the
dense layout coeffs[k + j] = c_j for |j| <= k; grid_series also takes
leading axes, one series each, and grid_reduce reduces many series on a
grid a few at a time.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = ["TWO_PI", "uniform_grid", "grid_step", "trig_series", "grid_series", "grid_reduce"]

_STEP_RTOL = 1e-9
# Series per inverse FFT in grid_reduce: its transient stays at 16 x m
# complex values (256 KB on a 1024-node grid) however many series it gets.
_REDUCE_ROWS = 16


def uniform_grid(m: int) -> np.ndarray:
    """m equispaced angles theta_i = 2*pi*i/m, i = 0..m-1."""
    m = int(m)
    if m < 1:
        raise ValueError(f"grid size must be positive, got {m}")
    return np.arange(m) * (TWO_PI / m)


def grid_step(grid: np.ndarray) -> float:
    """Cell width 2*pi / size of a uniform grid.

    The grid may be shifted, but every spacing must equal 2*pi / size to
    relative 1e-9: the quadratures that use the step assume the grid covers
    the circle once with equal cells.
    """
    grid = np.asarray(grid)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d array")
    step = TWO_PI / grid.size
    if not np.all(np.abs(np.diff(grid) - step) <= _STEP_RTOL * step):
        raise ValueError(
            f"grid of {grid.size} nodes is not uniform with spacing 2*pi/{grid.size}"
        )
    return step


def _dense_coeffs(coeffs) -> tuple[np.ndarray, int]:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim < 1 or c.shape[-1] % 2 != 1:
        raise ValueError(f"coefficients must have odd length along the last axis, got shape {c.shape}")
    return c, c.shape[-1] // 2


def trig_series(coeffs, theta):
    """sum_{|j|<=k} c_j e^{ij theta} with coeffs[k + j] = c_j.

    Accepts a scalar angle (returns complex) or an array (returns a complex
    array of its shape).  Multiplies up powers of e^{i theta} instead of
    calling transcendentals per mode, so memory stays O(len theta).
    """
    c, k = _dense_coeffs(coeffs)
    if c.ndim != 1:
        raise ValueError(f"trig_series takes one series, got coefficients of shape {c.shape}")
    theta = np.asarray(theta, dtype=float)
    total = np.full(theta.shape, c[k])
    rot = np.exp(1j * theta)
    power = np.ones_like(rot)
    for j in range(1, k + 1):
        power = power * rot
        total += c[k + j] * power
        total += c[k - j] * np.conj(power)
    return complex(total) if theta.ndim == 0 else total


def grid_series(coeffs, m: int, offset: float = 0.0) -> np.ndarray:
    """sum_{|j|<=k} c_j e^{ij theta_t} at theta_t = offset + 2*pi*t/m, t < m.

    Orders are folded mod m before one inverse FFT of length m, so the result
    is the exact series for every k: no Nyquist condition applies here.
    Leading axes of coeffs are separate series: the result has shape
    coeffs.shape[:-1] + (m,).
    """
    c, k = _dense_coeffs(coeffs)
    m = int(m)
    if m < 1:
        raise ValueError(f"grid size must be positive, got {m}")
    orders = np.arange(-k, k + 1)
    folded = np.zeros(c.shape[:-1] + (m,), dtype=complex)
    np.add.at(folded, (..., np.mod(orders, m)), c * np.exp(1j * orders * float(offset)))
    return np.fft.ifft(folded, norm="forward")


def grid_reduce(coeffs, m: int, offset: float, reduce) -> np.ndarray:
    """reduce(grid_series(coeffs, m, offset)), taken 16 series at a time.

    coeffs holds one series, or one per index of its first axis; reduce maps
    the grid values of a run of series, shape (rows, m), to one value per
    series, shape (rows,), and the runs' values are concatenated.
    """
    c = np.asarray(coeffs)
    if c.ndim == 1:
        return reduce(grid_series(c, m, offset))
    return np.concatenate(
        [reduce(grid_series(c[i:i + _REDUCE_ROWS], m, offset)) for i in range(0, len(c), _REDUCE_ROWS)]
    )
