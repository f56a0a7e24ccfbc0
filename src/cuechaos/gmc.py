r"""Log-correlated Gaussian field on the circle and its multiplicative chaos.

The field is the Fourier series

    X_k(theta) = (1/2) sum_{j=1}^{k} (1/sqrt j) (Z_j e^{ij theta} + conj),

with Z_j i.i.d. standard complex Gaussians.  Its covariance
(1/2) sum_{j<=k} cos(j(theta-theta'))/j converges to
-(1/2) log|e^{i theta} - e^{i theta'}|, and the normalized exponentials

    mu_beta^(k)(dtheta) = exp(beta X_k - (beta^2/2) E X_k^2) dtheta

form the martingale approximations of the chaos measure, nontrivial for
beta^2 < 4 and L^2-bounded for beta^2 < 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TWO_PI, grid_series, grid_step, trig_series, uniform_grid
from .cue import TraceVector
from .montecarlo import as_generator

__all__ = [
    "GaussianDraw",
    "GridMeasure",
    "gaussian_draw",
    "field_variance",
    "field_partial_sum",
    "chaos_measure",
    "integrate_measure",
    "field_coeffs_from_traces",
    "sobolev_norm",
]


@dataclass(eq=False)
class GaussianDraw:
    """k i.i.d. standard complex Gaussians Z_1..Z_k.

    Standard complex means E Z = 0, E|Z|^2 = 1, E Z^2 = 0: real and
    imaginary parts are independent N(0, 1/2).
    """

    k: int
    z: np.ndarray

    def __post_init__(self):
        self.k = int(self.k)
        self.z = np.asarray(self.z, dtype=complex)
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if self.z.ndim != 1 or self.z.size != self.k:
            raise ValueError(f"expected {self.k} Gaussians, got shape {self.z.shape}")


@dataclass(eq=False)
class GridMeasure:
    """Masses of a measure against a uniform grid quadrature."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.grid.shape != self.masses.shape or self.grid.ndim != 1:
            raise ValueError("grid and masses must be 1-d arrays of equal length")
        if np.any(self.masses < 0.0) or not np.all(np.isfinite(self.masses)):
            raise ValueError("masses must be finite and non-negative")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def gaussian_draw(k: int, stream) -> GaussianDraw:
    """Draw Z_1..Z_k standard complex Gaussians from the given stream."""
    k = int(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = as_generator(stream)
    parts = rng.standard_normal(2 * k) * np.sqrt(0.5)
    return GaussianDraw(k=k, z=parts[:k] + 1j * parts[k:])


def field_variance(k: int) -> float:
    """E X_k(theta)^2 = (1/2) sum_{j<=k} 1/j, independent of theta."""
    k = int(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return 0.5 * float(np.sum(1.0 / np.arange(1, k + 1)))


def _field_coeffs(draw: GaussianDraw) -> np.ndarray:
    """Dense coefficients c_{+-j} of X_k: c_j = Z_j / (2 sqrt j), c_{-j} = conj(c_j)."""
    half = 0.5 * draw.z / np.sqrt(np.arange(1, draw.k + 1))
    return np.concatenate([np.conj(half[::-1]), [0.0], half])


def field_partial_sum(draw: GaussianDraw, theta):
    """X_k(theta) = sum_{j<=k} Re[Z_j e^{ij theta}] / sqrt(j).

    Accepts a scalar angle (returns float) or an array (returns an array).
    """
    return trig_series(_field_coeffs(draw), theta).real


def chaos_measure(draw: GaussianDraw, beta: float, grid=None) -> GridMeasure:
    """Truncated chaos measure e^{beta X_k - (beta^2/2) E X_k^2} dtheta on a grid.

    The normalization uses the exact variance (1/2) sum_{j<=k} 1/j, so the
    expected mass of every cell is its width and the expected total mass is
    2*pi for every beta and k.  The grid must be uniform (it may be shifted)
    and have at least 2k+1 nodes to resolve the degree-k field.
    """
    if grid is None:
        grid = uniform_grid(max(1024, 8 * draw.k))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 * draw.k + 1:
        raise ValueError(
            f"grid size {grid.size} below Nyquist {2 * draw.k + 1} for k={draw.k}"
        )
    h = grid_step(grid)
    beta = float(beta)
    x = grid_series(_field_coeffs(draw), grid.size, grid[0]).real
    density = np.exp(beta * x - 0.5 * beta * beta * field_variance(draw.k))
    return GridMeasure(grid=grid, masses=density * h)


def integrate_measure(measure: GridMeasure, g) -> float:
    """sum_i g(theta_i) * mass_i for g a vectorized callable, array or scalar."""
    if callable(g):
        gvals = np.asarray(g(measure.grid), dtype=float)
        gvals = np.broadcast_to(gvals, measure.grid.shape)
    else:
        gvals = np.asarray(g, dtype=float)
        if gvals.ndim == 0:
            gvals = np.broadcast_to(gvals, measure.grid.shape)
        elif gvals.shape != measure.grid.shape:
            raise ValueError(
                f"grid function shape {gvals.shape} does not match grid {measure.grid.shape}"
            )
    return float(np.sum(gvals * measure.masses))


def field_coeffs_from_traces(traces: TraceVector) -> np.ndarray:
    """Fourier data c_j = -Tr U^j / (2j) of log|p_n| for j = 1..j_max.

    As n grows these coefficients converge to those of the limit field, with
    Var c_j -> 1/(4j) componentwise.
    """
    j = np.arange(1, traces.j_max + 1)
    return -traces.traces / (2.0 * j)


def sobolev_norm(coeffs, s: float) -> float:
    """Squared H^s norm sum_{j != 0} (1 + j^2)^s |c_j|^2 of the represented
    coefficients, with c_{-j} = conj(c_j) counted (zero mode excluded)."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return 0.0
    j = np.arange(1, c.size + 1)
    return float(2.0 * np.sum((1.0 + j * j) ** float(s) * np.abs(c) ** 2))
