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

from .grids import TWO_PI, grid_reduce, grid_series, grid_step, trig_series, uniform_grid
from .cue import TraceVector
from .montecarlo import RngStream, as_generator, stream_draws

__all__ = [
    "GaussianDraw",
    "GridMeasure",
    "gaussian_draw",
    "gaussian_block",
    "field_variance",
    "field_partial_sum",
    "chaos_measure",
    "chaos_mass_block",
    "integrate_measure",
    "field_coeffs_from_traces",
    "sobolev_norm",
]


@dataclass(eq=False)
class GaussianDraw:
    """k i.i.d. standard complex Gaussians Z_1..Z_k, shape (k,), or those of
    a block of draws, shape (draws, k).

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
        if self.z.ndim not in (1, 2) or self.z.shape[-1] != self.k:
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
    return _gaussians(k, as_generator(stream).standard_normal(2 * k))


def gaussian_block(k: int, streams: list[RngStream]) -> GaussianDraw:
    """One draw per stream, as a block GaussianDraw of shape (len(streams), k):
    row i holds the Gaussians that gaussian_draw(k, streams[i]) draws."""
    k = int(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _gaussians(k, stream_draws(streams, lambda rng: rng.standard_normal(2 * k)))


def _gaussians(k: int, normals: np.ndarray) -> GaussianDraw:
    # real parts from the first k normals of a draw, imaginary from the rest
    parts = normals * np.sqrt(0.5)
    return GaussianDraw(k=k, z=parts[..., :k] + 1j * parts[..., k:])


def field_variance(k: int) -> float:
    """E X_k(theta)^2 = (1/2) sum_{j<=k} 1/j, independent of theta."""
    k = int(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return 0.5 * float(np.sum(1.0 / np.arange(1, k + 1)))


def _field_coeffs(draw: GaussianDraw) -> np.ndarray:
    """Dense coefficients c_{+-j} of X_k: c_j = Z_j / (2 sqrt j), c_{-j} = conj(c_j);
    a block gives one row per draw."""
    half = 0.5 * draw.z / np.sqrt(np.arange(1, draw.k + 1))
    zero = np.zeros(half.shape[:-1] + (1,))
    return np.concatenate([np.conj(half[..., ::-1]), zero, half], axis=-1)


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
    if draw.z.ndim != 1:
        raise ValueError("chaos_measure takes one draw; chaos_mass_block takes a block")
    grid = _chaos_grid(draw.k, grid)
    x = grid_series(_field_coeffs(draw), grid.size, grid[0]).real
    return GridMeasure(grid=grid, masses=_chaos_masses(x, float(beta), draw.k, grid_step(grid)))


def chaos_mass_block(draw: GaussianDraw, beta: float, grid=None) -> np.ndarray:
    """chaos_measure(draw, beta, grid).total_mass of every draw of a
    GaussianDraw, bitwise: shape () for one draw, (draws,) for a block.

    The field comes from grid_reduce, 16 draws per inverse FFT, so a block
    never holds its whole grid; the grid checks and the ValueError on a
    mass that is not finite are chaos_measure's.
    """
    grid = _chaos_grid(draw.k, grid)
    h = grid_step(grid)

    def total(series: np.ndarray) -> np.ndarray:
        masses = _chaos_masses(series.real, float(beta), draw.k, h)
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite and non-negative")
        return np.sum(masses, axis=-1)

    return grid_reduce(_field_coeffs(draw), grid.size, grid[0], total)


def _chaos_grid(k: int, grid) -> np.ndarray:
    """The grid (default uniform_grid(max(1024, 8k))); at least 2k+1 nodes."""
    if grid is None:
        grid = uniform_grid(max(1024, 8 * k))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 * k + 1:
        raise ValueError(f"grid size {grid.size} below Nyquist {2 * k + 1} for k={k}")
    return grid


def _chaos_masses(x: np.ndarray, beta: float, k: int, h: float) -> np.ndarray:
    """Cell masses e^{beta x - (beta^2/2) E X_k^2} h of the field values x."""
    return np.exp(beta * x - 0.5 * beta * beta * field_variance(k)) * h


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
